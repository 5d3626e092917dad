(* Tests for section 3.4: butterfly graphs and the Phi embedding. *)

module W = Debruijn.Word
module BG = Butterfly.Graph
module BE = Butterfly.Embed
module C = Graphlib.Cycle
module DG = Graphlib.Digraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let f23 = BG.create ~d:2 ~n:3

let test_structure () =
  check_int "24 nodes in F(2,3)" 24 (BG.n_nodes f23);
  (* every node has out-degree d and in-degree d *)
  for v = 0 to BG.n_nodes f23 - 1 do
    check_int "outdeg" 2 (DG.out_degree f23.BG.graph v);
    check_int "indeg" 2 (DG.in_degree f23.BG.graph v)
  done;
  (* level increments by 1 mod n along every edge *)
  DG.iter_edges
    (fun u v -> check_int "level step" ((BG.level f23 u + 1) mod 3) (BG.level f23 v))
    f23.BG.graph

let test_edges_change_one_digit () =
  let p = f23.BG.p in
  DG.iter_edges
    (fun u v ->
      let k = BG.level f23 u in
      let cu = W.decode p (BG.column f23 u) and cv = W.decode p (BG.column f23 v) in
      Array.iteri
        (fun j (a : int) ->
          if j <> k then check_int "digit unchanged off-level" a cv.(j))
        cu)
    f23.BG.graph

let test_figure_3_4_sample_edges () =
  (* Figure 3.4: (0,000) connects to level-1 columns 000 and 100
     (digit 0 replaced). *)
  let enc l c = BG.encode f23 ~level:l ~column:(W.of_string f23.BG.p c) in
  Alcotest.(check (list int)) "succ of (0,000)"
    [ enc 1 "000"; enc 1 "100" ]
    (BG.successors f23 (enc 0 "000"));
  Alcotest.(check (list int)) "succ of (2,110)"
    [ enc 0 "110"; enc 0 "111" ]
    (BG.successors f23 (enc 2 "110"))

let test_s_class_partition () =
  (* The classes S_x partition the butterfly nodes: every butterfly node
     belongs to exactly one class (Figure 3.5 / [ABR90]). *)
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let p = t.BG.p in
      let counts = Hashtbl.create 64 in
      for v = 0 to BG.n_nodes t - 1 do
        let x = BG.de_bruijn_class t v in
        check_int "s_node roundtrip" v (BG.s_node t (BG.level t v) x);
        Hashtbl.replace counts x (1 + Option.value ~default:0 (Hashtbl.find_opt counts x))
      done;
      check_int "d^n classes" p.W.size (Hashtbl.length counts);
      Hashtbl.iter (fun _ c -> check_int "n nodes per class" p.W.n c) counts)
    [ (2, 3); (3, 2); (2, 4); (3, 3) ]

let test_lemma_3_8 () =
  (* If (x,y) is a De Bruijn edge then level-i of S_x connects to
     level-(i+1) of S_y. *)
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let p = t.BG.p in
      let b = Debruijn.Graph.b p in
      DG.iter_edges
        (fun x y ->
          for i = 0 to n - 1 do
            check_bool "butterfly edge exists" true
              (DG.mem_edge t.BG.graph (BG.s_node t i x) (BG.s_node t ((i + 1) mod n) y))
          done)
        b)
    [ (2, 3); (3, 2); (2, 4) ]

let test_edge_projection () =
  (* Converse direction: every butterfly edge projects to a De Bruijn
     edge, consistently with s_node. *)
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let p = t.BG.p in
      let b = Debruijn.Graph.b p in
      DG.iter_edges
        (fun u v ->
          let x, y = BG.edge_to_de_bruijn t (u, v) in
          check_bool "projects to B edge" true (DG.mem_edge b x y))
        t.BG.graph)
    [ (2, 3); (3, 2); (3, 4) ]

let test_lemma_3_9_example () =
  (* The thesis's example: the 4-cycle (110,100,001,011) of B(2,3) maps
     to a 12-cycle in F(2,3). *)
  let p = f23.BG.p in
  let c = Array.map (W.of_string p) [| "110"; "100"; "001"; "011" |] in
  check_bool "is a B(2,3) cycle" true (C.is_cycle (Debruijn.Graph.b p) c);
  let bc = BE.phi f23 c in
  check_int "LCM(4,3) = 12" 12 (Array.length bc);
  check_bool "is a butterfly cycle" true (C.is_cycle f23.BG.graph bc);
  (* First few nodes as printed in the thesis: (0,110), (1,010), (2,010),
     (0,011) … *)
  let enc l s = BG.encode f23 ~level:l ~column:(W.of_string p s) in
  check_int "start (0,110)" (enc 0 "110") bc.(0);
  check_int "then (1,010)" (enc 1 "010") bc.(1);
  check_int "then (2,010)" (enc 2 "010") bc.(2);
  check_int "then (0,011)" (enc 0 "011") bc.(3)

let test_phi_preserves_cycles () =
  (* Lemma 3.9 over every necklace of a few graphs. *)
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let p = t.BG.p in
      List.iter
        (fun r ->
          let c = Array.of_list (Debruijn.Necklace.nodes p r) in
          let bc = BE.phi t c in
          check_int "length LCM(k,n)" (Numtheory.lcm (Array.length c) n) (Array.length bc);
          check_bool "cycle in butterfly" true (C.is_cycle t.BG.graph bc))
        (Debruijn.Necklace.all_representatives p))
    [ (2, 3); (3, 2); (2, 5); (3, 4) ]

let test_hamiltonian_when_coprime () =
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      match BE.hamiltonian_cycle t with
      | None -> Alcotest.fail "expected an HC"
      | Some hc ->
          check_int "covers all nodes" (BG.n_nodes t) (Array.length hc);
          check_bool "hamiltonian" true (C.is_hamiltonian t.BG.graph hc))
    [ (2, 3); (3, 2); (2, 5); (3, 4); (5, 2); (4, 3) ]

let test_no_hc_when_not_coprime () =
  let t = BG.create ~d:2 ~n:4 in
  check_bool "gcd(2,4) != 1" true (BE.hamiltonian_cycle t = None);
  Alcotest.(check (list (array int))) "no disjoint HCs" [] (BE.disjoint_hamiltonian_cycles t)

let test_prop_3_6_disjoint () =
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let hcs = BE.disjoint_hamiltonian_cycles t in
      check_int "psi(d) cycles" (Dhc.Psi.psi d) (List.length hcs);
      List.iter
        (fun hc -> check_bool "hamiltonian" true (C.is_hamiltonian t.BG.graph hc))
        hcs;
      check_bool "pairwise disjoint" true (C.pairwise_edge_disjoint hcs))
    [ (3, 2); (5, 2); (4, 3); (2, 3); (8, 3); (9, 2) ]

let test_prop_3_5_fault_tolerance () =
  let rng = Util.Rng.create 31 in
  List.iter
    (fun (d, n) ->
      let t = BG.create ~d ~n in
      let tol = Dhc.Psi.max_tolerance d in
      if tol >= 1 then
        for _ = 1 to 15 do
          let f = 1 + Util.Rng.int rng tol in
          (* random butterfly edges *)
          let rec pick acc =
            if List.length acc >= f then acc
            else begin
              let u = Util.Rng.int rng (BG.n_nodes t) in
              let succs = BG.successors t u in
              let v = List.nth succs (Util.Rng.int rng (List.length succs)) in
              if List.mem (u, v) acc then pick acc else pick ((u, v) :: acc)
            end
          in
          let faults = pick [] in
          match BE.hc_avoiding t ~faults with
          | None -> Alcotest.fail (Printf.sprintf "no HC for F(%d,%d)" d n)
          | Some hc ->
              check_bool "hamiltonian" true (C.is_hamiltonian t.BG.graph hc);
              check_bool "avoids faults" true
                (C.avoids_edges hc (fun e -> List.mem e faults))
        done)
    [ (3, 2); (5, 2); (4, 3); (9, 2); (5, 3) ]

let test_write () =
  (* F(11,2): levels and column digits >= 10 print as several chars *)
  let t = BG.create ~d:11 ~n:2 in
  let ring = Option.get (BE.hc_avoiding t ~faults:[]) in
  let file = Filename.temp_file "butterfly_render" ".txt" in
  let oc = open_out_bin file in
  let w = W.Writer.create oc in
  Array.iteri
    (fun i v ->
      if i > 0 then W.Writer.string w " ";
      BG.write w t v)
    ring;
  W.Writer.flush w;
  close_out oc;
  let got = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  Alcotest.(check string) "streamed = to_string"
    (String.concat " " (List.map (BG.to_string t) (Array.to_list ring)))
    got

let test_encode_bounds () =
  Alcotest.check_raises "bad level" (Invalid_argument "Butterfly.encode: level") (fun () ->
      ignore (BG.encode f23 ~level:3 ~column:0));
  Alcotest.check_raises "bad column" (Invalid_argument "Butterfly.encode: column")
    (fun () -> ignore (BG.encode f23 ~level:0 ~column:9));
  Alcotest.check_raises "non-edge projection"
    (Invalid_argument "Butterfly.edge_to_de_bruijn: not a butterfly edge") (fun () ->
      ignore (BG.edge_to_de_bruijn f23 (0, 0)))

let qsuite =
  let open QCheck in
  [
    Test.make ~name:"s_node / de_bruijn_class roundtrip" ~count:300
      (pair (oneofl [ (2, 3); (3, 2); (2, 4); (3, 4); (4, 3) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let t = BG.create ~d ~n in
        let v = seed mod BG.n_nodes t in
        BG.s_node t (BG.level t v) (BG.de_bruijn_class t v) = v);
    Test.make ~name:"phi of a necklace is a valid butterfly cycle" ~count:200
      (pair (oneofl [ (2, 3); (3, 2); (2, 4); (3, 4) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let t = BG.create ~d ~n in
        let p = t.BG.p in
        let x = seed mod p.W.size in
        let c = Array.of_list (Debruijn.Necklace.nodes p x) in
        let bc = BE.phi t c in
        Array.length bc = Numtheory.lcm (Array.length c) n
        && C.is_cycle t.BG.graph bc);
    Test.make ~name:"butterfly edges project to De Bruijn edges" ~count:300
      (pair (oneofl [ (2, 3); (3, 2); (3, 3) ]) (int_range 0 1_000_000))
      (fun ((d, n), seed) ->
        let t = BG.create ~d ~n in
        let b = Debruijn.Graph.b t.BG.p in
        let u = seed mod BG.n_nodes t in
        List.for_all
          (fun v ->
            let x, y = BG.edge_to_de_bruijn t (u, v) in
            DG.mem_edge b x y)
          (BG.successors t u));
  ]

let () =
  Alcotest.run "butterfly"
    [
      ( "graph",
        [
          Alcotest.test_case "structure" `Quick test_structure;
          Alcotest.test_case "edges change one digit" `Quick test_edges_change_one_digit;
          Alcotest.test_case "Figure 3.4 edges" `Quick test_figure_3_4_sample_edges;
          Alcotest.test_case "S-class partition (Fig 3.5)" `Quick test_s_class_partition;
          Alcotest.test_case "Lemma 3.8" `Quick test_lemma_3_8;
          Alcotest.test_case "edge projection" `Quick test_edge_projection;
          Alcotest.test_case "encode bounds" `Quick test_encode_bounds;
          Alcotest.test_case "write = to_string" `Quick test_write;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "Lemma 3.9 example (12-cycle)" `Quick test_lemma_3_9_example;
          Alcotest.test_case "phi preserves cycles" `Quick test_phi_preserves_cycles;
          Alcotest.test_case "HC when gcd(d,n)=1" `Quick test_hamiltonian_when_coprime;
          Alcotest.test_case "no HC otherwise" `Quick test_no_hc_when_not_coprime;
          Alcotest.test_case "Prop 3.6 disjoint HCs" `Quick test_prop_3_6_disjoint;
          Alcotest.test_case "Prop 3.5 fault tolerance" `Quick test_prop_3_5_fault_tolerance;
        ] );
      ("properties", List.map (fun t -> QCheck_alcotest.to_alcotest ~long:false t) qsuite);
    ]
