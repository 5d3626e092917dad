(* Shared plumbing: clock, benchmark-side spans, quantiles, metric
   records and process memory. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- Spans ------------------------------------------------------- *)

(* The benchmark's own tracing: a span around each call it makes into
   a layer.  Spans stay in memory and are written out by [dump] when
   the run ends.  With tracing off [span] is one branch around the
   call. *)
module Span = struct
  type t = {
    name : string;
    op : int;  (** operation id the span belongs to *)
    parent : int;  (** index of the enclosing span, −1 at top level *)
    start : float;
    mutable stop : float;
  }

  let enabled = ref false
  let log : t array ref = ref [||]
  let count = ref 0
  let current = ref (-1)
  let op_id = ref 0

  let push s =
    if !count = Array.length !log then begin
      let bigger = Array.make (max 1024 (2 * !count)) s in
      Array.blit !log 0 bigger 0 !count;
      log := bigger
    end;
    !log.(!count) <- s;
    incr count

  let span name f =
    if not !enabled then f ()
    else begin
      let idx = !count in
      let s = { name; op = !op_id; parent = !current; start = now (); stop = nan } in
      push s;
      current := idx;
      let finish () =
        s.stop <- now ();
        current := s.parent
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  let new_op () = incr op_id

  let spans () = Array.sub !log 0 !count
  let duration s = s.stop -. s.start

  (* Self time per span: duration minus the part its direct children
     cover (children never overlap: one caller, one domain). *)
  let self_times () =
    let all = spans () in
    let self = Array.map duration all in
    Array.iter
      (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration s)
      all;
    self

  (* Durations of every closed span with this name, in order. *)
  let durations name =
    Array.to_list (spans ())
    |> List.filter (fun s -> s.name = name)
    |> List.map duration

  let self_by_name name =
    let all = spans () in
    let self = self_times () in
    let acc = ref [] in
    Array.iteri (fun i s -> if s.name = name then acc := self.(i) :: !acc) all;
    List.rev !acc

  let dump path =
    let oc = open_out path in
    let self = self_times () in
    Array.iteri
      (fun i s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f,\"self_s\":%.9f}\n"
          i s.name s.op s.parent s.start s.stop self.(i))
      (spans ());
    close_out oc
end

(* ---- Statistics -------------------------------------------------- *)

(* Linear interpolation between order statistics (the "type 7"
   estimator most tools default to). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float (Array.length a - 1) in
      let lo = int_of_float (Float.floor h) in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((h -. float lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let maximum = List.fold_left Float.max neg_infinity

(* ---- Metrics ----------------------------------------------------- *)

type kind =
  | Measured
  | Exact  (** a count that repeats exactly for a seed *)
  | Residual  (** an end-to-end time minus measured parts *)
  | Logical  (** closed-form, not data actually moved *)

type metric = { name : string; value : float; unit_ : string; kind : kind }

let m ?(kind = Measured) name unit_ value = { name; value; unit_; kind }

let kind_label = function
  | Measured -> "measured"
  | Exact -> "exact"
  | Residual -> "residual"
  | Logical -> "logical"

(* What one workload run hands back to the main loop in [Perfbench]. *)
type report = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the end-to-end metrics ([--trace 0]) *)
  layer : metric list;  (** the per-layer metrics ([--trace 1]) *)
  detail : metric list;  (** every named figure, printed as the detail line *)
  sizes : (string * string) list;  (** instance sizes for the metadata *)
}

(* ---- Process memory ---------------------------------------------- *)

(* VmHWM of a process in kB, read from /proc; [None] once it is gone. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun k ->
                  Some k)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

let self_hwm_kb () = Option.value ~default:0 (vm_hwm_kb "self")

(* Release everything the previous set-up left so the next one starts
   from the same heap (off-heap arenas are freed by their finalisers). *)
let settle () = Gc.full_major ()

(* Run [f] at least three times and for at least [min_s] seconds in
   all, releasing each result before the next, and keep the last
   result; the figure is the median set-up time. *)
let repeated_setup ?(min_s = 1.5) f =
  let rec go reps total times =
    let r, dt = time f in
    let reps = reps + 1 and total = total +. dt and times = dt :: times in
    if reps >= 3 && total >= min_s then (r, median times)
    else begin
      ignore (Sys.opaque_identity r);
      settle ();
      go reps total times
    end
  in
  go 0 0. []

(* ---- Run configuration ------------------------------------------- *)

type cfg = {
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** self-test instance sizes *)
  cli_exe : string;  (** the built debruijn-rings executable *)
  out_dir : string;  (** where span dumps go *)
}

(* A closed loop that stops at the first whole cycle of [cycle] steps
   after [seconds]: every run then carries the same mix of inputs. *)
let closed_loop cfg ~cycle step =
  let deadline = now () +. cfg.seconds in
  let i = ref 0 in
  while now () < deadline || !i mod cycle <> 0 do
    step !i;
    incr i
  done

let overhead ~traced ~untraced = (median traced /. median untraced) -. 1.
