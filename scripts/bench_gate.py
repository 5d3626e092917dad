#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_*.json against the
committed baseline.

Rows are flat JSON objects; a row's identity is every field that is not
a measurement (section, d, n, f, engine, workload, pipeline, ...).
Measurements fall into tolerance classes:

- exact: deterministic counters (rounds, delivered, ring lengths, node
  and cycle counts, campaign success splits, verification booleans) —
  these are seeded and worker-count-invariant, so any drift is a real
  behaviour change;
- ratio: machine-dependent figures (wall_s, speedups, live heap) —
  allowed to move within a generous factor;
- percent: everything else numeric, +/-25% by default.

Rows whose engine mentions "domains" (the multi-domain FFC campaign
rows) are skipped outright: their worker count is clamped to the
machine's cores.  A baseline row with no counterpart in the
fresh run fails the gate (coverage loss); extra fresh rows only warn.

Collective rows are additionally cross-checked within the fresh run:
every row whose engine ends in " fastpath" must agree on ALL exact
counters (rounds, delivered, wire words, link/port load, checksum, ...)
with its netsim sibling — the row with the same identity minus the
" fastpath" suffix — because the two executors implement one spec.
Fastpath-only rows (the at-scale instances netsim cannot touch) have no
sibling and are windowed against the baseline like everything else.

Both files are also schema-linted: every row must carry the uniform
measurement triple — wall_s plus a minor- and a major-heap allocation
figure (minor_words/major_words or their _per_trial variants) — so no
section can silently drop out of the regression window.  Sections whose
name ends in "-speedup" are derived ratios of other rows and are exempt.

Usage: bench_gate.py BASELINE.json FRESH.json
"""

import json
import sys

EXACT = {
    "rounds", "delivered", "ring_length", "nodes", "psi",
    "successes", "via_construction", "via_disjoint", "masked_fallbacks",
    "verified", "same_output",
    # ffc-campaign: seeded and worker/reuse-invariant by contract
    "trials", "embedded", "bound_applicable", "bound_ok", "min_ring_length",
    "errors",
    # live churn: same contract — event outcomes are pure functions of
    # (seed, target, trials, events)
    "cfaults", "crepairs", "patched", "recomputed", "cunchanged", "cerrors",
    # collective: schedule arithmetic and exact integer reductions —
    # rings/ranks/phases fix the plan, rounds/delivered/wire_words the
    # simulator execution, checksum the bit-exact payload contents
    "rings", "ranks", "phases", "wire_words", "payload_words",
    "max_link_load", "max_port_load", "checksum",
}
# measurement -> allowed factor in either direction
RATIO = {
    "wall_s": 4.0,
    "speedup_vs_reference": 3.0,
    "speedup_vs_fresh": 3.0,
    "live_heap_words": 3.0,
    "top_heap_words": 3.0,
    # allocation counters: deterministic in the code but sensitive to
    # compiler/runtime version, so windowed rather than exact
    "minor_words": 4.0,
    "major_words": 4.0,
    "minor_words_per_trial": 4.0,
    "major_words_per_trial": 4.0,
    "minor_words_per_event": 4.0,
    "major_words_per_event": 4.0,
    # per-event latencies: wall-clock figures, same window as wall_s
    "median_event_s": 4.0,
    "p90_event_s": 4.0,
    "p99_event_s": 4.0,
    "max_event_s": 4.0,
    # peak resident set: dominated by the off-heap arenas, but the OS
    # high-water mark also counts transient heap, so windowed
    "max_rss_kb": 4.0,
    # collective throughput: wire_words is exact but the divisor is
    # wall-clock, so same window as wall_s
    "bytes_per_s": 4.0,
}
PERCENT_DEFAULT = 0.25

MEASUREMENTS = EXACT | set(RATIO) | {
    "mean_ring_length", "mean_bstar_size", "mean_ecc", "mean_live_faults",
    # derived from payload_words/rounds, both exact — the +/-25% window
    # only absorbs float formatting drift
    "bytes_per_step",
}


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items() if k not in MEASUREMENTS))


def skip(row):
    return "domains" in str(row.get("engine", ""))


SCHEMA = [
    ("wall_s", ("wall_s",)),
    ("minor words", ("minor_words", "minor_words_per_trial", "minor_words_per_event")),
    ("major words", ("major_words", "major_words_per_trial", "major_words_per_event")),
    ("max_rss_kb", ("max_rss_kb",)),
]


def schema_lint(path, rows, failures):
    """Every row reports the uniform wall/minor/major triple (derived
    "-speedup" sections excepted).  Runs on all rows, including the
    engine="... domains" ones the comparison skips."""
    for i, row in enumerate(rows):
        section = str(row.get("section", ""))
        if section.endswith("-speedup"):
            continue
        for label, accepted in SCHEMA:
            if not any(k in row for k in accepted):
                failures.append(
                    f"{path}: row {i} (section {section!r}) lacks a {label} field")


def load(path, failures):
    with open(path) as fh:
        rows = json.load(fh)
    schema_lint(path, rows, failures)
    table = {}
    for row in rows:
        if skip(row):
            continue
        key = identity(row)
        if key in table:
            print(f"warning: duplicate row identity in {path}: {key}")
        table[key] = row
    return table


def compare(key, base, fresh, failures):
    for field, want in base.items():
        if field not in MEASUREMENTS:
            continue
        if field not in fresh:
            failures.append(f"{dict(key)}: field {field} missing from fresh run")
            continue
        got = fresh[field]
        if field in EXACT:
            if got != want:
                failures.append(
                    f"{dict(key)}: {field} = {got}, baseline {want} (exact match required)")
        elif field in RATIO:
            factor = RATIO[field]
            if want > 0 and got > 0:
                if got > want * factor or got < want / factor:
                    failures.append(
                        f"{dict(key)}: {field} = {got}, baseline {want} "
                        f"(outside x{factor} window)")
        else:
            tol = PERCENT_DEFAULT
            if abs(got - want) > tol * max(abs(want), 1e-9):
                failures.append(
                    f"{dict(key)}: {field} = {got}, baseline {want} (outside +/-{tol:.0%})")


def cross_check(fresh, failures):
    """Fastpath rows must carry byte-identical exact counters to their
    netsim siblings within the same fresh run.  The sibling is the row
    whose identity matches after stripping the trailing " fastpath" from
    the engine; at-scale fastpath-only rows have none and are skipped."""
    checked = 0
    for key, row in fresh.items():
        engine = str(row.get("engine", ""))
        if not engine.endswith(" fastpath"):
            continue
        sibling_row = dict(row)
        sibling_row["engine"] = engine[: -len(" fastpath")]
        sibling = fresh.get(identity(sibling_row))
        if sibling is None:
            continue
        checked += 1
        for field in sorted(EXACT):
            if field in row and field in sibling and row[field] != sibling[field]:
                failures.append(
                    f"{dict(key)}: fastpath {field} = {row[field]} but netsim "
                    f"sibling has {sibling[field]} (engines must agree exactly)")
    print(f"bench gate: {checked} fastpath rows cross-checked against netsim siblings")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_path, fresh_path = sys.argv[1], sys.argv[2]
    failures = []
    base = load(base_path, failures)
    fresh = load(fresh_path, failures)
    cross_check(fresh, failures)
    for key, row in base.items():
        if key not in fresh:
            failures.append(f"baseline row missing from fresh run: {dict(key)}")
        else:
            compare(key, row, fresh[key], failures)
    for key in fresh:
        if key not in base:
            print(f"note: new row not in baseline: {dict(key)}")
    compared = sum(1 for k in base if k in fresh)
    print(f"bench gate: {compared} rows compared against {base_path}")
    if failures:
        print(f"FAILED ({len(failures)} problems):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print("ok")


if __name__ == "__main__":
    main()
