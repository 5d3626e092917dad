#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first form builds the library,
the CLI and the harness with dune, then replaces itself with the
harness (perfbench.exe), whose last line of output is the result
object.  `--workload all` runs every workload in turn.  `--selftest`
runs every workload on tiny instances in both trace modes, checks that
each emits exactly the metrics BENCHMARK.json names, with their units,
and that every output checker rejects a corrupted result.

Spans of traced runs are written to .bench_out/ in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join(ROOT, "_build", "default", "bin", "debruijn_rings.exe")
WORKLOADS = [
    "cli",
    "ring-query",
    "churn",
    "collective",
]


def build():
    """Build the harness and the CLI; exit non-zero without a result on failure."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe", "./bin/debruijn_rings.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if done.returncode != 0 or not (os.path.isfile(EXE) and os.path.isfile(CLI)):
        sys.exit("perfbench: build failed")


def harness(args):
    return [EXE, "--cli", CLI, "--out", os.path.join(ROOT, ".bench_out")] + args


def run_all(args):
    """Run every workload in turn; exit non-zero if any result is not correct."""
    failed = 0
    for w in WORKLOADS:
        out = subprocess.run(harness(["--workload", w] + args), stdout=subprocess.PIPE, text=True)
        print(f"== {w}\n{out.stdout}", end="", flush=True)
        lines = out.stdout.strip().splitlines()
        failed += out.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]
    sys.exit(1 if failed else 0)


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} != {WORKLOADS}")
    if subprocess.run(harness(["--check-checkers"])).returncode != 0:
        problems.append("an output checker accepted a corrupted result")
    for w in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            out = subprocess.run(harness(args), capture_output=True, text=True)
            try:
                result = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{w} trace={trace}: no result line (exit {out.returncode})")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{w} trace={trace}: metrics {sorted(got.items())} != {sorted(want[trace].items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{w} trace={trace}: {result['attempted']} attempted, {result['failed']} failed")
            print(f"selftest {w:<19} trace={trace}: {len(got)} metrics, correct={result['correct']}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


def main():
    args = sys.argv[1:]
    build()
    if args == ["--selftest"]:
        selftest()
    if args[:2] == ["--workload", "all"]:
        run_all(args[2:])
    os.execv(EXE, harness(args))


if __name__ == "__main__":
    main()
