#!/usr/bin/env python3
"""Do two sets of runs of one commit with one seed agree within the benchmark's own bounds?

    python3 perf/agree.py --seed 1 [--runs 3] [--quick]   # runs the suite 2 x 3 times, then compares
    python3 perf/agree.py A.json B.json                   # compares two result files of run.py --out

Per (metric, workload) it prints both sides' medians, their ratio and the
rule.  Counts must be identical in every run; an end-to-end metric disagrees
when the two medians differ by more than the bound ``BENCHMARK.json`` fixes
for it.  A side is several runs (the sides taking turns) because one run in
five or so falls wholly inside a noisy episode of this box and reads 30-40 %
slow (README, "Steadiness"); the gate compares medians of runs for the same
reason.  The exit code is the number of disagreements (0 = the sets agree).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the library, from a bare checkout

from catalogue import END_TO_END, EXACT  # noqa: E402


def compare(side_a: List[dict], side_b: List[dict]) -> int:
    """Print the comparison of two sets of result documents; return the disagreements."""
    bounds = {m.name: m.bound for m in END_TO_END}
    a, b = side_a[0], side_b[0]
    for key in ("seed", "git_commit", "seconds"):
        if a["meta"].get(key) != b["meta"].get(key):
            print(f"note: {key} differs: {a['meta'].get(key)} vs {b['meta'].get(key)}")
    disagreements = 0
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            print(f"{workload}: only in the first set")
            disagreements += 1
            continue
        print(f"{workload}")
        print(f"  {'metric':46s} {'A':>14s} {'B':>14s} {'B/A':>8s}  rule")
        for name in a["workloads"][workload]["metrics"]:
            runs_a, runs_b = (
                [doc["workloads"][workload]["metrics"][name]["value"] for doc in side
                 if name in doc["workloads"].get(workload, {}).get("metrics", {})]
                for side in (side_a, side_b)
            )
            if len(runs_a) < len(side_a) or len(runs_b) < len(side_b):
                print(f"  {name:46s} missing from some run")
                disagreements += 1
                continue
            va, vb = statistics.median(runs_a), statistics.median(runs_b)
            ratio = vb / va if va else float(vb == va)
            if name in EXACT:
                rule, bad = "exact", len(set(runs_a + runs_b)) > 1
            elif name in bounds:
                rule = f"within {100 * bounds[name]:.0f} %"
                bad = max(va, vb) > (1.0 + bounds[name]) * min(va, vb)
            elif va == vb == 0.0:
                continue  # does not decompose this workload
            else:
                rule, bad = "reported", False
            disagreements += bad
            print(f"  {name:46s} {va:14.4f} {vb:14.4f} {ratio:8.3f}  {rule}"
                  f"{'  DISAGREE' if bad else ''}")
    print(f"{disagreements} disagreement(s)")
    return disagreements


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, metavar="RESULT.json",
                        help="two result files; without them the suite runs twice")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3, help="runs per side (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke only: 2 s runs check the counts, their timings do not agree")
    args = parser.parse_args(argv)
    if len(args.files) not in (0, 2):
        parser.error("give two result files, or none")
    if args.files:
        sides = [[path] for path in args.files]
    else:
        sides = [
            [HERE / "out" / f"agree_{side}{run}_seed{args.seed}.json" for run in range(args.runs)]
            for side in "AB"
        ]
        for path in (p for pair in zip(*sides) for p in pair):  # A0 B0 A1 B1 ...
            # A fresh process per run: peak RSS belongs to the process.
            command = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
                       "--trace", "--out", str(path)] + (["--quick"] if args.quick else [])
            print("running", " ".join(command), flush=True)
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            if done.returncode:
                print(f"run.py exited with {done.returncode}")
                return done.returncode
    side_a, side_b = ([json.loads(Path(p).read_text()) for p in side] for side in sides)
    return compare(side_a, side_b)


if __name__ == "__main__":
    sys.exit(main())
