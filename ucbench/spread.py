#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 ucbench/spread.py --workload catalog --seeds 1-10 --out runs.json
    python3 ucbench/spread.py --compare runs.json --seeds 101-110 \
        --workload catalog --out heldout.json

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
the runs, the spread (distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) and the
metric's bound.  A spread above its bound fails (``setup_s`` is exempt);
one above a third of its bound is marked ``loose``.  With ``--compare`` it also checks that the new
median is not worse than the earlier file's median by more than the
bound; that is the held-out seed check.  Exit code 0 when every check
passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "ucbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
            f"\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def medians(runs: list[dict]) -> dict[str, float]:
    names = runs[0]["metrics"]
    return {
        n: statistics.median(r["metrics"][n]["value"] for r in runs)
        for n in names
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        runs.append(run_once(args.workload, seed, spec["run_seconds"]))
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    Path(args.out).write_text(json.dumps(runs))

    ok = True
    old = (
        medians(json.loads(Path(args.compare).read_text()))
        if args.compare else None
    )
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, meta in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "ok"
        if name != "setup_s" and spread > meta["bound"]:
            verdict = "WIDE"
        elif spread >= meta["bound"] / 3:
            verdict = "loose"
        if old is not None:
            sign = 1 if meta["better"] == "lower" else -1
            drift = sign * (med - old[name]) / old[name]
            verdict += f"  drift {drift:+.3f}"
            if drift > meta["bound"]:
                verdict += " WORSE"
        ok &= "WIDE" not in verdict and "WORSE" not in verdict
        print(f"{name:22s} {med:12.5g} {spread:8.3f} {meta['bound']:6.2f}"
              f"  {verdict}")
    failed = sum(r["failed"] for r in runs)
    print(f"failed operations over all runs: {failed}")
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
