"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload translate-requests --seeds 1-10 --seconds 20

For every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, the figure
the bounds in BENCHMARK.json are compared against.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for workload in args.workload:
        values: dict = {}
        attempted = failed = 0
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct is false", file=sys.stderr)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        print(f"## {workload}  seeds {args.seeds}  failed {failed}/{attempted}")
        print(f"{'metric':44s} {'unit':>12s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for name, (unit, vals) in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:44s} {unit:>12s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
