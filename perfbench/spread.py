"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload library_mix --seeds 1-10 --seconds 45

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median,
the figure a metric's bound in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=45)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            check=True, capture_output=True, text=True)
        env, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal%={env['env']['cpu_steal_pct_of_user']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print(f"{k:32s} median {med:12.6g}  spread {spread:.4f}  min {min(vals):.6g}  max {max(vals):.6g}")
    print("failed shares: " + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
