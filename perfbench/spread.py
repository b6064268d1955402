"""Run one workload on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload verify --seeds 1-10 --seconds 30

The spread is the distance between the first and third quartile of the
per-seed values (statistics.quantiles, n=4) as a share of their median;
BENCHMARK.json's bound for a metric should be at least three times it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    values: dict = {}
    for seed in seed_list(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2 and med:
            q1, _, q3 = statistics.quantiles(v, n=4)
            print(f"{name}: median {med:.6g} spread {(q3 - q1) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
