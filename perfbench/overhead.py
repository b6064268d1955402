"""Tracing overhead: one in-process round untraced, then the same round traced.

    python3 perfbench/overhead.py --workload fio_large --seed 1

Prints both wall times and their ratio, and a second estimate that does not
drift with the machine: the number of wrapped calls in the round times the
cost of one wrapper around a no-op.  Run from a checkout root.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import layers
import run
import workloads


def round_wall(runner: run.Runner, ops: list) -> float:
    t0 = time.perf_counter()
    for op in ops:
        runner.execute(op, timed=True)
    return time.perf_counter() - t0


def wrapper_cost(n: int = 200_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    wrapped = layers.Tracer()._wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return (time.perf_counter() - t0 - bare) / n


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import gmlab.cli

    work = run.ROOT / ".perfbench" / f"overhead-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        warm, ops = workloads.build(args.workload, args.seed, work / "inputs")
        runner = run.Runner(work, traced_main=lambda argv: gmlab.cli.main(argv))
        runner.execute(warm, timed=False)
        plain = round_wall(runner, ops)
        tracer = layers.Tracer()
        tracer.install()
        traced = round_wall(runner, ops)
        calls = sum(tracer.calls.values())
        failed, problems = runner.check()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cost = wrapper_cost()
    print(f"{args.workload}: untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {traced / plain - 1:+.1%}; {calls} wrapped calls x {cost * 1e6:.2f} us "
          f"= {calls * cost / plain:.2%} of the round; failed {failed}, problems {problems}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
