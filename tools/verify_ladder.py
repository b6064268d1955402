"""Time and peak memory of each `verify` suite on a fixed N ladder.

For each N in LADDER it prints one JSON line: the best of 3 wall times of
every suite in `verify.ALL_SUITES` at the CLI defaults (q = 0.5, s = 1,
seed 0), by suite name, and their sum; then the tracemalloc peak of each
suite in one more run, made after the timed ones so that no timed run is
traced.  OpenBLAS runs on one thread, so the numbers do not depend on the
core count:

    PYTHONPATH=src python tools/verify_ladder.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import json  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

from gmlab import QParams, verify  # noqa: E402

LADDER = (5, 7, 13, 31)
PARAMS = QParams(0.5, 1.0)
SEED = 0
REPEATS = 3


def rung(N: int) -> dict:
    best = {}
    for suite in verify.ALL_SUITES:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            name = suite(N, PARAMS, SEED).name
            times.append(time.perf_counter() - start)
        best[name] = min(times)
    peak = {}
    for suite in verify.ALL_SUITES:
        tracemalloc.start()
        try:
            name = suite(N, PARAMS, SEED).name
            peak[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    suites = {name: round(best[name], 4) for name in sorted(best)}
    peak_mb = {name: round(peak[name] / 2**20, 2) for name in sorted(peak)}
    return {"N": N, "total_s": round(sum(best.values()), 4), "suites": suites, "peak_mb": peak_mb}


if __name__ == "__main__":
    for N in LADDER:
        print(json.dumps(rung(N)), flush=True)
