"""Time of each `verify` suite on a fixed N ladder.

For each N in LADDER it prints one JSON line: the best of 3 wall times of
every suite in `verify.ALL_SUITES` at the CLI defaults (q = 0.5, s = 1,
seed 0), by suite name, and their sum.  OpenBLAS runs on one thread, so the
numbers do not depend on the core count:

    PYTHONPATH=src python tools/verify_ladder.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import json  # noqa: E402
import time  # noqa: E402

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
    suites = {name: round(best[name], 4) for name in sorted(best)}
    return {"N": N, "total_s": round(sum(best.values()), 4), "suites": suites}


if __name__ == "__main__":
    for N in LADDER:
        print(json.dumps(rung(N)), flush=True)
