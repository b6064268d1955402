"""Time and peak memory of one gmlab layer on a fixed N ladder.

    PYTHONPATH=src python tools/ladder.py KIND

For each N in KIND's ladder it prints one JSON line to stdout, and it
writes no file.  OpenBLAS runs on one thread.  A time is the best of
REPEATS calls, and a peak the tracemalloc peak of one more call, made
after the timed ones so that no timed call is traced.  KIND is one of

envelope  (N = 11 to 127) the worker threads `fio.envelope` hands its
          panels to, its wall time on one random operator along the cat
          map [[2, 1], [1, 1]] with a Gaussian window, the CPU seconds of
          that best call and the peak.  The workers are one per core, no
          more than the panels (one up to N = 31) and the memory budget
          (3 from N = 43 to 127) allow: wall time depends on the core
          count, and CPU over wall seconds reads how well the workers use
          the cores.
verify    (N = 5, 7, 13 and 31) the wall time of every suite in
          `verify.ALL_SUITES` at the CLI defaults (q = 0.5, s = 1,
          seed 0), by suite name, their sum, and the peak of each suite.

A committed BENCH_*.json is not this output, so never redirect the output
over one.  It is one JSON object holding `command`, `what`, `machine` and
one row per commit measured; each row is reduced from the JSON lines of k
runs of this tool on its commit, alternated with as many runs on the other
commit: per rung, the least value over the k runs, as the file's `what`
states.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from gmlab import QParams, envelope, fio, gabor_system, gaussian_window, verify  # noqa: E402

REPEATS = 3
CHI = [[2, 1], [1, 1]]
PARAMS = QParams(0.5, 1.0)
SEED = 0


def best(call):
    """The least (wall, CPU) seconds of REPEATS calls, and the last call's result."""
    runs = []
    for _ in range(REPEATS):
        start, cpu = time.perf_counter(), time.process_time()
        result = call()
        runs.append((time.perf_counter() - start, time.process_time() - cpu))
    return min(runs), result


def peak_mb(call) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def envelope_rung(N: int) -> dict:
    rng = np.random.default_rng(N)
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    call = partial(envelope, T, CHI, gabor_system(gaussian_window(N)))
    (wall, cpu), _ = best(call)
    return {"N": N, "workers": fio._workers(N), "envelope_s": round(wall, 4),
            "cpu_s": round(cpu, 4), "peak_mb": peak_mb(call)}


def verify_rung(N: int) -> dict:
    calls = [partial(suite, N, PARAMS, SEED) for suite in verify.ALL_SUITES]
    wall = {}
    for call in calls:
        (seconds, _), result = best(call)
        wall[result.name] = seconds
    peak = dict(sorted(zip(wall, [peak_mb(call) for call in calls])))
    return {"N": N, "total_s": round(sum(wall.values()), 4),
            "suites": {name: round(wall[name], 4) for name in sorted(wall)}, "peak_mb": peak}


KINDS = {
    "envelope": ((11, 21, 31, 43, 61, 89, 127), envelope_rung),
    "verify": ((5, 7, 13, 31), verify_rung),
}

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print one JSON line per rung of a fixed N ladder.")
    parser.add_argument("kind", choices=KINDS)
    ladder, rung = KINDS[parser.parse_args().kind]
    for N in ladder:
        print(json.dumps(rung(N)), flush=True)
