"""Time and peak memory of the envelope kernel on a fixed N ladder.

For each N in LADDER it prints one JSON line: the worker threads
`fio.envelope` splits its rows among, the best of 3 wall times of
`fio.envelope` on one random operator along the cat map [[2, 1], [1, 1]]
with a Gaussian window and the CPU seconds of that best call, and the
tracemalloc peak of one more, traced call.  OpenBLAS runs on one thread, so
from N = 21 on the kernel runs one worker per core this process may use (up
to its memory cap, 4 from N = 31 to 127), and one below: wall time depends
on the core count, and CPU over wall seconds reads how well the workers use
the cores:

    PYTHONPATH=src python tools/envelope_ladder.py > BENCH_envelope.json
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import json  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from gmlab import envelope, fio, gabor_system, gaussian_window  # noqa: E402

LADDER = (11, 21, 31, 43, 61, 89, 127)
CHI = [[2, 1], [1, 1]]
REPEATS = 3


def rung(N: int) -> dict:
    sys = gabor_system(gaussian_window(N))
    rng = np.random.default_rng(N)
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    calls = []
    for _ in range(REPEATS):
        start, cpu = time.perf_counter(), time.process_time()
        envelope(T, CHI, sys)
        calls.append((time.perf_counter() - start, time.process_time() - cpu))
    wall, cpu = min(calls)
    tracemalloc.start()
    try:
        envelope(T, CHI, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"N": N, "workers": fio._workers(N), "envelope_s": round(wall, 4),
            "cpu_s": round(cpu, 4), "peak_mb": round(peak / 2**20, 2)}


if __name__ == "__main__":
    for N in LADDER:
        print(json.dumps(rung(N)), flush=True)
