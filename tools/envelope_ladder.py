"""Time and peak memory of the envelope kernel on a fixed N ladder.

For each N in LADDER it prints one JSON line: the best of 3 wall times of
`fio.envelope` on one random operator along the cat map [[2, 1], [1, 1]]
with a Gaussian window, and the tracemalloc peak of one more, traced call.
OpenBLAS runs on one thread, so the numbers do not depend on the core count:

    PYTHONPATH=src python tools/envelope_ladder.py > BENCH_envelope.json
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import json  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from gmlab import envelope, gabor_system, gaussian_window  # noqa: E402

LADDER = (11, 31, 43, 61, 89, 127)
CHI = [[2, 1], [1, 1]]
REPEATS = 3


def rung(N: int) -> dict:
    sys = gabor_system(gaussian_window(N))
    rng = np.random.default_rng(N)
    T = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        envelope(T, CHI, sys)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        envelope(T, CHI, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"N": N, "envelope_s": round(min(times), 4), "peak_mb": round(peak / 2**20, 2)}


if __name__ == "__main__":
    for N in LADDER:
        print(json.dumps(rung(N)), flush=True)
