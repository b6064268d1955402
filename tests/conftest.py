import json
import os
import tracemalloc

# One BLAS thread, set before numpy loads OpenBLAS: the small operator-norm
# SVDs of the intertwining sweep slow down many-fold when a second BLAS
# thread waits for a busy core.  An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def calibration():
    with open(os.path.join(DATA_DIR, "calibration.json")) as fh:
        return json.load(fh)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def traced_peak():
    """A function that runs call() and returns its tracemalloc peak in bytes,
    above what was traced before the call."""

    def peak(call):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
