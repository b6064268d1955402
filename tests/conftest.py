import json
import os

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
