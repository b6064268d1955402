"""What only the tests use: the matrices of time-frequency shifts, an oracle
for the shift tables, and random lattice matrices of known decay."""

import numpy as np

from gmlab._lattice import root_of_unity
from gmlab.verify import _decay_profile, _decaying_draw


def tf_shift_matrix(z, N: int) -> np.ndarray:
    """The N x N unitary matrix of pi(z); k and l of z = (k, l) may be
    broadcasting index arrays, giving the stack (..., N, N) of matrices."""
    k, l = (np.asarray(v, dtype=np.int64)[..., None, None] for v in z)
    t = np.arange(N)[:, None]
    return root_of_unity(l % N * t, N) * ((t - t.T - k % N) % N == 0)


def random_decaying_matrix(rng, N: int) -> np.ndarray:
    """Lattice matrix with |entries| <= exp(-0.8 |mu|) along diagonal mu: the
    draw of the `verify` suites."""
    return _decaying_draw(rng, _decay_profile(N))
