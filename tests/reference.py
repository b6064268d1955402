"""What only the tests use: the matrices of time-frequency shifts, an oracle
for the shift tables, random lattice matrices of known decay, and the column
order that reads a lattice matrix along the graph of a lattice map."""

import numpy as np

from gmlab._lattice import root_of_unity
from gmlab.metaplectic import symp_apply, symp_inverse
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


def graph_columns(chi, N: int) -> np.ndarray:
    """Flat C-order index of chi^-1 z' for each column z' of a lattice matrix;
    chi=None is the identity order.  Column z' of A[:, graph_columns(chi, N)]
    is column chi^-1 z' of A, so its diagonal envelope is A's envelope along
    the graph of chi, max_z |A[chi z + mu, z]|, bit for bit."""
    chi_inv = symp_inverse(np.eye(2, dtype=int) if chi is None else chi, N)
    z = np.unravel_index(np.arange(N * N), (N, N))
    return np.ravel_multi_index(symp_apply(chi_inv, z, N), (N, N))
