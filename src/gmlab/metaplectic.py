"""SL(2, Z_N) for odd N: generator factorizations and unitary models.

Determinant-one 2x2 matrices over Z_N act on phase-space points
z = (k, l).  Each factors into at most nine generators, four at prime N:

    J            (standard rotation [[0, 1], [-1, 0]])
    Chirp(C)     (lower triangular [[1, 0], [C, 1]])
    Dilate(a)    (diagonal [[a^-1, 0], [0, a]], a invertible)

whose unitary counterparts on C^N are the normalized DFT, a quadratic
chirp multiplier, and an index permutation.  Composing the counterparts in
word order yields a unitary that conjugates every shift pi(z) to a
unimodular multiple of pi(chi z); all identities here are projective
(defined up to a global phase).
"""

from __future__ import annotations

import numpy as np

from ._lattice import half_inverse, root_of_unity
from .errors import PHASE_FLOOR

Token = tuple

J_MAT = np.array([[0, 1], [-1, 0]], dtype=int)


def _as_sympmat(chi, N: int) -> np.ndarray:
    """chi as an int array (..., 2, 2), every entry reduced mod N, so that no
    product of two entries wraps."""
    chi = np.asarray(chi, dtype=int)
    if chi.shape[-2:] != (2, 2):
        raise ValueError("symplectic matrix must be 2x2")
    return chi % N


def determinant(chi, N: int):
    """det chi mod N of one matrix, or the array (...) of a stack (..., 2, 2);
    the entries are reduced mod N before they multiply."""
    chi = _as_sympmat(chi, N)
    return (chi[..., 0, 0] * chi[..., 1, 1] - chi[..., 0, 1] * chi[..., 1, 0]) % N


def require_symplectic(chi, N: int) -> np.ndarray:
    """Validate det chi = 1 mod N and return the reduced matrix; a stack
    (..., 2, 2) is checked matrix by matrix, naming the first bad determinant."""
    chi = _as_sympmat(chi, N)
    det = determinant(chi, N)
    if np.any(det != 1):
        raise ValueError(f"determinant {det[det != 1].flat[0]} != 1 mod {N}: not symplectic")
    return chi


def symp_apply(chi, z, N: int) -> tuple:
    """chi . z mod N for z = (k, l); k and l may be broadcasting index arrays,
    and a stack (..., 2, 2) of matrices broadcasts its leading axes with them.
    The entries of chi and z are reduced mod N before they multiply."""
    chi = _as_sympmat(chi, N)
    k, l = z[0] % N, z[1] % N
    a, b, c, d = chi[..., 0, 0], chi[..., 0, 1], chi[..., 1, 0], chi[..., 1, 1]
    return ((a * k + b * l) % N, (c * k + d * l) % N)


def symp_inverse(chi, N: int) -> np.ndarray:
    """Inverse of a determinant-one matrix: [[d, -b], [-c, a]] mod N."""
    chi = require_symplectic(chi, N)
    a, b, c, d = chi[0, 0], chi[0, 1], chi[1, 0], chi[1, 1]
    return np.array([[d, -b], [-c, a]], dtype=int) % N


def _generator(token: Token, N: int):
    """The 2x2 matrix mod N of one generator token, and a function that
    builds its unitary on C^N: the normalized DFT omega^(-s t) / sqrt(N) for
    J, the diagonal chirp omega^(h C t^2) with h = (N+1)/2 for Chirp(C), and
    the permutation f(t) -> f(a t mod N) for Dilate(a); omega = exp(2 pi i / N)
    and every power is read from root_of_unity.  C is reduced mod N first,
    which changes h C t^2 by a multiple of N and keeps it below N^4."""
    kind, t = token[0], np.arange(N)
    if kind == "J":
        return J_MAT % N, lambda: root_of_unity(-np.outer(t, t), N) / np.sqrt(N)
    if kind == "chirp":
        C = int(token[1]) % N
        shear = np.array([[1, 0], [C, 1]], dtype=int)
        return shear, lambda: np.diag(root_of_unity(half_inverse(N) * C * t * t, N))
    if kind == "dilate":
        a = int(token[1]) % N
        if a == 0:
            raise ValueError("Dilate(0) is singular")
        if np.gcd(a, N) != 1:
            raise ValueError(f"dilation factor {a} is not invertible mod {N}")
        dilate = np.array([[pow(a, -1, N), 0], [0, a]], dtype=int) % N
        return dilate, lambda: np.eye(N, dtype=complex)[(a * t) % N]
    raise ValueError(f"unknown generator token {token!r}")


def word_matrix(word, N: int) -> np.ndarray:
    """Product of the generator matrices in word order, reduced mod N."""
    out = np.eye(2, dtype=int)
    for token in word:
        out = (out @ _generator(token, N)[0]) % N
    return out


def factor_generators(chi, N: int) -> list[Token]:
    """Factor a determinant-one matrix into at most nine generator tokens:
    Chirp(c d) Dilate(d) if b = 0, Chirp(d b^-1) J Chirp(a b) Dilate(b) if b
    is a unit (always, at prime N), else the word of chi [[1, k], [0, 1]],
    k least with a k + b a unit (one exists: gcd(a, b, N) = 1), followed by
    J J J Chirp(k) J = [[1, -k], [0, 1]].  Identity tokens are dropped; the
    word multiplies back to chi mod N."""
    a, b, c, d = (int(x) for x in require_symplectic(chi, N).flat)
    k = 0 if b == 0 else next(k for k in range(N) if np.gcd(a * k + b, N) == 1)
    b, d = (a * k + b) % N, (c * k + d) % N
    if b == 0:
        word = [("chirp", c * d % N), ("dilate", d)]
    else:
        word = [("chirp", d * pow(b, -1, N) % N), ("J",), ("chirp", a * b % N), ("dilate", b)]
    word += [("J",), ("J",), ("J",), ("chirp", k), ("J",)] if k else []
    return [token for token in word if token not in (("chirp", 0), ("dilate", 1))]


def build_metaplectic(word, N: int) -> np.ndarray:
    """Unitary operator of a generator word, composed in word order."""
    return build_metaplectic_stack([word], N)[0]


def build_metaplectic_stack(words, N: int) -> np.ndarray:
    """The stack (W, N, N) of the unitaries of W words, each its tokens'
    unitaries (each distinct one built once) multiplied in word order onto
    the identity; the words, and their sequence, may be one-shot iterables."""
    words = [list(word) for word in words]
    tokens = dict.fromkeys(token for word in words for token in word)
    unitaries = {token: _generator(token, N)[1]() for token in tokens}
    out = np.tile(np.eye(N, dtype=complex), (len(words), 1, 1))
    for i, word in enumerate(words):
        for token in word:
            out[i] = out[i] @ unitaries[token]
    return out


def metaplectic_operator(chi, N: int) -> np.ndarray:
    """Unitary of chi via its generator factorization (fixed up to phase)."""
    return build_metaplectic(factor_generators(chi, N), N)


def phase_align(U: np.ndarray, V: np.ndarray):
    """Unimodular c maximizing agreement of U with c V (Frobenius sense), 1
    where |<U, V>_F| <= PHASE_FLOOR ||U||_F ||V||_F; stacks (..., N, N) of U
    and V give the array (...) of phases, one pair a complex scalar."""
    floor = PHASE_FLOOR * np.linalg.norm(U, axis=(-2, -1)) * np.linalg.norm(V, axis=(-2, -1))
    return _phase(np.sum(V.conj() * U, axis=(-2, -1)), floor)[()]


def _phase(inner, floor):
    """inner / |inner| elementwise, 1 where |inner| <= floor."""
    size = np.abs(inner)
    return np.divide(inner, size, out=np.ones_like(inner), where=size > floor)


_BLOCK_BYTES = 2**16  # a block of the sweep: the fewest pairs whose (pairs, N, N, N) arrays reach it


def _worst_defect(chi, U, norm) -> float | np.ndarray:
    """Worst norm(D) over the lattice of D(z) = U pi(z) - c pi(chi z) U, c
    by the rule of phase_align, for a pair or for stacks (see
    intertwine_defect).  Both sides have the Frobenius norm of U, so the
    floor of the phase is PHASE_FLOOR ||U||_F^2 at every z.

    For z = (k, l) and w = chi z, (U pi(z))[r, s] = omega^(l (s + k)) U[r, s + k]
    and (pi(w) U)[r, s] = omega^(w_2 r) U[r - w_1, s], indices mod N, so each
    D is a reindexing of U times roots of unity, with no matrix product.
    One row (k, .) of N points is formed at a time, block by block of
    pairs: a block is the fewest pairs whose (pairs, N, N, N) arrays reach
    _BLOCK_BYTES (one pair once a single one does), so that each numpy call
    of the loop has work enough to pay for itself, and the arrays of a
    block are allocated once.  The tables of a row, chi (k, l) and its
    roots of unity, are built once per k for every pair.  Each pair sees
    the same arithmetic in any block, so the result does not depend on the
    block size.  norm maps a stack (..., N, N) of D to the array (...) of
    their norms.
    """
    U = np.asarray(U, dtype=complex)
    N = U.shape[-1]
    if U.ndim < 2 or U.shape[-2] != N:
        raise ValueError(f"operator of shape {U.shape} is not square")
    chi = require_symplectic(chi, N)
    stack = np.broadcast_shapes(chi.shape[:-2], U.shape[:-2])
    U = np.broadcast_to(U, stack + (N, N)).reshape(-1, N, N)
    chi = np.broadcast_to(chi, stack + (2, 2)).reshape(-1, 1, 2, 2)
    t = np.arange(N)
    floor = PHASE_FLOOR * np.linalg.norm(U, axis=(-2, -1))[:, None] ** 2
    step = -(-_BLOCK_BYTES // (16 * N**3))  # pairs per block, rounded up
    left, right, inner = (np.empty((min(step, len(U)), N, N, N), complex) for _ in range(3))
    norms, worst = np.empty((len(U), N)), np.zeros(len(U))
    flat, pair = U.reshape(-1, N), np.arange(len(U))[:, None, None]  # the rows of all pairs
    for k in range(N):
        cols = (t + k) % N
        shift = root_of_unity(t[:, None] * cols, N)[:, None, :]  # [l, ., s]
        w1, w2 = symp_apply(chi, (k, t), N)  # (pairs, N): chi (k, l) for each l
        rows = np.ravel_multi_index((pair, (t - w1[..., None]) % N), U.shape[:2])  # [pair, l, r]
        roots = root_of_unity(w2[..., None] * t, N)[..., None]  # [pair, l, r, .]
        for i in range(0, len(U), step):
            block = slice(i, i + step)
            L, R, I = (a[:len(rows[block])] for a in (left, right, inner))
            np.multiply(U[block, None, :, cols], shift, out=L)
            # in range, so "clip" changes no index and spares take its buffered copy
            np.take(flat, rows[block], axis=0, out=R, mode="clip")
            R *= roots[block]
            np.conjugate(R, out=I)
            I *= L
            R *= _phase(I.sum(axis=(-2, -1)), floor[block])[..., None, None]
            L -= R  # D(k, l) for each l
            norms[block] = norm(L)
        np.maximum(worst, norms.max(axis=-1), out=worst)
    worst = worst.reshape(stack)
    return worst if worst.ndim else float(worst)


def intertwine_defect(chi, U: np.ndarray) -> float | np.ndarray:
    """Worst-case deviation of U pi(z) from a phase times pi(chi z) U.

    Sweeps every z in the N x N lattice, one row (k, .) of N points at a
    time; for each z, the phase c is chosen optimally (phase_align) before
    taking the operator norm of U pi(z) - c pi(chi z) U.  For unitary U this
    is the deviation of U pi(z) U^-1 from c pi(chi z), and scaling U by a
    scalar a scales the defect by |a|.  Stacks chi (..., 2, 2) and U
    (..., N, N) are checked pair by pair in the same sweep, their leading
    axes broadcast together: the result is the array (...) of worst
    defects, and one pair gives a float.  N is read from U, which must be
    square.  Extra memory is one block of the sweep, three complex arrays
    of about _BLOCK_BYTES each (of one pair, O(N^3), when that is more),
    and the (stack, N, N) tables of a row; the N^2 operator norms per pair
    are singular value decompositions, O(N^5) in all.
    """
    return _worst_defect(chi, U, lambda D: np.linalg.norm(D, 2, axis=(-2, -1)))


def intertwine_bound(chi, U: np.ndarray) -> float | np.ndarray:
    """Upper bound on intertwine_defect, with its stack semantics: the worst
    sqrt(||D||_1 ||D||_inf) over the same defects D, which is at least
    ||D||_2 and at most sqrt(N) ||D||_2, so a check of the bound can only be
    stricter than one of the defect.  Both norms are sums of |D|, O(N^4)
    per pair in all.
    """

    def norm(D):
        size = np.abs(D)
        return np.sqrt(size.sum(axis=-2).max(axis=-1) * size.sum(axis=-1).max(axis=-1))

    return _worst_defect(chi, U, norm)
