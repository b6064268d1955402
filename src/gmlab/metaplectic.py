"""SL(2, Z_N) for odd prime N: generator factorizations and unitary models.

Determinant-one 2x2 matrices over Z_N act on phase-space points
z = (k, l).  Each factors into at most four generators

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

from .phase_space import tf_shift_matrix
from .weyl import half_inverse

Token = tuple

J_MAT = np.array([[0, 1], [-1, 0]], dtype=int)


def _as_sympmat(chi) -> np.ndarray:
    chi = np.asarray(chi, dtype=int)
    if chi.shape[-2:] != (2, 2):
        raise ValueError("symplectic matrix must be 2x2")
    return chi


def require_odd_prime(N: int) -> None:
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be an odd prime, got {N}")
    for p in range(3, int(N**0.5) + 1, 2):
        if N % p == 0:
            raise ValueError(f"modulus must be an odd prime, got {N}")


def require_symplectic(chi, N: int) -> np.ndarray:
    """Validate det chi = 1 mod N and return the reduced matrix; a stack
    (..., 2, 2) is checked matrix by matrix, naming the first bad determinant."""
    chi = _as_sympmat(chi) % N
    det = (chi[..., 0, 0] * chi[..., 1, 1] - chi[..., 0, 1] * chi[..., 1, 0]) % N
    if np.any(det != 1):
        raise ValueError(f"determinant {det[det != 1].flat[0]} != 1 mod {N}: not symplectic")
    return chi


def symp_apply(chi, z, N: int) -> tuple:
    """chi . z mod N for z = (k, l); k and l may be broadcasting index arrays,
    and a stack (..., 2, 2) of matrices broadcasts its leading axes with them."""
    chi = _as_sympmat(chi)
    k, l = z
    a, b, c, d = chi[..., 0, 0], chi[..., 0, 1], chi[..., 1, 0], chi[..., 1, 1]
    return ((a * k + b * l) % N, (c * k + d * l) % N)


def symp_inverse(chi, N: int) -> np.ndarray:
    """Inverse of a determinant-one matrix: [[d, -b], [-c, a]] mod N."""
    chi = require_symplectic(chi, N)
    a, b, c, d = chi[0, 0], chi[0, 1], chi[1, 0], chi[1, 1]
    return np.array([[d, -b], [-c, a]], dtype=int) % N


def _generator(token: Token, N: int):
    """The 2x2 matrix mod N of one generator token, and a function that
    builds its unitary on C^N: the normalized DFT for J, the diagonal chirp
    exp(2 pi i h C t^2 / N) with h = (N+1)/2 for Chirp(C), and the
    permutation f(t) -> f(a t mod N) for Dilate(a)."""
    kind, t = token[0], np.arange(N)
    if kind == "J":
        return J_MAT % N, lambda: np.exp(-2j * np.pi * np.outer(t, t) / N) / np.sqrt(N)
    if kind == "chirp":
        C = int(token[1])  # unreduced in the exponent, as given
        shear = np.array([[1, 0], [C, 1]], dtype=int) % N
        return shear, lambda: np.diag(np.exp(2j * np.pi * half_inverse(N) * C * t * t / N))
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
    return out % N


def factor_generators(chi, N: int) -> list[Token]:
    """Factor a determinant-one matrix into at most four generator tokens.

    If the upper-right entry b is zero the matrix is lower triangular and
    equals Chirp(c d) Dilate(d); otherwise b is invertible (N prime) and

        chi = Chirp(d b^-1) . J . Chirp(a b) . Dilate(b).

    Identity tokens are dropped, so the identity matrix yields the empty
    word.  The product of the returned word equals chi exactly mod N.
    """
    require_odd_prime(N)
    chi = require_symplectic(chi, N)
    a, b, c, d = int(chi[0, 0]), int(chi[0, 1]), int(chi[1, 0]), int(chi[1, 1])
    word: list[Token] = []
    if b % N == 0:
        C = (c * d) % N
        if C:
            word.append(("chirp", C))
        if d % N != 1:
            word.append(("dilate", d % N))
    else:
        binv = pow(b, -1, N)
        C1 = (d * binv) % N
        C2 = (a * b) % N
        if C1:
            word.append(("chirp", C1))
        word.append(("J",))
        if C2:
            word.append(("chirp", C2))
        if b % N != 1:
            word.append(("dilate", b % N))
    return word


def build_metaplectic(word, N: int) -> np.ndarray:
    """Unitary operator of a generator word, composed in word order."""
    require_odd_prime(N)
    U = np.eye(N, dtype=complex)
    for token in word:
        U = U @ _generator(token, N)[1]()
    return U


def metaplectic_operator(chi, N: int) -> np.ndarray:
    """Unitary of chi via its generator factorization (fixed up to phase)."""
    return build_metaplectic(factor_generators(chi, N), N)


def phase_align(U: np.ndarray, V: np.ndarray):
    """Unimodular c maximizing agreement of U with c V (Frobenius sense), 1
    where U is orthogonal to V; stacks (..., N, N) of U and V give the
    array (...) of phases, one pair a complex scalar."""
    inner = np.trace(V.conj().swapaxes(-2, -1) @ U, axis1=-2, axis2=-1)
    size = np.abs(inner)
    return np.divide(inner, size, out=np.ones_like(inner), where=size != 0)[()]


def intertwine_defect(chi, U: np.ndarray) -> float | np.ndarray:
    """Worst-case deviation of U pi(z) U^-1 from a phase times pi(chi z).

    Sweeps every z in the N x N lattice, one row (k, .) of N points at a
    time; for each z, the unimodular phase is chosen optimally
    (phase_align) before taking the operator-norm deviation.  U must be
    unitary.  Stacks chi (..., 2, 2) and U (..., N, N) are checked pair by
    pair in the same sweep, their leading axes broadcast together: the
    result is the array (...) of worst defects, and one pair gives a float.
    N is read from U, which must be square.  Extra memory is O(stack N^3).
    """
    U = np.asarray(U, dtype=complex)
    N = U.shape[-1]
    if U.ndim < 2 or U.shape[-2] != N:
        raise ValueError(f"operator of shape {U.shape} is not square")
    chi = require_symplectic(chi, N)
    if np.any(np.linalg.norm(U.conj().swapaxes(-2, -1) @ U - np.eye(N), 2, axis=(-2, -1)) > 1e-8):
        raise ValueError("operator is not unitary")
    U = U[..., None, :, :]  # against the row axis of the N shifts pi(k, l)
    Uh = U.conj().swapaxes(-2, -1)
    chi = chi[..., None, :, :]
    l = np.arange(N)
    worst = np.zeros(np.broadcast_shapes(chi.shape[:-3], U.shape[:-3]))
    for k in range(N):
        conj = U @ tf_shift_matrix((k, l), N) @ Uh
        target = tf_shift_matrix(symp_apply(chi, (k, l), N), N)
        c = phase_align(conj, target)[..., None, None]
        defect = np.linalg.norm(conj - c * target, 2, axis=(-2, -1))
        worst = np.maximum(worst, defect.max(axis=-1))
    return worst if worst.ndim else float(worst)
