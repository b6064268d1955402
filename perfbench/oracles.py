"""Reference mathematics the benchmark checks gmlab's outputs against.

Everything here is written from the defining formulas, not from gmlab's
code, and imports numpy only:

    pi(k, l) f(t) = exp(2 pi i l t / N) f(t - k)            time-frequency shift
    gamma = g / sqrt(N ||g||^2)                               Parseval window
    Op(sigma) K(x, y) = (1/N) sum_xi sigma(h(x+y), xi) w^{xi (x-y)},  h = (N+1)/2
    h_T(mu) = max_z |<T pi(z) gamma, pi(chi z + mu) gamma>|   envelope

Arrays on the lattice Z_N x Z_N are indexed [k % N, l % N].
"""

from __future__ import annotations

import numpy as np


def omega(N: int, e) -> np.ndarray:
    return np.exp(2j * np.pi * (np.asarray(e) % N) / N)


def centered(idx, N: int) -> np.ndarray:
    return ((np.asarray(idx) + N // 2) % N) - N // 2


def radius(N: int) -> np.ndarray:
    c = centered(np.arange(N), N).astype(float)
    return np.hypot(c[:, None], c[None, :])


def parseval(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=complex)
    return g / np.sqrt(g.shape[0] * np.sum(np.abs(g) ** 2))


def shift(k: int, l: int, f: np.ndarray) -> np.ndarray:
    N = f.shape[0]
    t = np.arange(N)
    return omega(N, l * t) * f[(t - k) % N]


def shift_matrix(k: int, l: int, N: int) -> np.ndarray:
    t = np.arange(N)
    return omega(N, l * t)[:, None] * (((t[:, None] - t[None, :]) % N) == k % N)


def weyl_operator(sigma: np.ndarray) -> np.ndarray:
    """Op(sigma) from its kernel formula, with an explicit DFT matrix."""
    sigma = np.asarray(sigma, dtype=complex)
    N = sigma.shape[0]
    h = (N + 1) // 2
    xi = np.arange(N)
    C = sigma @ omega(N, np.outer(xi, xi)) / N  # C[a, d] = (1/N) sum_xi sigma[a, xi] w^{xi d}
    x = np.arange(N)[:, None]
    y = np.arange(N)[None, :]
    return C[(h * (x + y)) % N, (x - y) % N]


def symmetric_shift(k: int, l: int, N: int) -> np.ndarray:
    """W(k, l) = w^{-h k l} pi(k, l); W(a) W(b) = w^{-h [a, b]} W(a + b)."""
    h = (N + 1) // 2
    return omega(N, -h * k * l) * shift_matrix(k, l, N)


def metaplectic(chi: np.ndarray, N: int, seed: int = 0) -> np.ndarray:
    """A unitary U with U W(z) U^* = W(chi z) for every z.

    The twirl X -> sum_z W(chi z) X W(z)^* maps any matrix into the space of
    such intertwiners, which is one-dimensional because the representation
    is irreducible; a random X lands on a nonzero multiple of U.  Entry
    (t, u) of W(a) X W(z)^* is
    w^{-h k_a l_a + h k l + l_a t - l u} X[t - k_a, u - k].
    """
    chi = np.asarray(chi, dtype=int) % N
    h = (N + 1) // 2
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    t = np.arange(N)
    l = np.arange(N)
    U = np.zeros((N, N), dtype=complex)
    for k in range(N):
        ka = (chi[0, 0] * k + chi[0, 1] * l) % N  # [l]
        la = (chi[1, 0] * k + chi[1, 1] * l) % N
        phase = omega(N, -h * ka * la + h * k * l)  # [l]
        left = omega(N, la[:, None] * t[None, :])  # [l, t]
        right = omega(N, -l[:, None] * t[None, :])  # [l, u]
        Xs = X[(t[None, :, None] - ka[:, None, None]) % N, ((t - k) % N)[None, None, :]]
        U += np.einsum("l,lt,ltu,lu->tu", phase, left, Xs, right)
    U /= np.sqrt(np.trace(U @ U.conj().T).real / N)
    for k, l in ((1, 0), (0, 1)):
        a = chi @ np.array([k, l])
        lhs = U @ symmetric_shift(k, l, N) @ U.conj().T
        if np.linalg.norm(lhs - symmetric_shift(a[0], a[1], N)) > 1e-8:
            raise ArithmeticError("twirled matrix is not a metaplectic intertwiner")
    return U


def shift_bank(gamma: np.ndarray) -> np.ndarray:
    """P[t, k, l] = pi(k, l) gamma (t)."""
    N = gamma.shape[0]
    t = np.arange(N)
    return omega(N, t[:, None, None] * t[None, None, :]) * gamma[(t[:, None] - t[None, :]) % N][:, :, None]


def stft_bank(u: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """V[c, k, l] = <u[:, c], pi(k, l) gamma> = sum_t u(t) conj(gamma(t - k)) w^{-l t}."""
    N = gamma.shape[0]
    t = np.arange(N)
    win = np.conj(gamma[(t[None, :] - t[:, None]) % N])  # win[k, t] = conj(gamma(t - k))
    return (u.T[:, None, :] * win[None, :, :]) @ omega(N, -np.outer(t, t))


def envelope(T: np.ndarray, chi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """h(mu) = max_z |<T pi(z) gamma, pi(chi z + mu) gamma>|, one row of z at a time."""
    N = gamma.shape[0]
    chi = np.asarray(chi, dtype=int) % N
    P = shift_bank(gamma)
    mu = np.arange(N)
    l = np.arange(N)
    h = np.zeros((N, N))
    for k in range(N):
        V = np.abs(stft_bank(T @ P[:, k, :], gamma))  # V[l, k', l'] for z = (k, l)
        ck = (chi[0, 0] * k + chi[0, 1] * l) % N
        cl = (chi[1, 0] * k + chi[1, 1] * l) % N
        rows = (ck[:, None, None] + mu[None, :, None]) % N
        cols = (cl[:, None, None] + mu[None, None, :]) % N
        h = np.maximum(h, V[l[:, None, None], rows, cols].max(axis=0))
    return h


def gabor_gram(gamma: np.ndarray) -> np.ndarray:
    """P^H P with P[:, k N + l] = pi(k, l) gamma: the Gabor matrix of the identity."""
    N = gamma.shape[0]
    P = shift_bank(gamma).reshape(N, N * N)
    return P.conj().T @ P


def ambiguity(gamma: np.ndarray) -> np.ndarray:
    """|<gamma, pi(mu) gamma>|: the envelope of the identity operator."""
    N = gamma.shape[0]
    return np.array(
        [[abs(np.vdot(shift(k, l, gamma), gamma)) for l in range(N)] for k in range(N)]
    )


def twisted_convolution(h1: np.ndarray, chi1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """sum_nu h1(mu - chi1 nu) h2(nu), the envelope bound for a product."""
    N = h1.shape[0]
    chi1 = np.asarray(chi1, dtype=int) % N
    out = np.zeros((N, N))
    for a in range(N):
        for b in range(N):
            if h2[a, b] == 0.0:
                continue
            s = chi1 @ np.array([a, b])
            out += h2[a, b] * np.roll(h1, (s[0], s[1]), axis=(0, 1))
    return out


def envelope_stats(h: np.ndarray, q: float, s: float) -> tuple[float, float]:
    """(weighted lq quasi-norm, q-mass fraction beyond |mu| > N/4)."""
    N = h.shape[0]
    r = radius(N)
    mass = h**q * (1.0 + r) ** (s * q)
    total = float(mass.sum())
    return total ** (1.0 / q), float(mass[r > N / 4.0].sum()) / total


def sequence_array(entries: list, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense box of a wire-format sequence and the index of its corner."""
    idx = np.array([e[0] for e in entries], dtype=int).reshape(-1, dim)
    lo = idx.min(axis=0)
    arr = np.zeros(tuple(idx.max(axis=0) - lo + 1), dtype=complex)
    for (n, re, im), i in zip(entries, idx - lo):
        arr[tuple(i)] += complex(re, im)
    return arr, lo


def sequence_residual_l1(a_entries: list, b_entries: list, dim: int) -> float:
    """||a * b - delta||_1 by direct multiply-add of shifted copies of b."""
    a, alo = sequence_array(a_entries, dim)
    b, blo = sequence_array(b_entries, dim)
    out = np.zeros(tuple(np.array(a.shape) + np.array(b.shape) - 1), dtype=complex)
    for i in np.argwhere(a != 0):
        sl = tuple(slice(int(j), int(j) + n) for j, n in zip(i, b.shape))
        out[sl] += a[tuple(i)] * b
    origin = tuple(-(alo + blo))
    if all(0 <= o < n for o, n in zip(origin, out.shape)):
        out[origin] -= 1.0
        return float(np.abs(out).sum())
    return float(np.abs(out).sum()) + 1.0
