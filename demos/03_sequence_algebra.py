"""The weighted lq convolution quasi-algebra and its two inversion routes.

For 0 < q <= 1 the quasi-norm is submultiplicative under convolution with
constant one, delta - x inverts by a Neumann series with an explicit
geometric tail, and a general sequence inverts iff its Fourier series
never vanishes.
"""

import numpy as np

import gmlab as g
from gmlab import QParams, SparseSeq

p = QParams(0.5, 1.0)
rng = np.random.default_rng(2)
delta = SparseSeq.delta(1)

# Algebra property on a random pair
a = SparseSeq(1, {(0,): 1.0, (1,): 0.5j, (-2,): 0.25})
b = SparseSeq(1, {(0,): 2.0, (3,): -1.0})
print(f"||a*b|| = {g.qnorm(g.convolve(a, b), p):.6f} <= "
      f"||a|| ||b|| = {g.qnorm(a, p) * g.qnorm(b, p):.6f}")

# Neumann inversion of delta - x with the closed-form tail
x = 0.4 * SparseSeq.unit(1)
inv = g.neumann_inverse(x, p, tol=1e-12)
print(f"\n(delta - 0.4 shift)^-1 coefficients: "
      f"{[round(inv[(n,)].real, 6) for n in range(6)]} ...")
resid = g.qnorm(g.convolve(delta - x, inv) - delta, p)
print(f"residual in quasi-norm: {resid:.3e}")
nx = g.qnorm(x, p)
print(f"tail bound ||s - delta - x|| <= {g.neumann_tail_bound(nx, p.q, 1):.6f}, "
      f"actual {g.qnorm(inv - delta - x, p):.6f}")

# Fourier-series inversion: works iff F a has no zeros
a = delta - 0.5 * SparseSeq.unit(1)
print(f"\nF a at 0: {g.fourier_series_eval(a, 0.0):.3f}")
res = g.invert_by_fourier(a, grid=4096)
print(f"inverse support {len(res.seq)}, l1 residual {res.residual:.3e}, "
      f"decay rate {res.decay_rate:.6f} (log 2 = {np.log(2):.6f})")

bad = delta - SparseSeq.unit(1)
try:
    g.invert_by_fourier(bad)
except g.VanishingFourierError as exc:
    print(f"rejected as expected: {exc}")
