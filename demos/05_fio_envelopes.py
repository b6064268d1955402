"""Envelope calculus for twisted operators: compose, invert, factorize.

An operator T paired with a lattice map chi has a least dominating
envelope along the graph of chi.  Products stay concentrated for the
composed map, inverses for the inverse map, and T always splits as a
Weyl operator times the metaplectic unitary of chi.
"""

import numpy as np

import gmlab as g
from gmlab import QParams
from gmlab.presets import gaussian_bump_symbol
from gmlab.verify import random_sympmat

N = 11
p = QParams(0.8, 1.0)
sys = g.gabor_system(g.gaussian_window(N))
rng = np.random.default_rng(4)

chi1, chi2 = random_sympmat(rng, N), random_sympmat(rng, N)
bump = gaussian_bump_symbol(N)
s1 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * bump
s2 = 1.0 + 0.25 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * bump
T1 = g.weyl_quantize(s1) @ g.metaplectic_operator(chi1, N)
T2 = g.weyl_quantize(s2) @ g.metaplectic_operator(chi2, N)

rep1 = g.fio_report(g.envelope(T1, chi1, sys), p)
rep2 = g.fio_report(g.envelope(T2, chi2, sys), p)
print(f"T1: quasi-norm {rep1.quasi_norm:.4f}, tail {rep1.tail_fraction:.4f}, "
      f"decay exponent {rep1.decay_exponent:.2f}")
print(f"T2: quasi-norm {rep2.quasi_norm:.4f}, tail {rep2.tail_fraction:.4f}")

# Composition concentrates along the product map
rep12, ratio, _ = g.compose_check(T1, chi1, T2, chi2, sys, p)
print(f"\nT1 T2 vs chi1 chi2:    quasi-norm {rep12.quasi_norm:7.3f}, "
      f"decay exponent {rep12.decay_exponent:+.3f}")

# ... and along the wrong map it does not
wrong = g.fio_report(g.envelope(T1 @ T2, np.eye(2, dtype=int), sys), p)
print(f"T1 T2 vs identity map: quasi-norm {wrong.quasi_norm:7.3f}, "
      f"decay exponent {wrong.decay_exponent:+.3f} (flat: wrong map)")

# Inversion concentrates along the inverse map
Tinv, rep_inv, _ = g.invert_fio(T1, chi1, sys, p)
print(f"\nT1^-1 vs chi1^-1: tail {rep_inv.tail_fraction:.4f} "
      f"(forward was {rep1.tail_fraction:.4f})")

# Factorization through the metaplectic unitary is exact
sigma1, sigma2, res = g.factorize_fio(T1, chi1)
print(f"\nT = Op(sigma1) U residual: {res['op_then_mu']:.3e}")
print(f"T = U Op(sigma2) residual: {res['mu_then_op']:.3e}")
print(f"modulus defect between sigma2 and sigma1 o chi: "
      f"{res['egorov_modulus_defect']:.3e}")
