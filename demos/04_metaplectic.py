"""Metaplectic unitaries of SL(2, Z_N): factorization and intertwining.

Every determinant-one matrix over Z_N (N odd) factors into at most nine
generators, four when N is prime; the composed unitary conjugates each
lattice shift pi(z) to a phase times pi(chi z).
"""

import numpy as np

import gmlab as g

N = 11
sys = g.gabor_system(g.gaussian_window(N))
rng = np.random.default_rng(3)

chi = np.array([[3, 5], [4, 7]])  # det = 1 mod 11
word = g.factor_generators(chi, N)
print("factorization of", chi.tolist(), "->", word)
print("product check:", np.array_equal(g.word_matrix(word, N), chi % N))

U = g.build_metaplectic(word, N)
print(f"unitarity defect: {np.linalg.norm(U.conj().T @ U - np.eye(N), 2):.3e}")
print(f"intertwining defect over all {N * N} lattice points: "
      f"{g.intertwine_defect(chi, U):.3e}")

# Two different factorizations agree up to a global phase
from gmlab.metaplectic import J_MAT

word2 = g.factor_generators((chi @ g.symp_inverse(J_MAT, N)) % N, N) + [("J",)]
U2 = g.build_metaplectic(word2, N)
c = g.phase_align(U, U2)
print(f"\nalternative word {word2}")
print(f"projective agreement (|c| = {abs(c):.12f}): "
      f"{np.max(np.abs(U - c * U2)):.3e}")

# The envelope of U relative to chi is one reproducing-kernel bump
env = g.envelope(U, chi, sys)
gamma = sys.parseval_window
print(f"\nenvelope equals |V(U gamma)|: "
      f"{np.max(np.abs(env.values - np.abs(g.stft(U @ gamma, gamma)))):.3e}")
