"""The inverse lift and the embedding harness.

The lift maps a distribution of positive regularity to its generalized
Taylor field through polynomially corrected averaging kernels; composing
with reconstruction returns the input (here to ~1e-7 on a band-limited
fixture).  The embedding harness then compares averaged-space norms across
exponent configurations.

Run:  python demos/lift_and_embeddings_demo.py
"""

import numpy as np

from rsbesov import Scaling, build_wavelet, synthesize
from rsbesov.embeddings import EmbeddingCase, ell_embed, embed_sweep
from rsbesov.modelled import AveragedMD
from rsbesov.reconstruction import lift
from rsbesov.structures import polynomial_structure

sc = Scaling((1,))
fam = build_wavelet(6, 2)
N = 10

print("lifting a band-limited distribution at gamma = 2.5")
pyr = synthesize(
    "smooth", sc, N, fam,
    func=lambda p: np.sin(2 * np.pi * p[..., 0]) + 0.3 * np.cos(6 * np.pi * p[..., 0]),
)
for n in (N - 2, N - 1):
    pyr.details[n][:] = 0.0
f, rep = lift(pyr, 2.5, 2.0, np.inf, fam, check_roundtrip=True)
st = f.structure
x = sc.grid_points(N)[..., 0]
truth = 2 * np.pi * np.cos(2 * np.pi * x) - 1.8 * np.pi * np.sin(6 * np.pi * x)
err1 = np.max(np.abs(f.values[:, st.index("X^1")] - truth)) / np.max(np.abs(truth))
print(f"  first Taylor coefficient error: {err1:.2e}")
print(f"  reconstruct(lift(xi)) relative error: {rep.roundtrip_rel_error:.2e}")

print("\nsequence-space inequality at the critical exponent (single point)")
u = np.zeros(2**5)
u[7] = 1.0
lhs, rhs = ell_embed(u, 5, sc, 2.0, 0.8, np.inf, 0.8 - 0.5)
print(f"  lhs = {lhs:.12f}   rhs = {rhs:.12f}")

print("\nembedding cases on a random graded field, gamma = 1.3")
gamma = 1.3
rng = np.random.default_rng(3)
st, model = polynomial_structure(gamma, sc, fam, 8)
levels, prev = [], None
for n in range(9):
    if prev is None:
        lv = rng.uniform(-1, 1, (1, st.dim))
    else:
        decay = np.array([2.0 ** (-n * (gamma - s.zeta)) for s in st.symbols])
        lv = np.repeat(prev, 2, axis=0) + rng.uniform(-1, 1, (2**n, st.dim)) * decay
    levels.append(lv)
    prev = lv
fbar = AveragedMD(st, gamma, 8, levels)
cases = [
    EmbeddingCase(1, gamma, 2.0, 2.0, gamma, 2.0, np.inf),
    EmbeddingCase(2, gamma, 2.0, 2.0, gamma - 0.45, 2.0, 2.0),
    EmbeddingCase(3, gamma, 2.0, 2.0, gamma, 1.0, 2.0),
    EmbeddingCase(4, gamma, 2.0, np.inf, gamma - 0.51, np.inf, np.inf),
]
for case, r in zip(cases, embed_sweep(fbar, model, cases)):
    print(
        f"  case {case.case}: ({case.gamma}, {case.p}, {case.q}) -> "
        f"({case.gamma_t:.2f}, {case.p_t}, {case.q_t})  ratio {r.ratio:.3f}"
    )
