import math
from functools import cache

import numpy as np
import pytest
from hypothesis import settings

from rsbesov import besov, build_wavelet, polynomial_structure, schauder, structures
from rsbesov.modelled import ModelledDistribution
from rsbesov.scaling import Scaling

TWO_PI = 2.0 * np.pi

# property tests draw the same examples on every run, with a bounded count
settings.register_profile("rsbesov", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("rsbesov")


@pytest.fixture(scope="session")
def sc1():
    return Scaling((1,))


@pytest.fixture(scope="session")
def sc21():
    return Scaling((2, 1))


@pytest.fixture(scope="session")
def fam6():
    return build_wavelet(6, 2)


@pytest.fixture(scope="session")
def fam4():
    return build_wavelet(4, 1)


@pytest.fixture(scope="session")
def fam9():
    return build_wavelet(9, 3)


def make_sin_lift(sc, fam, N, gamma=2.5):
    """f_k = d^k sin(2 pi x) / k! on the polynomial structure."""
    st, model = polynomial_structure(gamma, sc, fam, N)
    pts = sc.grid_points(N)[..., 0]
    vals = np.zeros((*sc.grid_shape(N), st.dim))
    vals[..., st.index("1")] = np.sin(TWO_PI * pts)
    vals[..., st.index("X^1")] = TWO_PI * np.cos(TWO_PI * pts)
    if gamma > 2:
        vals[..., st.index("X^2")] = -(TWO_PI**2) * np.sin(TWO_PI * pts) / 2.0
    return st, model, ModelledDistribution(st, gamma, N, vals)


def make_sincos_jet(sc, fam, N, gamma=2.5):
    """f_k = d^k [sin(2 pi u_0) cos(2 pi u_1)] / k! on the polynomial structure
    of a two-axis scaling."""
    st, model = polynomial_structure(gamma, sc, fam, N)
    pts = sc.grid_points(N)
    vals = np.zeros((*sc.grid_shape(N), st.dim))
    for i, sym in enumerate(st.symbols):
        k0, k1 = sym.k
        d0 = TWO_PI**k0 * np.sin(TWO_PI * pts[..., 0] + k0 * np.pi / 2)
        d1 = TWO_PI**k1 * np.cos(TWO_PI * pts[..., 1] + k1 * np.pi / 2)
        vals[..., i] = d0 * d1 / (math.factorial(k0) * math.factorial(k1))
    return st, model, ModelledDistribution(st, gamma, N, vals)


@pytest.fixture(scope="session")
def sin_setup_n8(sc1, fam6):
    return make_sin_lift(sc1, fam6, 8)


@pytest.fixture(scope="session")
def sin_setup_n10(sc1, fam6):
    return make_sin_lift(sc1, fam6, 10)


# model kinds: structure and scaling; "-1" is s=(1) with order 6, "-21" is
# s=(2,1) with order 4 (the extended model exists at d=1 only)
MODEL_KINDS = ["poly-1", "poly-21", "noise-1", "noise-21", "extended-1"]


@cache
def make_model(kind, N):
    """The polynomial (gamma 2.5), noise (alpha -0.5, gamma 1.25) or extended
    (Riesz beta 0.7) model of one kind at resolution N."""
    if kind.endswith("-1"):
        sc, fam = Scaling((1,)), build_wavelet(6, 2)
    else:
        sc, fam = Scaling((2, 1)), build_wavelet(4, 1)
    if kind.startswith("poly"):
        return structures.polynomial_structure(2.5, sc, fam, N)[1]
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=-0.5, seed=5)
    st, model = structures.noise_structure(-0.5, xi, 1.25, fam)
    if kind.startswith("noise"):
        return model
    K = schauder.decompose_kernel("riesz", sc, r=3, beta=0.7)
    return schauder.extend_structure(st, model, K, 1.25)[1]
