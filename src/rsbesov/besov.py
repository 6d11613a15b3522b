"""Besov norms of coefficient pyramids, test-function norms, mollification,
and synthesis of reference distributions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import mra
from .pyramid import CoeffPyramid
from .scaling import Scaling
from .util import check_exponent, lq_aggregate, tail_slope


@dataclass(frozen=True)
class BesovParams:
    alpha: float
    p: float
    q: float
    r: int

    def __post_init__(self):
        check_exponent(self.p)
        check_exponent(self.q)
        if self.r <= abs(self.alpha):
            raise ValueError("need r > |alpha|")


def lpn_norm(u: np.ndarray, n: int, p, scaling: Scaling):
    """(sum_x 2^(-n|s|) |u(x)|^p)^(1/p); sup over the grid when p = inf.

    Leading axes before the grid axes stack grids; then the result is an
    array over them, each entry the bits of the norm of its own grid."""
    u = np.asarray(u, dtype=float)
    k = u.ndim - scaling.d
    if k < 0 or u.shape[k:] != scaling.grid_shape(n):
        raise ValueError("sequence not defined on the whole level-n grid")
    p = check_exponent(p)
    # one row per grid, so each row sums in the pairwise order of a flat sum
    rows = np.abs(u.reshape(-1, math.prod(u.shape[k:])))
    if math.isinf(p):
        norms = rows.max(axis=1)
    else:
        sums = 2.0 ** (-n * scaling.total) * np.sum(rows**p, axis=1)
        # the root on scalars: numpy's vector pow may round differently
        norms = np.array([s ** (1.0 / p) for s in sums])
    return float(norms[0]) if k == 0 else norms.reshape(u.shape[:k])


@dataclass
class BesovReport:
    """Wavelet-side norm with its per-level diagnostics table."""

    value: float
    base_term: float
    level_terms: np.ndarray  # shape (N, n_psi): ||a/2^{-n|s|/2-n alpha}||_{l^p_n}
    alpha: float
    p: float
    q: float

    def level_max(self) -> np.ndarray:
        return self.level_terms.max(axis=1)

    def rows(self):
        for n in range(self.level_terms.shape[0]):
            for j in range(self.level_terms.shape[1]):
                yield (n, j, self.level_terms[n, j])


def level_norms(arrays, alpha: float, p, scaling: Scaling) -> np.ndarray:
    """Per level n: ||a_n / 2^{-n(|s|/2 + alpha)}||_{l^p_n} of a_n = arrays[n],
    one entry per leading row of a_n (`lpn_norm`'s stacked rows)."""
    return np.array(
        [
            lpn_norm(a / 2.0 ** (-n * scaling.total / 2.0 - n * alpha), n, p, scaling)
            for n, a in enumerate(arrays)
        ]
    )


def besov_norm_wavelet(pyr: CoeffPyramid, params: BesovParams) -> BesovReport:
    """Equivalent wavelet norm: base l^p plus sup_psi l^q-over-levels of the
    rescaled detail l^p norms."""
    if pyr.N < 1:
        raise ValueError("pyramid must carry at least one detail level")
    base = lpn_norm(pyr.base, 0, params.p, pyr.scaling)
    terms = level_norms(pyr.details, params.alpha, params.p, pyr.scaling)
    detail = max(lq_aggregate(col, params.q) for col in terms.T)
    return BesovReport(base + detail, base, terms, params.alpha, params.p, params.q)


def critical_exponent(pyr: CoeffPyramid, p) -> float:
    """Largest alpha with level-bounded wavelet norm at q = inf.

    The level term scales like 2^{n(alpha - alpha_crit)}, so the critical
    exponent is read off the decay slope of the unweighted level norms over
    the last five levels (NaN without a detail level).
    """
    # reshaped, since at N = 0 the empty table has no psi axis to reduce
    table = level_norms(pyr.details, 0.0, p, pyr.scaling).reshape(pyr.N, pyr.n_psi)
    return -tail_slope(table.max(axis=1), 5)


# ---------------------------------------------------------------------------
# test-function dictionary


def bspline_bump(order: int) -> an.PiecewisePoly:
    """Iterated self-convolution of the indicator, supported on [-1, 1]: the
    B-spline on order + 1 equally spaced knots, summing to one over its
    translates.  On piece i, with y = order (x + 1) / 2 in [i, i + 1),
    B = sum_{j<=i} (-1)^j C(order, j) (y - j)^(order-1) / (order-1)!:
    an integer table in powers of y - i and the scale 1 / (order-1)!.
    """
    n = order
    coeffs = [
        [
            math.comb(n - 1, k)
            * sum((-1) ** j * math.comb(n, j) * (i - j) ** (n - 1 - k) for j in range(i + 1))
            for k in range(n)
        ]
        for i in range(n)
    ]
    table = np.array(coeffs, dtype=float)
    return an.PiecewisePoly(-1.0, n / 2, table, 1.0 / math.factorial(n - 1))


def _cr_bound(fn: an.PiecewisePoly, r: int) -> float:
    """Numeric proxy for the C^r norm: max over derivative orders 0..r of the
    sup norm on 4096 points, derivatives by repeated central differences."""
    lo, hi = fn.support
    pad = (hi - lo) * 0.05
    u = np.linspace(lo - pad, hi + pad, 4096)
    h = u[1] - u[0]
    vals = fn(u)
    worst = float(np.max(np.abs(vals)))
    cur = vals
    for _ in range(r):
        cur = np.gradient(cur, h)
        worst = max(worst, float(np.max(np.abs(cur))))
    return worst


@dataclass
class Profile:
    """One dictionary element: identical smooth factor in every dimension."""

    name: str
    beta: int  # annihilates scaled degree <= beta; -1 means none
    factor: an.PiecewisePoly
    moments: dict = field(default_factory=dict, repr=False)
    kernels: dict = field(default_factory=dict, repr=False, compare=False)

    def moment(self, a: int) -> float:
        if a not in self.moments:
            self.moments[a] = an.kernel_moment_1d(self.factor, a)
        return self.moments[a]

    def kernel_coeffs(
        self, fam: mra.WaveletFamily, scaling: Scaling, scale_n: int, N: int
    ) -> np.ndarray:
        """V_N coefficients of eta^lambda_0, lambda = 2^-scale_n, analyzed once
        per (family taps, s, scale_n, N) and returned read-only."""
        key = (fam.h.tobytes(), tuple(scaling.s), scale_n, N)
        if key not in self.kernels:
            k = an.analyze_kernel(profile_kernel(self, scaling, scale_n), fam, scaling, N)
            k.flags.writeable = False
            self.kernels[key] = k
        return self.kernels[key]


@dataclass
class TestDictionary:
    r: int
    profiles: list[Profile]
    scales: list[int]  # dyadic scales lambda = 2^-n

    def with_beta(self, beta: int) -> list[Profile]:
        return [p for p in self.profiles if p.beta >= beta]


def make_dictionary(r: int, scales) -> TestDictionary:
    """Default dictionary: smooth tensor bumps plus derivative variants that
    annihilate polynomials (a derivative of order b+1 kills degree <= b).

    Every factor is normalised to C^r norm <= 1, so the dictionary is an
    inner approximation of the unit ball of test functions; the sup over it
    is a lower bound for the continuum sup.
    """
    order = max(r + 2, 4)
    bump = bspline_bump(order)
    profiles = []

    def add(name, beta, fn):
        profiles.append(Profile(name, beta, fn * (1.0 / (1.0001 * _cr_bound(fn, r)))))

    add("bump", -1, bump)
    add("bump_narrow", -1, bump.dilated(0.5))
    add("bump_offset", -1, bump.dilated(0.5).shifted(-0.4))
    for b in range(min(r, 3) + 1):
        if b + 1 > order - 1:
            break
        add(f"d{b + 1}_bump", b, bump.derivative(b + 1))
    return TestDictionary(r, profiles, list(scales))


def profile_kernel(
    profile: Profile, scaling: Scaling, scale_n: int
) -> an.SeparableKernel:
    """eta^lambda_0 with lambda = 2^-scale_n, L^1-normalised scaling."""
    lams = [2.0 ** (-scale_n * si) for si in scaling.s]
    factors = [profile.factor.dilated(lam) * (1.0 / lam) for lam in lams]
    return an.SeparableKernel([(1.0, factors)])


def besov_norm_testfn(
    pyr: CoeffPyramid,
    params: BesovParams,
    dictionary: TestDictionary,
    fam: mra.WaveletFamily,
) -> tuple[float, np.ndarray]:
    """Test-function norm over the finite dictionary and dyadic scales.

    Lower bound for the continuum definition; for alpha >= 0 the scale-free
    local pairing term is included as well.
    """
    if dictionary.r != params.r:
        raise ValueError("dictionary regularity does not match the parameters")
    sc = pyr.scaling
    cN = mra.level_coefficients(pyr, fam, pyr.N)
    beta = -1 if params.alpha < 0 else int(math.floor(params.alpha))
    profiles = dictionary.with_beta(beta)
    if not profiles:
        raise ValueError("dictionary carries no profiles for this regularity")
    scales = [n for n in dictionary.scales if n <= pyr.N - 2]
    per_scale = np.zeros(len(scales))
    for i, n in enumerate(scales):
        lam = 2.0 ** (-n)
        best = 0.0
        for prof in profiles:
            k = prof.kernel_coeffs(fam, sc, n, pyr.N)
            tab = an.correlate(cN, k)
            best = max(best, lpn_norm(np.abs(tab) / lam**params.alpha, pyr.N, params.p, sc))
        per_scale[i] = best
    total = lq_aggregate(per_scale, params.q)
    if params.alpha >= 0:
        local = 0.0
        for prof in [p for p in dictionary.profiles if p.beta == -1]:
            k = prof.kernel_coeffs(fam, sc, 0, pyr.N)
            tab = an.correlate(cN, k)
            local = max(local, lpn_norm(tab, pyr.N, params.p, sc))
        total += local
    return total, per_scale


# ---------------------------------------------------------------------------
# mollification


RHO = bspline_bump(8)  # the mollifier rho: C^6 even bump, knots at dyadic rationals
RHO_MASS = an.kernel_moment_1d(RHO, 0)


def mollifier_kernel(scaling: Scaling, lam: float) -> an.SeparableKernel:
    """rho^lambda_0: tensor bump, smooth, even, integral one, support the
    unit s-ball scaled by lambda."""
    lis = [lam**si for si in scaling.s]
    factors = [RHO.dilated(li) * (1.0 / (RHO_MASS * li)) for li in lis]
    return an.SeparableKernel([(1.0, factors)])


def mollify(
    pyr: CoeffPyramid,
    lam: float,
    fam: mra.WaveletFamily,
    alpha: float | None = None,
) -> np.ndarray:
    """x -> <xi, rho^lambda_x> on the finest grid."""
    if alpha is not None and alpha <= 0:
        warnings.warn("mollification limit is only guaranteed for alpha > 0")
    sc = pyr.scaling
    cN = mra.level_coefficients(pyr, fam, pyr.N)
    k = an.analyze_kernel(mollifier_kernel(sc, lam), fam, sc, pyr.N)
    return an.correlate(cN, k)


# ---------------------------------------------------------------------------
# synthesis


def synthesize_dirac(
    scaling: Scaling, N: int, fam: mra.WaveletFamily, x0
) -> CoeffPyramid:
    """Pyramid of the Dirac mass: coefficients are periodized basis values at x0."""
    x0 = np.asarray(x0, dtype=float)
    pyr = CoeffPyramid.zeros(scaling, N)

    def basis(kind, n, code=None):
        # phi^n_x(x0) over the grid points x: the basis at 0 queried at x0 - x
        query = [xi - np.arange(2 ** (n * si)) / 2.0 ** (n * si) for xi, si in zip(x0, scaling.s)]
        return mra.eval_basis(fam, scaling, kind, n, np.zeros(scaling.d), query, psi_code=code)

    pyr.base = basis("father", 0)
    for n in range(N):
        pyr.details[n] = np.stack([basis("mother", n, code) for code in mra.psi_codes(scaling)])
    return pyr


def synthesize_smooth(
    scaling: Scaling, N: int, fam: mra.WaveletFamily, func
) -> CoeffPyramid:
    """Forward transform of the samples of a function of the grid points."""
    pts = scaling.grid_points(N)
    return mra.forward_transform(func(pts), fam, scaling)


def synthesize_random_besov(
    scaling: Scaling, N: int, alpha: float, seed: int
) -> CoeffPyramid:
    """Coefficients a = 2^{-n(alpha + |s|/2)} g with g iid uniform[-1, 1]."""
    rng = np.random.default_rng(seed)
    pyr = CoeffPyramid.zeros(scaling, N)
    pyr.base = rng.uniform(-1.0, 1.0, scaling.grid_shape(0))
    npsi = pyr.n_psi
    for n in range(N):
        g = rng.uniform(-1.0, 1.0, (npsi, *scaling.grid_shape(n)))
        pyr.details[n] = 2.0 ** (-n * (alpha + scaling.total / 2.0)) * g
    return pyr


def synthesize(kind: str, scaling: Scaling, N: int, fam: mra.WaveletFamily, **kw):
    if N < 1:
        raise ValueError("need N >= 1")
    if kind == "dirac":
        return synthesize_dirac(scaling, N, fam, kw.get("x0", np.zeros(scaling.d)))
    if kind == "smooth":
        return synthesize_smooth(scaling, N, fam, kw["func"])
    if kind == "random_besov":
        return synthesize_random_besov(scaling, N, kw["alpha"], kw.get("seed", 0))
    raise ValueError(f"unknown synthesis kind: {kind}")
