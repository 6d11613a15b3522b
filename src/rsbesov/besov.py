"""Besov norms of coefficient pyramids, test-function norms, mollification,
and synthesis of reference distributions."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline

from . import analysis as an
from . import mra
from .pyramid import CoeffPyramid
from .scaling import Scaling
from .util import check_exponent, fit_log2_slope, lq_aggregate, weighted_lp


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


def lpn_norm(u: np.ndarray, n: int, p, scaling: Scaling) -> float:
    """(sum_x 2^(-n|s|) |u(x)|^p)^(1/p); sup over the grid when p = inf."""
    u = np.asarray(u, dtype=float)
    if u.shape != scaling.grid_shape(n):
        raise ValueError("sequence not defined on the whole level-n grid")
    return weighted_lp(u, 2.0 ** (-n * scaling.total), p)


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
        return self.level_terms.max(axis=1) if self.level_terms.size else np.zeros(0)

    def rows(self):
        for n in range(self.level_terms.shape[0]):
            for j in range(self.level_terms.shape[1]):
                yield (n, j, self.level_terms[n, j])


def besov_norm_wavelet(pyr: CoeffPyramid, params: BesovParams) -> BesovReport:
    """Equivalent wavelet norm: base l^p plus sup_psi l^q-over-levels of the
    rescaled detail l^p norms."""
    if pyr.N < 1:
        raise ValueError("pyramid must carry at least one detail level")
    sc = pyr.scaling
    base = lpn_norm(pyr.base, 0, params.p, sc)
    terms = np.zeros((pyr.N, pyr.n_psi))
    for n in range(pyr.N):
        w = 2.0 ** (-n * sc.total / 2.0 - n * params.alpha)
        for j in range(pyr.n_psi):
            terms[n, j] = lpn_norm(pyr.details[n][j] / w, n, params.p, sc)
    detail = max(
        (lq_aggregate(terms[:, j], params.q) for j in range(pyr.n_psi)), default=0.0
    )
    return BesovReport(base + detail, base, terms, params.alpha, params.p, params.q)


def critical_exponent(pyr: CoeffPyramid, p, fit_levels: int = 5) -> float:
    """Largest alpha with level-bounded wavelet norm at q = inf.

    The level term scales like 2^{n(alpha - alpha_crit)}, so the critical
    exponent is read off the decay slope of the unweighted level norms.
    """
    sc = pyr.scaling
    vals = []
    for n in range(pyr.N):
        w = 2.0 ** (-n * sc.total / 2.0)
        vals.append(
            max(lpn_norm(pyr.details[n][j] / w, n, p, sc) for j in range(pyr.n_psi))
        )
    ns = np.arange(pyr.N)
    lo = max(0, pyr.N - fit_levels)
    return -fit_log2_slope(ns[lo:], np.array(vals[lo:]))


# ---------------------------------------------------------------------------
# test-function dictionary


def bspline_bump(order: int) -> BSpline:
    """Iterated self-convolution of the indicator, supported on [-1, 1]."""
    return BSpline.basis_element(np.linspace(-1.0, 1.0, order + 1), extrapolate=False)


def _spline_fn(bs: BSpline, lo: float, hi: float) -> an.Fn1D:
    def f(u):
        out = bs(u)
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    return an.Fn1D(f, (lo, hi))


def _cr_bound(fn: an.Fn1D, r: int, mesh: int = 4096) -> float:
    """Numeric proxy for the C^r norm: max over derivative orders 0..r of the
    sup norm, derivatives by repeated central differences."""
    lo, hi = fn.support
    pad = (hi - lo) * 0.05
    u = np.linspace(lo - pad, hi + pad, mesh)
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
    factor: an.Fn1D
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


def make_dictionary(r: int, scales, n_extra: int = 2) -> TestDictionary:
    """Default dictionary: smooth tensor bumps plus derivative variants that
    annihilate polynomials (a derivative of order b+1 kills degree <= b).

    Every factor is normalised to C^r norm <= 1, so the dictionary is an
    inner approximation of the unit ball of test functions; the sup over it
    is a lower bound for the continuum sup.
    """
    order = max(r + 2, 4)
    bump = bspline_bump(order)
    profiles = []

    def add(name, beta, bs, lo, hi):
        fn = _spline_fn(bs, lo, hi)
        c = _cr_bound(fn, r)
        profiles.append(
            Profile(name, beta, an.Fn1D(lambda u, f=fn, c=c: f(u) / (1.0001 * c), (lo, hi)))
        )

    add("bump", -1, bump, -1.0, 1.0)
    half = BSpline(bump.t / 2.0, bump.c, bump.k, extrapolate=False)
    add("bump_narrow", -1, half, -0.5, 0.5)
    shifted = BSpline(bump.t / 2.0 - 0.4, bump.c, bump.k, extrapolate=False)
    add("bump_offset", -1, shifted, -0.9, 0.1)
    for b in range(min(r, 3) + n_extra - 2 + 1):
        if b + 1 > order - 1:
            break
        add(f"d{b + 1}_bump", b, bump.derivative(b + 1), -1.0, 1.0)
    return TestDictionary(r, profiles, list(scales))


def profile_kernel(
    profile: Profile, scaling: Scaling, scale_n: int
) -> an.SeparableKernel:
    """eta^lambda_0 with lambda = 2^-scale_n, L^1-normalised scaling."""
    factors = []
    for si in scaling.s:
        lam = 2.0 ** (-scale_n * si)
        lo, hi = profile.factor.support
        factors.append(
            an.Fn1D(
                lambda u, f=profile.factor, lam=lam: f(u / lam) / lam,
                (lo * lam, hi * lam),
            )
        )
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


_RHO_ORDER = 8  # C^6 even bump, knots at dyadic rationals


def mollifier_kernel(scaling: Scaling, lam: float) -> an.SeparableKernel:
    """rho^lambda_0: tensor bump, smooth, even, integral one, support the
    unit s-ball scaled by lambda."""
    bump = bspline_bump(_RHO_ORDER)
    mass = an.kernel_moment_1d(_spline_fn(bump, -1, 1), 0)
    factors = []
    for si in scaling.s:
        li = lam**si
        factors.append(
            an.Fn1D(
                lambda u, b=bump, li=li, m=mass: np.nan_to_num(
                    b(u / li), nan=0.0
                )
                / (m * li),
                (-li, li),
            )
        )
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
