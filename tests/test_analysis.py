"""Kernel analysis: the exact route of piecewise-polynomial factors, the
rejection of every factor it cannot take, the periodic quadrature, and the
per-profile memo of analyzed kernels.  The support-windowed quadrature of a
compact factor, the convergence oracle of the exact route, lives here too,
checked against the full-torus route and the mask-based sampler."""

import dataclasses
import math
import operator
from functools import cache, reduce

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rsbesov import analysis as an
from rsbesov import besov, build_wavelet, filters
from rsbesov import reconstruction as rc
from rsbesov import schauder as sch
from rsbesov.mra import filter_step
from rsbesov.scaling import Scaling

SC1 = Scaling((1,))
N = 5


@cache
def _family(order):
    return build_wavelet(order, {1: 0, 4: 1, 6: 2, 9: 3}[order])


# --- reference: mask-based sampling of the whole torus -----------------------


def _ref_values(fn, x):
    """fn at points in any order; a PiecewisePoly by one mask per piece."""
    if not isinstance(fn, an.PiecewisePoly):
        return fn(x)
    lo, hi = fn.support
    inside = (x >= lo) & (x <= hi)
    y = (x[inside] - fn.start) * fn.rate
    piece = np.minimum(y.astype(np.intp), len(fn.coeffs) - 1)
    vals = np.empty_like(y)
    for i, c in enumerate(fn.coeffs):
        m = piece == i
        t = y[m] - i
        acc = np.full_like(t, c[-1])
        for ck in c[-2::-1]:
            acc *= t
            acc += ck
        vals[m] = acc
    out = np.zeros_like(x)
    out[inside] = vals * fn.scale
    return out


def _ref_periodic_samples(fn, y):
    """The 1-periodization of fn at y: one mask per periodic copy."""
    if fn.support is None:
        return fn(y)
    lo, hi = fn.support
    acc = np.zeros_like(y)
    for m in range(int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1):
        u = y + m
        mask = (u >= lo) & (u <= hi)
        if np.any(mask):
            acc[mask] += _ref_values(fn, u[mask])
    return acc


def _same_bits(got, ref):
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _ref_stencil(S, mu):
    """S plus the Taylor corrections along each axis, by np.roll copies."""
    c = S
    for ax in range(S.ndim):
        c = c + (mu[2] / 2.0) * (np.roll(S, -1, axis=ax) - 2.0 * S + np.roll(S, 1, axis=ax))
        c = c + (mu[3] / 6.0) * 0.5 * (
            np.roll(S, -2, axis=ax)
            - 2.0 * np.roll(S, -1, axis=ax)
            + 2.0 * np.roll(S, 1, axis=ax)
            - np.roll(S, 2, axis=ax)
        )
    return c


def _ref_coeffs(S, fam, margin):
    """The full-torus route from the samples at every fine point."""
    c = _ref_stencil(S, fam.centered_father_moments) * 2.0 ** (-(N + margin) / 2.0)
    for _ in range(margin):
        c = filter_step(c, fam.h, 0, 2)
    return c


def _full_samples(fn, fam, margin):
    M = 2 ** (N + margin)
    return _ref_periodic_samples(fn, (np.arange(M) + fam.center) / M % 1.0)


def _bump_on(lo, hi):
    """A smooth bump supported on [lo, hi], up to rounding of the ends."""
    return besov.bspline_bump(6).dilated((hi - lo) / 2.0).shifted((lo + hi) / 2.0)


# --- oracle: the support-windowed quadrature of a compact factor -------------


def _sample_window(support, fam, level_1d, margin):
    """Fine-grid index range [start, stop) that _windowed_quadrature samples.

    It covers the support, two samples of Taylor stencil on each side (one
    more for rounding) and (len(h) - 1)(2^margin - 1) samples of filter
    spread before it, rounded out to whole coarse cells of 2^margin samples.
    A window that would cover the torus is the whole torus [0, 2^(level_1d
    + margin)).
    """
    M, cell = 2 ** (level_1d + margin), 2**margin
    if support is None:
        return 0, M
    lo, hi = support
    spread = (len(fam.h) - 1) * (cell - 1)
    first = math.floor(lo * M - fam.center) - 3 - spread
    last = math.ceil(hi * M - fam.center) + 3
    start, stop = first // cell * cell, -(-(last + 1) // cell) * cell
    return (0, M) if stop - start >= M else (start, stop)


def _periodic_samples(fn, y):
    """Samples of the 1-periodization of fn at points y in [0, 1).

    y is walked by its non-decreasing runs (a window grid has one or two), so
    the points of each periodic copy y + m inside the support are one slice
    of a run, and each copy is added in increasing m.
    """
    if fn.support is None:
        return fn(y)
    lo, hi = fn.support
    acc = np.zeros_like(y)
    cuts = [0, *(np.flatnonzero(~(y[1:] >= y[:-1])) + 1), len(y)]  # a NaN is a run of its own
    for a, b in zip(cuts[:-1], cuts[1:]):
        run = y[a:b]
        for m in range(int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1):
            u = run + m  # non-decreasing, so lo <= u <= hi is one slice
            i, j = np.searchsorted(u, lo), np.searchsorted(u, hi, "right")
            if i < j:
                acc[a + i : a + j] += fn(u[i:j])
    return acc


def _windowed_quadrature(fn, fam, level_1d, margin):
    """<G_per, phi^J_t> for all t by the library's quadrature, on the
    _sample_window only and placed periodically.  Every sample outside the
    window is an exact zero, so the window, taken as a torus, gives the
    coefficients of the whole torus."""
    M = 2 ** (level_1d + margin)
    start, stop = _sample_window(fn.support, fam, level_1d, margin)
    y = np.arange(start, stop) % M + fam.center
    y /= M
    y -= np.floor(y)
    S = _periodic_samples(fn, y)
    c = an._stencil(S, fam.centered_father_moments) * 2.0 ** (-(level_1d + margin) / 2.0)
    for _ in range(margin):
        c = filter_step(c, fam.h, 0, 2)
    out = np.zeros(2**level_1d)
    out[(start // 2**margin + np.arange(len(c))) % len(out)] = c
    return out


def _window_len(support, fam, margin):
    start, stop = _sample_window(support, fam, N, margin)
    return stop - start


def _near_full_support(fam, margin):
    """[0, hi] whose window is one coarse cell short of the torus."""
    M, cell = 2 ** (N + margin), 2**margin
    lo, hi = 0, M  # window length is monotone in hi: bisect for M - cell
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _window_len((0.0, mid / M), fam, margin) < M else (lo, mid)
    assert _window_len((0.0, lo / M), fam, margin) == M - cell
    return 0.0, lo / M


def _pn_deriv(K, k, n, pts):
    """d^k P_n at pts, from the exact scaling of the pieces: d^k P_n(x) =
    2^(n(|s| - beta + |k|_s)) d^k P0(2^(ns) x)."""
    scaled = pts * 2.0 ** (n * np.array(K.scaling.s, dtype=float))
    expo = K.scaling.total - K.beta + K.scaling.scaled_degree(k)
    return 2.0 ** (n * expo) * K.p0_deriv(k, scaled)


@cache
def _schauder_pieces():
    """Fn1D factors u -> d^k P_n(-u) of the d=1 Schauder pieces, n <= N and
    k <= 2: smooth factors with supports of every width from 2 down to 2^(1-N)."""
    K = sch.decompose_kernel("riesz", SC1, r=3, beta=0.6)
    return [
        an.Fn1D(lambda u, n=n, k=k: _pn_deriv(K, (k,), n, -u[..., None]), (-(2.0**-n), 2.0**-n))
        for n in range(N + 1)
        for k in (0, 1, 2)
    ]


def _factors(fam, margin):
    out = []
    for prof in besov.make_dictionary(2, range(N + 1)).profiles:
        out += [besov.profile_kernel(prof, SC1, n).terms[0][1][0] for n in range(N + 1)]
    for n in range(N + 1):  # the (derivative, weight) pairs of the gamma = 2.5 lift
        for a, ell in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]:
            out.append(rc._lift_factor_1d(a, ell, 2.0 ** (-n)))
    out += _schauder_pieces()
    out += [_bump_on(0.95, 1.2), _bump_on(-1.3, -1.1), _bump_on(-0.01, 0.003)]
    out.append(_bump_on(*_near_full_support(fam, margin)))
    out.append(an.Fn1D(lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x), None))
    return out


@pytest.mark.parametrize("order", [1, 4, 6, 9])
@pytest.mark.parametrize("margin", [2, 8])
def test_windowed_analysis_matches_full_torus(order, margin):
    fam = _family(order)
    for fn in _factors(fam, margin):
        S = _full_samples(fn, fam, margin)
        got = _windowed_quadrature(fn, fam, N, margin)
        assert np.array_equal(got, _ref_coeffs(S, fam, margin)), fn.support
        if fn.support is None:  # the library's quadrature, on the whole torus
            assert _same_bits(an.quadrature_coeffs_1d(fn, fam, N, margin=margin), got)


# --- the run-based sampler against the masks, bit for bit -------------------


def _window_grid(support, fam, margin):
    """The points _windowed_quadrature samples, built with fmod."""
    M = 2 ** (N + margin)
    start, stop = _sample_window(support, fam, N, margin)
    return start, stop, (np.arange(start, stop) % M + fam.center) / M % 1.0


def _breakpoints(pp):
    """Breakpoints of a PiecewisePoly, each with its two float neighbours."""
    b = pp.start + np.arange(len(pp.coeffs) + 1) / pp.rate
    return np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)])


def test_sampler_on_breakpoints_and_support_ends():
    # a piecewise constant on exact dyadic breakpoints, nonzero at both
    # support ends (the last piece is closed), and a quintic on rounded ones
    step = besov.bspline_bump(4).derivative(3).dilated(0.25).shifted(0.5)
    for pp in (step, besov.bspline_bump(6).dilated(0.3).shifted(0.41)):
        y = np.sort(np.concatenate([np.arange(1000) / 1000, _breakpoints(pp)]))
        assert _same_bits(_periodic_samples(pp, y), _ref_periodic_samples(pp, y))
    ends = [np.nextafter(0.25, 0.0), 0.25, 0.375, 0.75, np.nextafter(0.75, 1.0)]
    assert _periodic_samples(step, np.array(ends)).tolist() == [0.0, 8.0, -24.0, -8.0, 0.0]


def test_sampler_on_windows_that_wrap():
    fam, margin = _family(6), 4
    M = 2 ** (N + margin)
    for fn, wraps in [(_bump_on(-0.01, 0.003), lambda a, b: a < 0), (_bump_on(0.95, 1.2), lambda a, b: b > M)]:
        start, stop, y = _window_grid(fn.support, fam, margin)
        assert wraps(start, stop) and stop - start < M
        assert np.count_nonzero(np.diff(y) < 0) == 1  # two runs
        assert _same_bits(_periodic_samples(fn, y), _ref_periodic_samples(fn, y))


def test_sampler_adds_three_copies_of_a_wide_factor():
    y = np.arange(4096) / 4096
    # support width 2, nonzero at both ends: three copies meet at y = 0;
    # support width 2.4: three copies meet on [0, 0.2] and [0.8, 1)
    for pp, where in [
        (besov.bspline_bump(4).derivative(3), (0,)),
        (besov.bspline_bump(6).dilated(1.2), (0, 409, 3686)),
    ]:
        got = _periodic_samples(pp, y)
        assert _same_bits(got, _ref_periodic_samples(pp, y))
        for i in where:
            copies = [pp(np.array([y[i] + m]))[0] for m in range(-2, 3)]
            assert np.count_nonzero(copies) == 3
            assert got[i] == reduce(operator.add, copies, 0.0)  # in m order


def test_sampler_on_schauder_pieces():
    fam = _family(6)
    for fn in _schauder_pieces():
        for margin in (2, 8):
            y = _window_grid(fn.support, fam, margin)[2]
            assert _same_bits(_periodic_samples(fn, y), _ref_periodic_samples(fn, y))


def test_unsorted_and_nan_points():
    """__call__ keeps its masks; the sampler walks any order as runs."""
    rng = np.random.default_rng(5)
    for pp in (besov.RHO, besov.bspline_bump(4).derivative(3), rc._lift_factor_1d(1, 2, 0.25)):
        lo, hi = pp.support
        x = np.concatenate([rng.uniform(lo - 0.2, hi + 0.2, 2000), [np.nan, np.inf, -np.inf, lo, hi]])
        rng.shuffle(x)
        assert _same_bits(pp(x), _ref_values(pp, x))
        y = np.concatenate([rng.uniform(0.0, 1.0, 500), [np.nan, 0.0, np.nan, np.nan]])
        rng.shuffle(y)
        assert _same_bits(_periodic_samples(pp, y), _ref_periodic_samples(pp, y))


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (64,), (8, 3), (2, 16), (4, 1, 5)])
def test_taylor_stencil_matches_roll(shape):
    S = np.random.default_rng(1).standard_normal(shape)
    mu = _family(6).centered_father_moments
    assert _same_bits(an._stencil(S, mu), _ref_stencil(S, mu))


def test_windows_stay_small_and_cover_the_torus_when_needed():
    fam = _family(6)
    M = 2 ** (N + 8)
    assert _window_len((-(2.0**-N), 2.0**-N), fam, 8) < M // 2
    assert _window_len((-0.5, 0.6), fam, 8) == M
    assert _window_len(None, fam, 8) == M


# --- memo of analyzed profile kernels ---------------------------------------


def test_profile_kernel_memo(monkeypatch):
    fam, sc1 = _family(6), SC1
    calls = []
    analyze = an.analyze_kernel
    monkeypatch.setattr(an, "analyze_kernel", lambda *a, **k: calls.append(a) or analyze(*a, **k))
    d1 = besov.make_dictionary(1, range(2, 5))
    d2 = besov.make_dictionary(2, range(2, 5))
    p1, p2 = d1.profiles[0], d2.profiles[0]
    assert p1.name == p2.name
    first = p1.kernel_coeffs(fam, sc1, 3, N)
    assert len(calls) == 1
    again = p1.kernel_coeffs(fam, sc1, 3, N)
    assert again is first and len(calls) == 1  # the second request analyzes nothing
    assert not first.flags.writeable
    assert np.array_equal(first, analyze(besov.profile_kernel(p1, sc1, 3), fam, sc1, N))
    # a dictionary of another r normalises its factors differently: no shared entry
    other = p2.kernel_coeffs(fam, sc1, 3, N)
    assert len(calls) == 2 and not np.array_equal(other, first)
    assert p1.kernels is not p2.kernels
    # every part of the key separates entries
    p1.kernel_coeffs(_family(4), sc1, 3, N)
    p1.kernel_coeffs(fam, sc1, 2, N)
    p1.kernel_coeffs(fam, sc1, 3, N - 1)
    assert len(calls) == 5 and len(p1.kernels) == 4


# --- spline factors against scipy's BSpline ----------------------------------
#
# The reference builds every spline factor on scipy's BSpline(extrapolate=False),
# with its NaNs outside the knots set to zero.

ORACLE_RTOL = 1e-13


def _ref_spline(bs):
    return lambda u: np.nan_to_num(bs(u), nan=0.0, posinf=0.0, neginf=0.0)


def _ref_bump(order):
    from scipy.interpolate import BSpline

    return BSpline.basis_element(np.linspace(-1.0, 1.0, order + 1), extrapolate=False)


def _knots(bs):
    """The knots of a BSpline that bound its nonzero pieces."""
    return bs.t[bs.k : len(bs.t) - bs.k]


def _points(knots):
    """A dense grid over the knot span and a margin, plus every knot."""
    lo, hi = float(np.min(knots)), float(np.max(knots))
    pad = 0.1 * (hi - lo)
    return np.concatenate([np.linspace(lo - pad, hi + pad, 4001), knots, [lo, hi]])


def _assert_oracle(got, ref, u):
    want = ref(u)
    assert np.max(np.abs(got(u) - want)) <= ORACLE_RTOL * np.max(np.abs(want))


def _ref_dictionary(r):
    """(name, reference spline, support, knots) per profile of make_dictionary(r),
    before the C^r normalisation."""
    from scipy.interpolate import BSpline

    bump = _ref_bump(max(r + 2, 4))
    moved = lambda t: BSpline(t, bump.c, bump.k, extrapolate=False)  # noqa: E731
    splines = [
        ("bump", bump, -1.0, 1.0),
        ("bump_narrow", moved(bump.t / 2.0), -0.5, 0.5),
        ("bump_offset", moved(bump.t / 2.0 - 0.4), -0.9, 0.1),
    ]
    splines += [
        (f"d{b + 1}_bump", bump.derivative(b + 1), -1.0, 1.0) for b in range(min(r, 3) + 1)
    ]
    return [(name, _ref_spline(bs), (lo, hi), _knots(bs)) for name, bs, lo, hi in splines]


def _ref_rho():
    rho = _ref_bump(8)
    mass = an.kernel_moment_1d(an.Fn1D(_ref_spline(rho), (-1.0, 1.0)), 0)
    return rho, mass


@pytest.mark.parametrize("r", [2, 3])
def test_dictionary_factors_match_bspline(r):
    profiles = besov.make_dictionary(r, range(11)).profiles
    ref = _ref_dictionary(r)
    assert [p.name for p in profiles] == [name for name, _, _, _ in ref]
    bump = besov.bspline_bump(max(r + 2, 4))
    raw = [bump, bump.dilated(0.5), bump.dilated(0.5).shifted(-0.4)]
    raw += [bump.derivative(b + 1) for b in range(min(r, 3) + 1)]
    for prof, pp, (_, f, support, t) in zip(profiles, raw, ref):
        # the C^r proxy takes r-th finite differences at step ~5e-4: they
        # magnify round-off in the samples by ~h^-r, so it agrees less closely
        c = besov._cr_bound(pp, r)
        assert abs(c - besov._cr_bound(an.Fn1D(f, support), r)) <= 1e-6 * c
        for n in range(11):
            lam = 2.0**-n
            got = besov.profile_kernel(prof, SC1, n).terms[0][1][0]
            ref_n = lambda u, lam=lam: f(u / lam) / (lam * 1.0001 * c)  # noqa: E731
            _assert_oracle(got, ref_n, _points(t * lam))


def test_mollifier_factor_matches_bspline():
    rho, mass = _ref_rho()
    for lam in (1.0, 0.3, 2.0**-5):
        got = besov.mollifier_kernel(SC1, lam).terms[0][1][0]
        ref = lambda u: _ref_spline(rho)(u / lam) / (mass * lam)  # noqa: E731
        _assert_oracle(got, ref, _points(_knots(rho) * lam))


def _leibniz_terms(a, ell):
    """Terms (coef, deriv_order, power) of d^a/du^a [ sum_i C(l,i)(l!/i!) rho^(i) u^i ]."""
    terms = []
    for i in range(ell + 1):
        base = math.comb(ell, i) * math.factorial(ell) / math.factorial(i)
        for m in range(min(a, i) + 1):
            coef = base * math.comb(a, m) * math.factorial(i) / math.factorial(i - m)
            terms.append((coef, i + a - m, i - m))
    return terms


def test_lift_factors_match_bspline():
    rho, mass = _ref_rho()

    def ref_lift(a, ell, scale):  # sums scipy's rho^(j) with the polynomial weights
        terms = _leibniz_terms(a, ell)

        def f(u):
            acc = np.zeros_like(u)
            inside = np.abs(u) < scale
            ui = u[inside]
            for j in sorted({j for _, j, _ in terms}):
                weight = sum(coef * ui**pw for coef, jj, pw in terms if jj == j)
                dj = _ref_spline(rho.derivative(j) if j else rho)(ui / scale)
                acc[inside] += dj * weight / (mass * scale ** (1 + j))
            return acc

        return f

    for n in range(11):
        scale = 2.0**-n
        for a in range(3):
            for ell in range(3):
                u = _points(_knots(rho) * scale)
                _assert_oracle(rc._lift_factor_1d(a, ell, scale), ref_lift(a, ell, scale), u)


def test_lift_factors_are_exact_piecewise_polys():
    """A_ell(rho) is an integer table on rho's pieces, so every lift factor is exact."""
    assert np.array_equal(rc._weighted_rho(0).coeffs, besov.RHO.coeffs)
    for ell in range(4):
        table = rc._weighted_rho(ell).coeffs
        assert table.shape == besov.RHO.coeffs.shape
        assert np.array_equal(table, np.round(table))
    sc = Scaling((2, 1))
    for k in [(0, 0), (1, 0), (0, 1), (2, 0)]:
        for n in range(4):
            for _, factors in rc.lift_kernel(k, 2, sc, n).terms:
                assert all(isinstance(fn, an.PiecewisePoly) for fn in factors)


def test_corrector_bump_matches_bspline():
    bump = _ref_bump(10)
    for k in range(5):
        ref = _ref_spline(bump.derivative(k) if k else bump)
        _assert_oracle(sch._BUMP_DERIVS[k], ref, _points(_knots(bump)))


def test_smooth_step_matches_bspline():
    anti = _ref_bump(8).antiderivative()
    mass = float(anti(1.0) - anti(-1.0))

    def ref(u):
        v = (u - 0.375) / 0.125
        cdf = (anti(np.clip(v, -1.0, 1.0)) - anti(-1.0)) / mass
        return np.where(v <= -1.0, 1.0, np.where(v >= 1.0, 0.0, 1.0 - cdf))

    _assert_oracle(sch._step, ref, _points(0.375 + 0.125 * _knots(anti)))


def test_piecewise_poly_knot_convention():
    """Pieces [b_i, b_{i+1}), the last closed at its right end, 0 strictly outside."""
    d3 = besov.bspline_bump(4).derivative(3)
    u = np.array([np.nextafter(-1.0, -2.0), -1.0, -0.5, 0.0, 0.5, 1.0, np.nextafter(1.0, 2.0)])
    assert d3(u).tolist() == [0.0, 8.0, -24.0, 24.0, -8.0, -8.0, 0.0]
    assert besov.bspline_bump(4).support == (-1.0, 1.0)


def test_piecewise_poly_derivative_past_degree():
    """Differentiating past the degree gives the zero function, not an empty table."""
    bump = besov.bspline_bump(4)
    u = np.linspace(-1.5, 1.5, 31)
    for n in (4, 6):
        dn = bump.derivative(n)
        assert dn.coeffs.shape == (4, 1) and dn.support == bump.support
        assert np.array_equal(dn(u), np.zeros_like(u))


# --- exact coefficients of piecewise polynomials ------------------------------
#
# The margin-13 quadrature is the independent oracle.  Its own error grows as
# a factor narrows against the grid (it depends on level - scale only): 1e-13
# of the sup at level = scale, 5e-15 at level = scale + 4.  So the 1e-14
# comparison analyses each factor of scale 2^-n at level n + 4; the narrower
# factors, which take the dyadic steps j > 0, are checked against Haar's exact
# box integrals, the integral identity and the shift property.

ORDERS = [1, 4, 6, 9]
LIFT_PAIRS = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def _derivative_order(prof):
    return int(prof.name[1]) if prof.name.startswith("d") else 0


def _dictionary_factors(n, smooth):
    """(name, factor) of make_dictionary(r) at scale 2^-n, r = 2 and 3: the C^1
    ones if smooth, else the d2/d3/d4 bumps."""
    out = []
    for r in (2, 3):
        order = max(r + 2, 4)  # C^(order - 2) before b derivatives
        for prof in besov.make_dictionary(r, [n]).profiles:
            b = _derivative_order(prof)
            if (order - 2 - b >= 1) if smooth else b >= 2:
                factor = besov.profile_kernel(prof, SC1, n).terms[0][1][0]
                out.append((f"{prof.name} r={r}", factor))
    return out


def _lift_factors(n):
    return [(f"lift a={a} l={ell}", rc._lift_factor_1d(a, ell, 2.0**-n)) for a, ell in LIFT_PAIRS]


def _grid_factors():
    """(name, factor, level): an order-6 bump (q = 3), supports that wrap at
    either end, and one wider than the torus."""
    b6 = besov.bspline_bump(6)
    return [
        ("order-6 bump", b6, 4),
        ("wraps past 1", b6.dilated(0.125).shifted(0.95), 5),
        ("wraps below 0", b6.dilated(0.25).shifted(0.0625), 5),
        ("wider than the torus", b6.dilated(1.2), 3),
    ]


@cache
def _all_factors():
    """(name, factor, level) for every factor of the exact-route tests, the
    narrow ones (n = N, j up to 2) included."""
    out = [(name, fn, N) for n in range(N + 1) for name, fn in _dictionary_factors(n, True)]
    out += [(name, fn, N) for n in range(N + 1) for name, fn in _dictionary_factors(n, False)]
    out += [(name, fn, N) for n in range(N + 1) for name, fn in _lift_factors(n)]
    return out + _grid_factors()


def _max_rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _scale(c, fn, level):
    """sum |c_t|, floored at the size 2^(-J/2) sup|P| of one coefficient: Haar
    coefficients of a derivative bump cancel to round-off."""
    lo, hi = fn.support
    height = np.max(np.abs(fn(np.linspace(lo, hi, 4001))))
    return max(np.sum(np.abs(c)), 2.0 ** (-level / 2) * height)


@pytest.mark.parametrize("order", ORDERS)
def test_exact_route_matches_quadrature_on_smooth_factors(order):
    fam = _family(order)
    # J - n alone sets the geometry, so two scales do: one wider than the torus
    cases = [(name, fn, n + 4) for n in (0, 3) for name, fn in _dictionary_factors(n, True)]
    cases += [(name, fn, n + 4) for n in (0, 3) for name, fn in _lift_factors(n)]
    assert {"bump_offset r=2", "d1_bump r=2", "d2_bump r=3"} <= {name for name, _, _ in cases}
    for name, fn, level in cases + _grid_factors():
        assert an._cell_grid(fn, level) is not None, name
        got = an.smooth_coeffs_1d(fn, fam, level)
        ref = _windowed_quadrature(fn, fam, level, 13)
        assert _max_rel(got, ref) <= 1e-14, (name, level)


@pytest.mark.parametrize("order", ORDERS)
def test_exact_route_inside_quadrature_error_at_kinks_and_jumps(order):
    """d2/d3/d4 bumps: the quadrature errs by O(2^-margin) at a jump, and the
    exact route sits well inside margin 13's error."""
    fam = _family(order)
    for n in range(N + 1):
        for name, fn in _dictionary_factors(n, False):
            got = an.smooth_coeffs_1d(fn, fam, N)
            q13 = _windowed_quadrature(fn, fam, N, 13)
            q8 = _windowed_quadrature(fn, fam, N, 8)
            assert np.max(np.abs(got - q13)) <= np.max(np.abs(q8 - q13)) / 8, (name, n)


def test_exact_route_matches_haar_box_integrals():
    """Haar's coefficients are 2^(J/2) (F((t+1)/2^J) - F(t/2^J)) with F the
    exact antiderivative: an oracle at every grid, j > 0 included."""
    fam = _family(1)
    grids = set()
    for name, fn, level in _all_factors():
        grids.add(an._cell_grid(fn, level))
        lo, hi = fn.support
        F = lambda x: fn.antiderivative()(np.clip(x, lo, hi))  # noqa: E731  (0 past hi)
        t = np.arange(math.floor(lo * 2**level) - 1, math.ceil(hi * 2**level) + 1)
        ref = np.zeros(2**level)
        np.add.at(ref, t % 2**level, 2.0 ** (level / 2) * (F((t + 1) / 2**level) - F(t / 2**level)))
        got = an.smooth_coeffs_1d(fn, fam, level)
        assert np.max(np.abs(got - ref)) <= 1e-14 * _scale(ref, fn, level), name
    assert {(0, 1), (0, 5), (1, 1), (2, 1), (0, 3), (0, 15)} <= grids


@pytest.mark.parametrize("order", ORDERS)
def test_exact_coefficients_sum_to_the_integral(order):
    """sum_t <P_per, phi^J_t> = 2^(J/2) int P, since sum_t phi^J_t = 2^(J/2)."""
    fam = _family(order)
    for name, fn, level in _all_factors():
        c = an.smooth_coeffs_1d(fn, fam, level)
        integral = fn.antiderivative()(np.array([fn.support[1]]))[0]
        assert abs(c.sum() - 2.0 ** (level / 2) * integral) <= 1e-13 * _scale(c, fn, level), name


def _father_pairings(fam, level, m):
    """<x^m, phi^J_t> for t = 0 .. 2^J - 1 from the father moments M_i:
    2^(-J(m + 1/2)) sum_i C(m, i) t^(m-i) M_i."""
    t = np.arange(2**level, dtype=float)
    acc = sum(math.comb(m, i) * t ** (m - i) * fam.father_moments[i] for i in range(m + 1))
    return 2.0 ** (-level * (m + 0.5)) * acc


def _gauss_moment(pp, m):
    """int x^m P, by 10-point Gauss-Legendre on each piece: exact to rounding
    for degree + m <= 19."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    width = 1.0 / pp.rate
    acc = 0.0
    for i in range(len(pp.coeffs)):
        x = pp.start + width * (i + (nodes + 1.0) / 2.0)
        acc += width / 2.0 * float(np.sum(weights * x**m * pp(x)))
    return acc


@pytest.mark.parametrize("order", [4, 6, 9])
def test_exact_coefficients_keep_the_polynomial_moments(order):
    """sum_t <P, phi^J_t> <x^m, phi^J_t> = int x^m P for m below the order:
    V_J reproduces those monomials.  The supports and every coefficient's
    index stay inside [0, 1), so no term wraps."""
    fam = _family(order)
    level = 6
    for bump_order, q in [(4, 1), (6, 3), (5, 5)]:
        for centre in (0.5, 0.75):
            fn = besov.bspline_bump(bump_order).dilated(0.125).shifted(centre)
            lo, hi = fn.support
            assert lo * 2**level >= len(fam.h) - 1 and hi < 1.0
            j, got_q = an._cell_grid(fn, level)
            assert got_q == q
            c = an.exact_coeffs_1d(fn, fam, level, j, q)
            for m in range(order):
                want = _gauss_moment(fn, m)
                got = float(np.sum(c * _father_pairings(fam, level, m)))
                assert abs(got - want) <= 1e-13 * abs(want), (bump_order, centre, m)


@given(
    st.sampled_from(range(len(_all_factors()))),
    st.sampled_from(ORDERS),
    st.integers(-70, 70),
)
def test_shift_by_a_grid_step_rolls_the_coefficients(i, order, k):
    name, fn, level = _all_factors()[i]
    moved = fn.shifted(k * 2.0**-level)
    assume(an._cell_grid(moved, level) == an._cell_grid(fn, level))
    fam = _family(order)
    got = an.smooth_coeffs_1d(moved, fam, level)
    assert _same_bits(got, np.roll(an.smooth_coeffs_1d(fn, fam, level), k)), name


def test_factors_off_every_grid_are_rejected():
    """A compact factor off every cell grid raises: no quadrature fallback,
    whose error at a jump is O(2^-margin) of the largest coefficient."""
    fam = _family(6)
    d4 = next(p for p in besov.make_dictionary(3, [0]).profiles if p.name == "d4_bump")
    b4 = besov.bspline_bump(4)
    narrow = rc._lift_factor_1d(0, 1, 2.0 ** -(N + 7))  # breakpoints need j = 9
    assert an._cell_grid(rc._lift_factor_1d(0, 1, 2.0 ** -(N + 3)), N) == (5, 1)
    for fn in (
        besov.profile_kernel(d4, SC1, 0).terms[0][1][0].shifted(0.1234567),
        b4.dilated(1.0 / 65.0),  # q = 65 is past the cap
        narrow,
    ):
        assert an._cell_grid(fn, N) is None
        with pytest.raises(ValueError, match=r"start=.*rate=.* no cell grid .* q <= 63 and j <= 8"):
            an.smooth_coeffs_1d(fn, fam, N)
        with pytest.raises(ValueError, match="no cell grid"):
            an.analyze_kernel(an.SeparableKernel([(1.0, [fn])]), fam, SC1, N)
    # a compact Fn1D is no periodic factor, and the quadrature takes no other
    compact = an.Fn1D(lambda x: np.cos(np.pi * x) ** 2, (-0.5, 0.5))
    with pytest.raises(ValueError, match="not periodic: analyze a compact factor as a PiecewisePoly"):
        an.smooth_coeffs_1d(compact, fam, N)
    with pytest.raises(ValueError, match="not periodic"):
        an.analyze_kernel(an.SeparableKernel([(1.0, [compact])]), fam, SC1, N)
    with pytest.raises(ValueError, match="not periodic"):
        an.quadrature_coeffs_1d(b4, fam, N)


@pytest.mark.parametrize("field", ["start", "rate", "scale", "coeffs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_factor_rejected(field, bad):
    """Without the check the quadrature returns NaN coefficients silently."""
    b4 = besov.bspline_bump(4)
    if field == "coeffs":
        coeffs = b4.coeffs.copy()
        coeffs[1, 2] = bad
        fn = an.PiecewisePoly(b4.start, b4.rate, coeffs, b4.scale)
    else:
        fn = dataclasses.replace(b4, **{field: bad})
    with pytest.raises(ValueError, match="not finite"):
        an.smooth_coeffs_1d(fn, _family(6), N)
    with pytest.raises(ValueError, match="not finite"):
        an.analyze_kernel(an.SeparableKernel([(1.0, [fn])]), _family(6), SC1, N)


def _fresh(fam, **changes):
    return dataclasses.replace(fam, _cell_moments={}, **changes)


def test_cell_moments_checked_against_the_exact_moments(monkeypatch):
    fam = _family(6)
    b5 = besov.bspline_bump(5)  # q = 5
    # a first moment that is not the father's
    wrong = fam.father_moments.copy()
    wrong[1] += 1e-9
    with pytest.raises(ValueError, match="order-6 father at q=5"):
        an.smooth_coeffs_1d(b5, _fresh(fam, father_moments=wrong), N)
    # taps that do not refine the father
    h = fam.h.copy()
    h[[0, 1]] = h[[1, 0]]
    with pytest.raises(ValueError, match="order-6 father at q=5"):
        an.smooth_coeffs_1d(b5, _fresh(fam, h=h), N)
    # a table whose cells do not sum to 1 (its first moment is unchanged:
    # cell 0 has k C_0 = 0)
    build = filters.cell_moments

    def off_by_one_cell(*args):
        table = build(*args)
        table[0, 0] += 1e-9
        return table

    monkeypatch.setattr(filters, "cell_moments", off_by_one_cell)
    with pytest.raises(ValueError, match="order-6 father at q=1"):
        an.smooth_coeffs_1d(besov.bspline_bump(4), _fresh(fam), N)


def test_cell_moment_table_cached_per_q():
    fam = _fresh(_family(4))
    for deg in (3, 1, 7, 2):
        table = fam.cell_moments(5, deg)
        assert table.shape == (deg + 1, 7 * 5) and not table.flags.writeable
    assert list(fam._cell_moments) == [5] and len(fam._cell_moments[5]) == 8
    assert _same_bits(fam.cell_moments(5, 3), filters.cell_moments(fam.h, 5, 7)[:4])
