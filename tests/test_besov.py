import math

import numpy as np
import pytest

from rsbesov import analysis as an
from rsbesov import besov, mra
from rsbesov.pyramid import CoeffPyramid
from rsbesov.scaling import Scaling
from rsbesov.util import lq_aggregate

INF = math.inf

# frozen golden value: sin(2 pi x) samples at N=6, order-6 family,
# alpha=1.5, p=q=2; independently recomputed below by the cascade-sample
# Riemann oracle at every run of the slow marker
SIN_BESOV_GOLDEN = 1.2247311381818244


def test_lpn_constant(sc1):
    for p in (1.0, 2.0, INF):
        assert abs(besov.lpn_norm(np.ones(2**5), 5, p, sc1) - 1.0) < 1e-14


def test_lpn_indicator(sc1):
    u = np.zeros(2**6)
    u[3] = 1.0
    for p in (1.0, 2.0, 4.0):
        assert abs(besov.lpn_norm(u, 6, p, sc1) - 2.0 ** (-6.0 / p)) < 1e-14
    assert besov.lpn_norm(u, 6, INF, sc1) == 1.0


def test_lpn_matches_direct_sum(sc1):
    rng = np.random.default_rng(0)
    u = rng.standard_normal(2**7)
    for p in (1.0, 2.5, 3.0):
        direct = (np.sum(2.0**-7 * np.abs(u) ** p)) ** (1.0 / p)
        assert abs(besov.lpn_norm(u, 7, p, sc1) - direct) <= 1e-12 * direct


@pytest.mark.parametrize("s, n, lead", [((1,), 2, (2,)), ((1,), 9, (3, 2)), ((2, 1), 5, (8,))])
def test_lpn_stack_matches_per_row_bits(s, n, lead):
    # leading axes stack grids: each entry has the bits of its own grid's
    # norm, across p = 1, the exact-square p = 2, a generic p and the sup
    from rsbesov.scaling import Scaling

    sc = Scaling(s)
    rng = np.random.default_rng(1)
    u = rng.standard_normal((*lead, *sc.grid_shape(n))) * 10.0 ** rng.uniform(-3, 3, lead + (1,) * sc.d)
    w = 2.0 ** (-n * sc.total)
    for p in (1.0, 2.0, 2.7, INF):
        got = besov.lpn_norm(u, n, p, sc)
        assert got.shape == lead
        for idx in np.ndindex(*lead):
            one = besov.lpn_norm(u[idx], n, p, sc)
            # the flat whole-grid sum, root taken on the numpy scalar
            flat = np.max(np.abs(u[idx])) if p == INF else (w * np.sum(np.abs(u[idx]) ** p)) ** (1.0 / p)
            assert type(one) is float and got[idx] == one == flat
    with pytest.raises(ValueError, match="level-n grid"):
        besov.lpn_norm(u, n + 1, 2.0, sc)


def test_params_validation():
    with pytest.raises(ValueError):
        besov.BesovParams(2.5, 2.0, 2.0, 2)
    with pytest.raises(ValueError):
        besov.BesovParams(0.5, 0.9, 2.0, 2)


def test_zero_norm(sc1, fam6):
    pyr = CoeffPyramid.zeros(sc1, 4)
    rep = besov.besov_norm_wavelet(pyr, besov.BesovParams(0.5, 2.0, 2.0, 2))
    assert rep.value == 0.0


def test_dirac_critical_exponents(sc1, fam6):
    pyr = besov.synthesize("dirac", sc1, 10, fam6, x0=np.array([0.5]))
    for p in (1.0, 2.0, INF):
        measured = besov.critical_exponent(pyr, p)
        want = -1.0 + (0.0 if math.isinf(p) else 1.0 / p)
        assert abs(measured - want) < 0.1


def test_dirac_bounded_at_critical_grows_above(sc1, fam6):
    # level terms stay bounded at the critical index and grow at +eps
    p = 2.0
    pyr = besov.synthesize("dirac", sc1, 10, fam6, x0=np.array([0.5]))
    at_crit = besov.besov_norm_wavelet(pyr, besov.BesovParams(-0.5, p, INF, 2))
    lv = at_crit.level_max()
    assert lv[-1] < 4.0 * lv[2]
    above = besov.besov_norm_wavelet(pyr, besov.BesovParams(-0.25, p, INF, 2))
    lv2 = above.level_max()
    assert lv2[-1] > 2.0 ** (0.25 * 6) * lv2[2] * 0.5


def test_sin_norm_golden(sc1, fam6):
    grid = np.arange(2**6) / 2**6
    pyr = mra.forward_transform(np.sin(2 * np.pi * grid), fam6, sc1)
    rep = besov.besov_norm_wavelet(pyr, besov.BesovParams(1.5, 2.0, 2.0, 2))
    assert abs(rep.value - SIN_BESOV_GOLDEN) < 1e-9


@pytest.mark.slow
def test_sin_norm_oracle(sc1):
    # independent oracle: coefficients by Riemann sums of cascade samples
    famdeep = mra.build_wavelet(6, 2, cascade_depth=14)
    N = 6
    grid = np.arange(2**N) / 2**N
    u = np.sin(2 * np.pi * grid)
    fine = np.arange(2 ** (N + 8)) / 2 ** (N + 8)
    h = 2.0 ** -(N + 8)
    xi = np.zeros_like(fine)
    for ix in range(2**N):
        xi += u[ix] * 2 ** (-N / 2.0) * mra.eval_basis(
            famdeep, sc1, "father", N, np.array([ix / 2**N]), [fine]
        )
    base = np.sum(xi * mra.eval_basis(famdeep, sc1, "father", 0, np.array([0.0]), [fine])) * h
    lvl = []
    for n in range(N):
        row = [
            np.sum(
                xi
                * mra.eval_basis(
                    famdeep, sc1, "mother", n, np.array([ix / 2**n]), [fine], psi_code=(1,)
                )
            )
            * h
            for ix in range(2**n)
        ]
        w = 2.0 ** (-n * 2.0)
        lvl.append(np.sqrt(np.sum((np.array(row) / w) ** 2) * 2.0**-n))
    oracle = abs(base) + float(np.sqrt(np.sum(np.array(lvl) ** 2)))
    assert abs(oracle - SIN_BESOV_GOLDEN) < 1e-9


def test_random_besov_bounded_uniformly(sc1, fam6):
    for N in (6, 10):
        pyr = besov.synthesize("random_besov", sc1, N, fam6, alpha=-0.5, seed=7)
        rep = besov.besov_norm_wavelet(pyr, besov.BesovParams(-0.5, 2.0, INF, 2))
        assert rep.value < 3.0  # iid uniform coefficients: level terms O(1)


def test_homogeneity_exact(sc1, fam6):
    pyr = besov.synthesize("random_besov", sc1, 7, fam6, alpha=0.2, seed=1)
    par = besov.BesovParams(0.2, 2.0, 2.0, 2)
    v1 = besov.besov_norm_wavelet(pyr, par).value
    v2 = besov.besov_norm_wavelet(pyr.scaled(-2.5), par).value
    assert v2 == pytest.approx(2.5 * v1, rel=0, abs=1e-12 * v1)


def test_triangle_inequality(sc1, fam6):
    a = besov.synthesize("random_besov", sc1, 7, fam6, alpha=0.2, seed=1)
    b = besov.synthesize("random_besov", sc1, 7, fam6, alpha=0.2, seed=2)
    par = besov.BesovParams(0.2, 2.0, 2.0, 2)
    na = besov.besov_norm_wavelet(a, par).value
    nb = besov.besov_norm_wavelet(b, par).value
    nab = besov.besov_norm_wavelet(a.plus(b), par).value
    assert nab <= na + nb + 1e-12


def test_alpha_monotonicity(sc1, fam6):
    pyr = besov.synthesize("random_besov", sc1, 8, fam6, alpha=0.0, seed=3)
    vals = [
        besov.besov_norm_wavelet(pyr, besov.BesovParams(a, 2.0, 2.0, 2)).value
        for a in (-0.8, -0.3, 0.4, 0.9)
    ]
    assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))


def test_q_monotonicity(sc1, fam6):
    pyr = besov.synthesize("random_besov", sc1, 8, fam6, alpha=0.3, seed=4)
    vals = [
        besov.besov_norm_wavelet(pyr, besov.BesovParams(0.3, 2.0, q, 2)).value
        for q in (1.0, 2.0, 4.0, INF)
    ]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))


# --- test-function norm -----------------------------------------------------

# equivalence-constant band, measured once on the seed-42 fixtures and frozen
TESTFN_C = 30.0


@pytest.mark.parametrize("alpha", [0.3, -0.4])
def test_testfn_within_calibrated_factor(sc1, fam6, alpha):
    pyr = besov.synthesize("random_besov", sc1, 8, fam6, alpha=alpha, seed=42)
    par = besov.BesovParams(alpha, 2.0, 2.0, 2)
    d = besov.make_dictionary(2, scales=range(2, 7))
    wv = besov.besov_norm_wavelet(pyr, par).value
    tf, _ = besov.besov_norm_testfn(pyr, par, d, fam6)
    assert wv / TESTFN_C <= tf <= TESTFN_C * wv


@pytest.mark.parametrize("alpha", [-0.4, 0.3])
def test_testfn_takes_the_sup_inside_the_lp_norm(sc1, fam6, alpha):
    # per scale, the L^p norm of the pointwise sup over the profiles; the
    # larger of the per-profile L^p norms (0.08605 at alpha = -0.4, against
    # 0.09846 here) only bounds it from below
    N, p = 8, 2.0
    pyr = besov.synthesize("random_besov", sc1, N, fam6, alpha=alpha, seed=42)
    d = besov.make_dictionary(2, scales=range(2, 7))
    cN = mra.level_coefficients(pyr, fam6, N)

    def pairing(prof, n):
        return an.correlate(cN, prof.kernel_coeffs(fam6, sc1, n, N))

    def sup_then_lp(profiles, n):
        best = np.zeros(sc1.grid_shape(N))
        for prof in profiles:
            best = np.maximum(best, np.abs(pairing(prof, n)))
        return besov.lpn_norm(best, N, p, sc1)

    profiles = [prof for prof in d.profiles if prof.beta >= (-1 if alpha < 0 else 0)]
    want = np.array([sup_then_lp(profiles, n) / 2.0 ** (-n * alpha) for n in range(2, 7)])
    total = lq_aggregate(want, 2.0)
    if alpha >= 0:
        total += sup_then_lp([prof for prof in d.profiles if prof.beta == -1], 0)
    got, per_scale = besov.besov_norm_testfn(pyr, besov.BesovParams(alpha, p, 2.0, 2), d, fam6)
    assert np.array_equal(per_scale, want) and got == total
    for n, term in zip(range(2, 7), per_scale):
        per_profile = max(besov.lpn_norm(pairing(prof, n), N, p, sc1) for prof in profiles)
        assert term >= per_profile / 2.0 ** (-n * alpha)


def test_testfn_zero(sc1, fam6):
    d = besov.make_dictionary(2, scales=range(2, 5))
    tf, _ = besov.besov_norm_testfn(
        CoeffPyramid.zeros(sc1, 7), besov.BesovParams(0.3, 2.0, 2.0, 2), d, fam6
    )
    assert tf == 0.0


def test_testfn_monotone_in_dictionary(sc1, fam6):
    pyr = besov.synthesize("random_besov", sc1, 7, fam6, alpha=-0.3, seed=5)
    par = besov.BesovParams(-0.3, 2.0, 2.0, 2)
    full = besov.make_dictionary(2, scales=range(2, 5))
    small = besov.TestDictionary(2, full.profiles[:2], full.scales)
    t_small, _ = besov.besov_norm_testfn(pyr, par, small, fam6)
    t_full, _ = besov.besov_norm_testfn(pyr, par, full, fam6)
    assert t_full >= t_small - 1e-14


def test_testfn_dictionary_mismatch(sc1, fam6):
    d = besov.make_dictionary(3, scales=range(2, 5))
    with pytest.raises(ValueError):
        besov.besov_norm_testfn(
            CoeffPyramid.zeros(sc1, 6), besov.BesovParams(0.3, 2.0, 2.0, 2), d, fam6
        )


def test_dictionary_profiles_annihilate(sc1):
    # beta-variants kill monomials up to their degree (quadrature check)
    d = besov.make_dictionary(2, scales=range(2, 4))
    for prof in d.profiles:
        for a in range(prof.beta + 1):
            assert abs(prof.moment(a)) < 1e-10


# --- mollification -----------------------------------------------------------


def test_mollify_constant(sc1, fam6):
    pyr = mra.forward_transform(np.full(2**8, 2.5), fam6, sc1)
    out = besov.mollify(pyr, 2.0**-3, fam6, alpha=1.0)
    np.testing.assert_allclose(out, 2.5, atol=1e-12)


def test_mollify_warns_below_zero(sc1, fam6):
    pyr = CoeffPyramid.zeros(sc1, 6)
    with pytest.warns(UserWarning):
        out = besov.mollify(pyr, 0.25, fam6, alpha=-0.5)
    assert out.shape == (2**6,)


def test_mollify_converges_to_point_values(sc1, fam6):
    grid = np.arange(2**10) / 2**10
    pyr = mra.forward_transform(np.sin(2 * np.pi * grid), fam6, sc1)
    target = mra.point_values(pyr, fam6)
    errs = [
        np.max(np.abs(besov.mollify(pyr, 2.0**-n, fam6) - target))
        for n in (3, 5, 7)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_mollify_cauchy_increments(sc1, fam6):
    # ||mollify(2^-n) - mollify(2^-n-1)||_p decays like lambda^{min(1, alpha)}
    grid = np.arange(2**10) / 2**10
    pyr = mra.forward_transform(np.sin(2 * np.pi * grid), fam6, sc1)
    ns = np.arange(2, 8)
    incs = []
    for n in ns:
        a = besov.mollify(pyr, 2.0**-n, fam6)
        b = besov.mollify(pyr, 2.0 ** -(n + 1), fam6)
        incs.append(besov.lpn_norm(a - b, 10, 2.0, sc1))
    from rsbesov.util import fit_log2_slope

    slope = -fit_log2_slope(ns, np.array(incs))
    assert slope >= 1.0 - 0.1  # min(1, alpha) with alpha large for sin


# --- synthesis ----------------------------------------------------------------


def test_synthesize_smooth_roundtrip(sc1, fam6):
    grid = np.arange(2**7) / 2**7
    pyr = besov.synthesize(
        "smooth", sc1, 7, fam6, func=lambda pts: np.sin(2 * np.pi * pts[..., 0])
    )
    back = mra.inverse_transform(pyr, fam6)
    np.testing.assert_allclose(back, np.sin(2 * np.pi * grid), atol=1e-10)


def test_synthesize_unknown_kind(sc1, fam6):
    with pytest.raises(ValueError):
        besov.synthesize("noise", sc1, 5, fam6)
    with pytest.raises(ValueError):
        besov.synthesize("dirac", sc1, 0, fam6)


def test_random_besov_reproducible(sc1, fam6):
    a = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.2, seed=9)
    b = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.2, seed=9)
    assert a.max_abs_diff(b) == 0.0


def test_max_abs_diff_rejects_mismatched_pyramids(sc1, sc21, fam6):
    # zipping the detail lists compared N=4 with the first four levels of
    # N=6 and read 0.0 with level 5 off by 100
    a = besov.synthesize("random_besov", sc1, 4, fam6, alpha=-0.2, seed=9)
    b = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.2, seed=9)
    b.details[5] += 100.0
    c = besov.synthesize("random_besov", sc21, 4, fam6, alpha=-0.2, seed=9)
    for x, y in [(a, b), (b, a), (a, c)]:
        with pytest.raises(ValueError, match="pyramid shape mismatch"):
            x.max_abs_diff(y)


def test_critical_exponent_rejects_nan_coefficient(sc1, fam6):
    pyr = mra.forward_transform(np.sin(2 * np.pi * np.arange(256) / 256), fam6, sc1)
    pyr.details[5][0, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        besov.critical_exponent(pyr, 2.0)


def test_slope_fit_needs_two_points():
    from rsbesov.util import fit_log2_slope

    assert math.isnan(fit_log2_slope([0, 1, 2], [1.0, 0.0, 0.0]))
    assert fit_log2_slope([0, 1, 2], [1.0, 0.0, 4.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="non-finite"):
        fit_log2_slope([0, 1], [1.0, np.inf])


def test_tail_slope_fits_the_window_from_its_first_level():
    from rsbesov.util import fit_log2_slope, tail_slope

    vals = np.array([5.0, 1.0, 2.0, 4.0, 8.0])
    assert tail_slope(vals, 3) == fit_log2_slope([2, 3, 4], vals[2:])
    assert tail_slope(vals, 9, first=2) == fit_log2_slope(np.arange(2, 7), vals)
    # the level offset moves the intercept only, never the slope
    assert tail_slope(vals, 3, first=7) == pytest.approx(1.0)
    assert math.isnan(tail_slope([], 5))
    # floor: NaN when no window entry lies above it, entries before the window ignored
    assert math.isnan(tail_slope([9.0, 1e-3, 2e-3], 2, floor=2e-3))
    assert tail_slope([9.0, 1e-3, 4e-3], 2, floor=2e-3) == pytest.approx(2.0)


def test_tail_slope_rejects_non_finite_before_the_floor():
    from rsbesov.util import tail_slope

    # a NaN is never above the floor, yet it must raise, not read as round-off
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tail_slope([1.0, 1e-20, bad], 3, floor=1.0)


@pytest.mark.parametrize("s, N", [((1,), 6), ((2, 1), 3)])
def test_level_norms_match_per_row_bits(s, N):
    sc = Scaling(s)
    pyr = besov.synthesize_random_besov(sc, N, -0.3, seed=4)
    for p in (1.0, 2.0, math.inf):
        table = besov.level_norms(pyr.details, 0.4, p, sc)
        assert table.shape == (N, pyr.n_psi)
        for n in range(N):
            w = 2.0 ** (-n * sc.total / 2.0 - n * 0.4)
            for j in range(pyr.n_psi):
                assert table[n, j] == besov.lpn_norm(pyr.details[n][j] / w, n, p, sc)
        # single grids give one entry per level
        single = besov.level_norms([d[0] for d in pyr.details], 0.4, p, sc)
        assert np.array_equal(single, table[:, 0])


def test_critical_exponent_is_nan_without_detail_levels(sc1):
    assert math.isnan(besov.critical_exponent(CoeffPyramid.zeros(sc1, 0), 2.0))
    assert math.isnan(besov.critical_exponent(CoeffPyramid.zeros(Scaling((2, 1)), 0), math.inf))
