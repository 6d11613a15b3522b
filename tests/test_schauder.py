import math
import tracemalloc
from fractions import Fraction
from functools import cache, partial
from itertools import product as iproduct

import numpy as np
import pytest
from test_analysis import _pn_deriv, _windowed_quadrature

from rsbesov import analysis as an
from rsbesov import besov, build_wavelet, filters, mra, modelled as md, schauder as sch
from rsbesov import structures as rs
from rsbesov.scaling import Scaling
from rsbesov.util import fit_log2_slope

INF = math.inf

ALPHA, BETA, GAMMA = -0.5, 0.7, 1.25


@pytest.fixture(scope="module")
def riesz_kernel(sc1):
    return sch.decompose_kernel("riesz", sc1, r=3, beta=BETA)


@pytest.fixture(scope="module")
def heat_setup(sc21):
    return sch.decompose_kernel("heat", sc21, r=2)


@pytest.fixture(scope="module")
def extended(sc1, fam6, riesz_kernel):
    xi = besov.synthesize("random_besov", sc1, 9, fam6, alpha=ALPHA, seed=11)
    stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
    st_e, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
    return xi, stn, nm, st_e, em


def xi_md(stn, N):
    vals = np.zeros((*stn.scaling.grid_shape(N), stn.dim))
    vals[..., stn.index("Xi")] = 1.0
    return md.ModelledDistribution(stn, GAMMA, N, vals)


# --- kernel decomposition -------------------------------------------------------


def test_heat_telescoping(heat_setup, sc21):
    K = heat_setup
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, (4000, 2))
    g = sch.s_gauge(sc21, pts)
    L = 8
    keep = (g > 2.0**-L) & (g < 0.9)
    pts = pts[keep]
    approx = K.partial_sum(pts, L, corrected=False) + K.tail(pts)
    truth = K.P(pts)
    rel = np.abs(approx - truth) / np.maximum(np.abs(truth), 1e-12)
    assert np.max(rel) <= 1e-6


def test_heat_moments_cancelled(heat_setup, sc21):
    K = heat_setup
    for m in sc21.multi_indices_below(2.1):
        assert abs(K.p0_moment(tuple(m))) <= 1e-8


def _full_mesh_moment(K, m, mesh_bits):
    """Oracle: the corrected p0 sampled on the box mesh of [-1, 1]^d (by
    _sample_box's row blocks), times x^m, by the midpoint rule.  Only the
    points with |x_i| <= _CORRECTOR_SCALE are sampled: off them p0 is 0."""
    x, w = _box_axis(mesh_bits)
    x = x[np.abs(x) <= sch._CORRECTOR_SCALE]
    vals = sch._sample_box(K.p0, [x] * K.scaling.d)
    for g, mi in zip(np.meshgrid(*[x] * K.scaling.d, indexing="ij", sparse=True), m):
        vals = vals * g**mi
    return float(np.sum(vals) * w**K.scaling.d)


# |p0_moment - the 11-bit full-mesh sum of the pointwise corrected p0|, as a
# fraction of the largest raw moment: measured 7.0e-8 (heat: the box error
# of the raw part, see BOX_TOL) and 1.8e-16 (Riesz, d=1); twice that,
# rounded up.  The corrector half alone is held to round-off below
P0_MESH_TOL = {"heat": 1.5e-7, "riesz": 4e-16}


@pytest.mark.parametrize("which", ["heat", "riesz"])
def test_p0_moment_matches_full_mesh_sum(which, heat_setup, riesz_kernel):
    # p0_moment takes the correctors' moments from the solve's own entries;
    # the pointwise correctors on a fine mesh must integrate to the same
    K = heat_setup if which == "heat" else riesz_kernel
    ms = K.scaling.multi_indices_below(K.r + 0.5)
    assert len(ms) == 4
    scale = max(abs(K._mom_cache[m]) for m in ms)
    for m in ms:
        got = K.p0_moment(m)
        assert abs(got - _full_mesh_moment(K, m, 11)) <= P0_MESH_TOL[which] * scale, m


# |sum_k c_k _corrector_moment(m, k) - the 11-bit mesh sum of the pointwise
# correctors|, as a fraction of the largest raw moment: measured at most
# 3.6e-18 (heat) and 5.0e-17 (Riesz, d=1), i.e. round-off; the correctors
# are smooth, so none of the raw half's box error enters here
CORRECTOR_MESH_TOL = 2e-16


@pytest.mark.parametrize("which", ["heat", "riesz"])
def test_corrector_moments_match_full_mesh_sum(which, heat_setup, riesz_kernel):
    # the solve's matrix entries against the pointwise tensor correctors,
    # apart from the raw half, whose box error would hide an entry error
    K = heat_setup if which == "heat" else riesz_kernel
    d = K.scaling.d
    x, w = _box_axis(11)
    x = x[np.abs(x) <= sch._CORRECTOR_SCALE]
    axes = np.meshgrid(*[x] * d, indexing="ij", sparse=True)
    minus = K._minus_correctors(0.0, (0,) * d, axes)
    ms = K.scaling.multi_indices_below(K.r + 0.5)
    scale = max(abs(K._mom_cache[m]) for m in ms)
    for m in ms:
        vals = minus
        for g, mi in zip(axes, m):
            vals = vals * g**mi
        entries = sum(c * sch._corrector_moment(m, k) for k, c in K.correction_coeffs.items())
        assert abs(np.sum(vals) * w**d + entries) <= CORRECTOR_MESH_TOL * scale, m


@pytest.mark.parametrize("which", ["heat", "riesz"])
def test_p0_raw_is_the_kernel_times_the_cutoff(which, heat_setup, riesz_kernel):
    # the cutoff is skipped where P vanishes, without moving a bit; the heat
    # box has zeros (the gather), the Riesz box none (the whole-array product)
    K = heat_setup if which == "heat" else riesz_kernel
    pts = _support_box_points(K.scaling)
    want = K.P(pts) * sch.annular_cutoff(K.scaling, pts)
    assert K.p0_raw(pts).tobytes() == want.tobytes()


def _support_box_points(sc):
    """The 11-bit mesh points with |x_i| <= 2^-s_i + one cell, in index order."""
    x, w = _box_axis(11)
    axes = [x[np.abs(x) <= 2.0**-si + w] for si in sc.s]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, sc.d)


def _assert_one_mesh_pass(sc, beta, r, n_coeffs, rules, monkeypatch):
    """decompose_kernel evaluates P at the self-similarity points, then once
    per sphere rule, at panel counts `rules` (d=2), and nowhere else; the
    raw moments of every corrected index come from those calls."""
    P, beta = sch.riesz_kernel(sc, beta)
    calls = []  # the points of every kernel call after the self-similarity check
    armed = False
    defect = sch.self_similarity_defect

    def counted(pts):
        if armed:
            calls.append(pts.copy())
        return P(pts)

    def defect_then_arm(*args):
        nonlocal armed
        out = defect(*args)
        armed = True
        return out

    monkeypatch.setattr(sch, "self_similarity_defect", defect_then_arm)
    K = sch.decompose_kernel("custom", sc, r=r, beta=beta, custom=counted)
    assert len(K.correction_coeffs) == n_coeffs
    assert len(calls) == len(rules)
    for got, panels in zip(calls, rules):
        np.testing.assert_array_equal(got, sch._sphere_rule(sc, panels)[0])
        assert np.max(np.abs(sch.s_gauge(sc, got) - 1.0)) <= 4e-16  # on the gauge sphere
    calls.clear()
    for m in K.correction_coeffs:  # raw moments come from those calls
        assert abs(K.p0_moment(m)) <= 1e-8
    assert calls == []


def test_decompose_evaluates_kernel_once_on_mesh(sc1, monkeypatch):
    _assert_one_mesh_pass(sc1, 0.4, 2, 3, [None], monkeypatch)  # one exact rule


def test_decompose_evaluates_kernel_once_on_mesh_2d(sc21, monkeypatch):
    # P is 1 on the sphere: 8 panels miss the closed form by 3e-15, 4 by 2e-12
    _assert_one_mesh_pass(sc21, 1.5, 2, 4, [4, 8, 16], monkeypatch)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# traced peak of the heat kernel's moments, warm caches: the sphere rules
# hold at most 1024 nodes (16 panels); measured 0.12 MB for decompose_kernel
# and 0.05 MB for one p0_moment, where the uniform rules up to 128 panels
# (8192 nodes) took 0.50 MB, and the 514 x 1026-point box before them 4.2 MB
SPHERE_PEAK_BYTES = 2**18


def test_decompose_peak_memory_follows_the_sample_blocks():
    # the first call also fills the corrector bump's moment cache (a 2^14-cell
    # midpoint sum, 0.8 MB), which later calls reuse
    sch.decompose_kernel("heat", Scaling((2, 1)), r=2)
    peak = _traced_peak(lambda: sch.decompose_kernel("heat", Scaling((2, 1)), r=2))
    assert peak <= SPHERE_PEAK_BYTES, peak


def test_p0_moment_peak_memory_follows_the_sample_blocks(heat_setup):
    # a fresh cache: the raw moment comes from the sphere rules again
    K0 = heat_setup
    K = sch.KernelDecomposition(K0.scaling, K0.beta, K0.r, K0.P, dict(K0.correction_coeffs))
    peak = _traced_peak(lambda: K.p0_moment((0, 1)))
    assert peak <= SPHERE_PEAK_BYTES, peak


@pytest.mark.parametrize("which", ["riesz", "heat"])
@pytest.mark.parametrize("deriv", [False, True])
def test_sample_box_matches_one_shot_evaluation(which, deriv, riesz_kernel, heat_setup):
    K = riesz_kernel if which == "riesz" else heat_setup
    d = K.scaling.d
    # a box not a multiple of _BLOCK: about [-0.6, 0.6] at d=1, [-0.5, 0.5] x [-0.4, 0.4] at s=(2,1)
    shape, bits = ((sch._BLOCK + 4099,), (14,)) if d == 1 else ((131, 197), (7, 8))
    assert math.prod(shape) % sch._BLOCK
    k = (1,) + (0,) * (d - 1)
    f = (lambda p: K.p0_deriv(k, p)) if deriv else K.p0_raw
    axes = [-((np.arange(n) - n // 2 + 0.25) / 2.0**b) for n, b in zip(shape, bits)]
    mesh = np.meshgrid(*axes, indexing="ij")
    want = f(np.stack(mesh, axis=-1))
    assert np.count_nonzero(want) > 0.1 * want.size
    got = sch._sample_box(f, axes)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "m",
    [(1,), (0, 0, 0), (-1, 0), (0, -1), (0.5, 0), (1.0, 0), (True, 0), [0, 0], 0, "00"],
)
def test_p0_moment_rejects_bad_indices(heat_setup, m):
    K = heat_setup
    cached = dict(K._mom_cache)
    with pytest.raises(ValueError, match="moment index"):
        K.p0_moment(m)
    with pytest.raises(ValueError, match="moment index"):
        K.pplus_moment(m)
    assert K._mom_cache == cached


def test_p0_moment_checks_before_evaluating(monkeypatch):
    K = _oracle_kernel("heat")
    monkeypatch.setattr(K, "P", None)  # any kernel evaluation would raise TypeError
    with pytest.raises(ValueError, match="moment index"):
        K.p0_moment((1,))
    assert K._mom_cache == {}


@pytest.mark.parametrize("levels", [-1, 2.5, True, "2"])
def test_pplus_moment_rejects_bad_levels(heat_setup, levels):
    with pytest.raises(ValueError, match="levels must be an integer >= 0"):
        heat_setup.pplus_moment((0, 0), levels=levels)


def test_pplus_moment_accepts_zero_levels(heat_setup):
    assert heat_setup.pplus_moment((0, 0), levels=0) == 0.0


# --- the P0 moments in polar coordinates, and the box oracle -------------------


def _box_axis(mesh_bits):
    """Midpoints of 2^mesh_bits equal cells on [-1, 1] and the cell width."""
    n = 2**mesh_bits
    return np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n, 2.0 / n


def _support_box(scaling, x, w):
    """Per axis, the slice of the sorted mesh axis x with |x_i| <= 2^-s_i + w.

    Off it some |x_i|^{1/s_i} > 1/2, so the gauge g >= 1/2 and the annular
    cutoff is exactly 0 - 0 there; one cell w of slack keeps rounding out.
    """
    return tuple(
        slice(*np.searchsorted(x, [-(2.0**-si) - w, 2.0**-si + w])) for si in scaling.s
    )


def _box_moments(f, scaling, ms, mesh_bits):
    """The independent oracle of the polar moments: midpoint-rule moments x^m
    of f on the 2^mesh_bits-per-axis mesh of [-1, 1]^d, summed over the
    support box only (f is a multiple of the annular cutoff), held whole."""
    x, w = _box_axis(mesh_bits)
    sub = [x[b] for b in _support_box(scaling, x, w)]
    vals = sch._sample_box(f, sub)
    axes = np.meshgrid(*sub, indexing="ij", sparse=True)
    out = {}
    for m in ms:
        mono = np.ones(vals.shape)
        for i, mi in enumerate(m):
            if mi:
                mono = mono * axes[i] ** mi
        out[m] = float(np.sum(vals * mono) * w**scaling.d)
    return out


def _ref_box_moments(f, scaling, ms, mesh_bits):
    """Oracles from one evaluation `full` of f on the whole box mesh, per m:
    box, numpy's sum of full * x^m over the support box (the bits the box
    moments must have); mesh, numpy's full-mesh sum; exact, the correctly
    rounded full-mesh sum (math.fsum); scale, the sum of |f x^m|.  All times
    the cell volume w^d, a power of two."""
    x, w = _box_axis(mesh_bits)
    box = _support_box(scaling, x, w)
    axes = np.meshgrid(*[x] * scaling.d, indexing="ij", sparse=True)
    full = f(np.stack(np.broadcast_arrays(*axes), axis=-1))
    wd = w**scaling.d
    out = {}
    for m in ms:
        mono = np.ones(full.shape)
        for i, mi in enumerate(m):
            if mi:
                mono = mono * axes[i] ** mi
        terms = (full * mono).ravel()
        out[m] = {
            "box": float(np.sum(full[box] * mono[box]) * wd),
            "mesh": float(np.sum(terms) * wd),
            "exact": math.fsum(terms) * wd,
            "scale": math.fsum(np.abs(terms)) * wd,
        }
    return out


def _assert_box_sums(got, want):
    """got: the box moments; want: _ref_box_moments at the same mesh."""
    assert got.keys() == want.keys()
    for m, ref in want.items():
        assert got[m] == ref["box"], m
        tol = 1e-15 * ref["scale"]
        assert abs(got[m] - ref["exact"]) <= tol, m
        assert abs(ref["mesh"] - ref["exact"]) <= tol, m


def _skewed_kernel(sc, beta):
    """Self-similar and not even in time: g^(beta-|s|) (3/2 + x_0 / g^s_0)."""

    def P(pts):
        g = sch.s_gauge(sc, pts)
        return g ** (beta - sc.total) * (1.5 + pts[..., 0] / g ** sc.s[0])

    return P


def _oracle_kernel(which):
    """An undecomposed kernel: p0_raw needs only P and the scaling."""
    s, beta, r = {
        "heat": ((2, 1), 2.0, 2),
        "riesz-d1": ((1,), 0.7, 3),
        "riesz-21": ((2, 1), 1.5, 2),
        "custom": ((2, 1), 1.2, 2),
    }[which]
    sc = Scaling(s)
    if which == "heat":
        P = sch.heat_kernel(sc)[0]
    elif which == "custom":
        P = _skewed_kernel(sc, beta)
        assert sch.self_similarity_defect(P, sc, beta) <= 1e-9
    else:
        P = sch.riesz_kernel(sc, beta)[0]
    return sch.KernelDecomposition(sc, beta, r, P)


@pytest.mark.parametrize("mesh_bits", [7, 9])
@pytest.mark.parametrize("which", ["heat", "riesz-d1", "riesz-21", "custom"])
def test_box_moments_match_full_mesh_oracle(which, mesh_bits):
    K = _oracle_kernel(which)
    sc = K.scaling
    # every moment up to one scaled degree past the corrected ones
    ms = [tuple(m) for m in sc.multi_indices_below(K.r + 1.5)]
    got = _box_moments(K.p0_raw, sc, ms, mesh_bits)
    _assert_box_sums(got, _ref_box_moments(K.p0_raw, sc, ms, mesh_bits))


# |polar - box| / the largest moment, every m up to scaled degree r + 1.5,
# measured at 11 / 12 bits: heat 7.0e-8 / 6.7e-10 (the box misses the heat
# kernel's t -> 0+ edge at the annulus), Riesz at s=(2,1) 6.6e-14 / 5.4e-18,
# the skewed kernel 7.8e-14 / 3.7e-17, Riesz at d=1 2.5e-17 at both.  Each
# bound is twice the figure rounded up, and 1e-15 where it is at round-off.
BOX_TOL = {
    ("heat", 11): 1.5e-7,
    ("heat", 12): 1.5e-9,
    ("riesz-d1", 11): 1e-15,
    ("riesz-d1", 12): 1e-15,
    ("riesz-21", 11): 1.5e-13,
    ("riesz-21", 12): 1e-15,
    ("custom", 11): 1.6e-13,
    ("custom", 12): 1e-15,
}


@pytest.mark.parametrize("mesh_bits", [11, 12])
@pytest.mark.parametrize("which", ["heat", "riesz-d1", "riesz-21", "custom"])
def test_polar_moments_match_the_box_oracle(which, mesh_bits):
    K = _oracle_kernel(which)  # no correctors: p0_moment is the raw moment
    ms = [tuple(m) for m in K.scaling.multi_indices_below(K.r + 1.5)]
    got = {m: K.p0_moment(m) for m in ms}
    box = _box_moments(K.p0_raw, K.scaling, ms, mesh_bits)
    scale = max(abs(v) for v in got.values())
    for m in ms:
        assert abs(got[m] - box[m]) <= BOX_TOL[which, mesh_bits] * scale, m


def test_decompose_moments_match_full_mesh_oracle(heat_setup, sc21):
    # the module fixture solved with the polar raw moments, cached per index;
    # the full-mesh sums at 11 bits (the support box holds every nonzero
    # term) miss them by the box error
    K = heat_setup
    ks = list(K.correction_coeffs)
    assert {m: K._mom_cache[m] for m in ks} == sch._raw_moments(K.P, sc21, K.beta, ks)
    box = _box_moments(K.p0_raw, sc21, ks, 11)
    scale = max(abs(K._mom_cache[m]) for m in ks)
    for m in ks:
        assert abs(K._mom_cache[m] - box[m]) <= BOX_TOL["heat", 11] * scale, m


@pytest.mark.parametrize("s", [(2, 1), (1, 1), (3, 1)])
def test_sphere_rule_matches_the_closed_form(s):
    # with P = 1, A_m is |s| + |m|_s times the volume moment of g <= 1:
    # (|m|_s + |s|) 4/(ab) G(p) G(q) / G(p + q + 1), p = (m_0 + 1)/a,
    # q = (m_1 + 1)/b, for even m, and 0 for odd m
    sc = Scaling(s)
    M = math.lcm(*s)
    a, b = 2 * M / s[0], 2 * M / s[1]
    ms = [tuple(m) for m in sc.multi_indices_below(4.5)]
    got = sch._sphere_moments(lambda p: np.ones(p.shape[:-1]), sc, ms)
    for m in ms:
        if m[0] % 2 or m[1] % 2:
            pts, w = sch._sphere_rule(sc, 16)
            scale = float(np.sum(w * np.prod(np.abs(pts) ** np.array(m), axis=-1)))
            assert abs(got[m]) <= 1e-14 * scale, m
            continue
        p, q = (m[0] + 1) / a, (m[1] + 1) / b
        beta_pq = math.gamma(p) * math.gamma(q) / math.gamma(p + q + 1)
        want = (sc.scaled_degree(m) + sc.total) * 4 / (a * b) * beta_pq
        assert abs(got[m] - want) <= 1e-14 * want, m


def _uniform_sphere_rule(sc, panels):
    """The d=2 gauge-sphere rule with uniform panels in both charts: the
    reference whose settled moments the graded cap chart must reproduce."""
    s = sc.s
    M = math.lcm(*s)
    u, w = sch._panel_rule(np.linspace(0.0, 1.0, panels + 1), sch._GL_NODES)
    pts, wts = np.empty((2, 4, u.size, 2)), np.empty((2, 4, u.size))
    for c, ax in enumerate((1, 0)):
        own, other = 2 * M / s[ax], 2 * M / s[1 - ax]
        end = 0.5 ** (1.0 / own)
        v = end * u
        rest = (1.0 - v**own) ** (1.0 / other)
        wts[c] = s[1 - ax] * rest ** (1.0 - other) * end * w
        for j, (sv, sr) in enumerate(iproduct((1.0, -1.0), repeat=2)):
            pts[c, j, :, ax], pts[c, j, :, 1 - ax] = sv * v, sr * rest
    return pts.reshape(-1, 2), wts.reshape(-1)


def test_heat_sphere_rule_settles_at_16_panels(sc21):
    # the graded cap chart settles after the 4-, 8- and 16-panel rules, where
    # uniform panels needed six rules, up to 128; the settled moments are
    # those of the uniform 128-panel rule with float powers (measured equal)
    P = sch.heat_kernel(sc21)[0]
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return P(pts)

    ms = [tuple(m) for m in sc21.multi_indices_below(2 + 1.5)]
    got = sch._sphere_moments(counted, sc21, ms)
    assert calls == [2 * 4 * p * sch._GL_NODES for p in (4, 8, 16)]
    pts, w = _uniform_sphere_rule(sc21, 128)
    w = w * P(pts)
    for m in ms:
        terms = w * np.prod(pts ** np.array(m), axis=1)
        assert abs(got[m] - terms.sum()) <= 1e-15 * np.abs(terms).sum(), m


@pytest.mark.parametrize("s", [(1,), (2, 1)])
def test_sphere_moments_of_no_index_are_empty(s):
    # the power tables go up to the largest m_i of no index at all
    P = sch.riesz_kernel(Scaling(s), 0.7)[0]
    assert sch._sphere_moments(P, Scaling(s), []) == {}


def test_d1_odd_raw_moments_are_exact_zeros():
    # the sphere {1, -1} of an even kernel: the two terms cancel exactly
    K = _oracle_kernel("riesz-d1")
    assert [K.p0_moment((m,)) for m in (1, 3, 5)] == [0.0, 0.0, 0.0]
    assert K.p0_moment((2,)) > 0


def test_gauss_legendre_matches_numpy():
    for n in (1, 2, 8, 9, 12):
        x, w = sch._gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(np.sort(x), want_x, rtol=0, atol=1e-15)
        np.testing.assert_allclose(w[np.argsort(x)], want_w, rtol=0, atol=1e-15)


def _irwin_hall_moment(k):
    """E[(S_8)^k] for S_8 the sum of 8 independent uniforms on [0, 1], exactly:
    the cutoff's spline CDF is that of 1/4 + S_8 / 32."""
    mom = [Fraction(1)] + [Fraction(0)] * k  # the moments of 0, the sum of no uniforms
    for _ in range(8):
        mom = [
            sum(math.comb(j, i) * mom[i] * Fraction(1, j - i + 1) for i in range(j + 1))
            for j in range(k + 1)
        ]
    return mom[k]


@pytest.mark.parametrize("e", [0, 1, 2, 3, 6])
def test_radial_integral_exact_for_integer_powers(e):
    # R(e) = (1 - 2^(-e-1)) int_0^(1/2) rho^e S, and by parts that integral
    # is E[rho^(e+1)] / (e + 1) for rho = 1/4 + S_8 / 32, the law of the
    # spline CDF that S falls by
    mean = sum(
        math.comb(e + 1, j) * Fraction(1, 4) ** (e + 1 - j) * Fraction(1, 32) ** j * _irwin_hall_moment(j)
        for j in range(e + 2)
    )
    want = (1 - Fraction(1, 2 ** (e + 1))) * mean / (e + 1)
    assert abs(sch._radial_integral(e) - want) <= 2e-16 * want


@pytest.mark.parametrize("e", [0.7 - 1, 1.5 + 0.7 - 1, 2.7, 9.5])
def test_radial_integral_converged_for_other_powers(e):
    # against numpy's 16-point rule on four panels per spline piece
    knots = sch._CDF.start + np.arange(len(sch._CDF.coeffs) + 1) / sch._CDF.rate
    edges = np.concatenate([knots[:-1] / 2.0, knots])
    fine = np.concatenate([np.linspace(lo, hi, 5)[:-1] for lo, hi in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    x, w = np.polynomial.legendre.leggauss(16)
    half = np.diff(fine)[:, None] / 2.0
    rho, wt = (fine[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()
    want = float(np.sum(wt * rho**e * (sch._step(rho) - sch._step(2.0 * rho))))
    assert abs(sch._radial_integral(e) - want) <= 1e-15 * want


@pytest.mark.parametrize("mesh_bits", [1, 2, 3, 7, 9])
@pytest.mark.parametrize("s", [(1,), (2, 1), (1, 1), (3, 1)])
def test_annular_cutoff_vanishes_off_the_support_box(s, mesh_bits):
    sc = Scaling(s)
    x, w = _box_axis(mesh_bits)
    box = _support_box(sc, x, w)
    mesh = np.meshgrid(*[x] * sc.d, indexing="ij")
    chi = sch.annular_cutoff(sc, np.stack(mesh, axis=-1))
    off = np.ones(chi.shape, dtype=bool)
    off[box] = False
    assert np.all(chi[off] == 0.0)
    if mesh_bits == 1:  # one cell of slack reaches past both ends of the axis
        assert all(b == slice(0, 2) for b in box)
    if mesh_bits >= 7:  # and only one cell past the support
        for b, si in zip(box, s):
            assert np.max(np.abs(x[b])) <= 2.0**-si + w < np.min(np.abs(np.delete(x, b)))


def test_p0_mesh_past_the_size_limit_rejected():
    # d >= 3 needs a 2-d sphere rule: refused before anything is evaluated
    def unevaluated(pts):
        raise AssertionError("the kernel was evaluated")

    msg = r"the P0 moments at s=\(2, 1, 1\) need a 2-d gauge-sphere rule"
    with pytest.raises(ValueError, match=msg):
        sch.decompose_kernel("heat", Scaling((2, 1, 1)), r=2)
    with pytest.raises(ValueError, match=msg):
        sch.decompose_kernel("custom", Scaling((2, 1, 1)), r=2, beta=1.0, custom=unevaluated)
    K = sch.KernelDecomposition(Scaling((2, 1, 1)), 2.0, 2, unevaluated)
    with pytest.raises(ValueError, match=msg):
        K.p0_moment((0, 0, 0))


def test_sphere_rule_that_does_not_settle_names_the_moment():
    # a kernel that is NaN on the sphere never settles
    K = sch.KernelDecomposition(Scaling((2, 1)), 1.5, 2, lambda p: np.full(p.shape[:-1], np.nan))
    with pytest.raises(ValueError, match=r"P0 moment m=\(1, 0\) has not settled at 1024 panels"):
        K.p0_moment((1, 0))


def test_scaling_identity_exact(riesz_kernel):
    # levels are generated, not measured: check the identity numerically anyway
    K = riesz_kernel
    pts = np.linspace(-0.4, 0.4, 101)[:, None]
    for n in (1, 3):
        a = K.pn(n, pts)
        b = 2.0 ** (n * (K.scaling.total - K.beta)) * K.p0(
            pts * 2.0 ** (n * np.array(K.scaling.s, dtype=float))
        )
        np.testing.assert_allclose(a, b, atol=0)


def test_riesz_moments_cancelled(riesz_kernel):
    for m in range(4):
        assert abs(riesz_kernel.p0_moment((m,))) <= 1e-8


def test_riesz_support(riesz_kernel, sc1):
    pts = np.linspace(-1.2, 1.2, 2001)[:, None]
    vals = riesz_kernel.p0(pts)
    outside = np.abs(pts[:, 0]) > 1.0
    assert np.max(np.abs(vals[outside])) == 0.0


def test_custom_kernel_rejected_without_self_similarity(sc1):
    bad = lambda pts: np.exp(-np.abs(pts[..., 0]))  # noqa: E731
    with pytest.raises(ValueError, match="self-similar"):
        sch.decompose_kernel("custom", sc1, r=2, beta=0.5, custom=bad)


def _power(e):
    """|x|^e at d=1: self-similar for beta = 1 + e."""
    return lambda pts: np.abs(pts[..., 0]) ** e


@pytest.mark.parametrize(
    "beta, P, reason",
    [
        (math.nan, _power(1.0), "finite beta > 0"),  # its defect was NaN, and NaN > 1e-9 is False
        (math.inf, _power(1.0), "finite beta > 0"),
        (-0.5, _power(-1.5), "finite beta > 0"),
        (0.0, _power(-1.0), "finite beta > 0"),  # pplus_moment then divided by zero
        (0.5, lambda pts: np.full(pts.shape[:-1], np.nan), "not exactly self-similar"),
    ],
    ids=["nan-beta", "inf-beta", "negative-beta", "zero-beta", "nan-kernel"],
)
def test_custom_kernel_rejects_bad_beta_or_nan(sc1, beta, P, reason):
    with pytest.raises(ValueError, match=reason):
        sch.decompose_kernel("custom", sc1, r=2, beta=beta, custom=P)


def test_custom_kernel_refused_when_only_dyadically_self_similar(sc1):
    # |x|^(beta-1) (2 + sin(2 pi log2|x|)) is self-similar under x -> 2x but
    # not homogeneous under every dilation, which the polar moments need; it
    # was accepted, with O(1)-wrong raw moments and correction coefficients
    beta = 0.7

    def log_periodic(pts):
        u = np.abs(pts[..., 0])
        return u ** (beta - 1.0) * (2.0 + np.sin(2.0 * np.pi * np.log2(u)))

    with pytest.raises(ValueError, match="not exactly self-similar"):
        sch.decompose_kernel("custom", sc1, r=2, beta=beta, custom=log_periodic)


def test_custom_self_similar_accepted(sc1):
    P, beta = sch.riesz_kernel(sc1, 0.4)
    K = sch.decompose_kernel("custom", sc1, r=2, beta=0.4, custom=P)
    assert K.beta == 0.4


@pytest.mark.parametrize("r", [-1, True, 2.5, "2"])
def test_decompose_rejects_bad_r(sc1, r):
    # -1 was accepted silently and True taken as 1; 2.5 and "2" gave a bare TypeError
    def unevaluated(pts):
        raise AssertionError("the kernel was evaluated")

    with pytest.raises(ValueError, match="r must be an integer >= 0"):
        sch.decompose_kernel("custom", sc1, r=r, beta=0.4, custom=unevaluated)


# --- extension -------------------------------------------------------------------


def test_extension_homogeneities(extended):
    xi, stn, nm, st_e, em = extended
    assert st_e.index("IXi") >= 0
    assert st_e.symbols[st_e.index("IXi")].zeta == pytest.approx(ALPHA + BETA)
    names = [s.name for s in st_e.symbols]
    assert "X^1" in names  # polynomial sector extended past gamma


def test_extension_rejects_integer_collision(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.5, seed=1)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    K = sch.decompose_kernel("riesz", sc1, r=2, beta=0.5)  # alpha + beta = 0
    with pytest.raises(ValueError, match="integer"):
        sch.extend_structure(stn, nm, K, 1.25)


def _integration_matrix(structure):
    """The abstract integration map: Xi -> IXi, polynomials -> 0."""
    M = np.zeros((structure.dim, structure.dim))
    if "Xi" in structure._by_name and "IXi" in structure._by_name:
        M[structure.index("IXi"), structure.index("Xi")] = 1.0
    return M


def test_integration_map_grading(extended):
    # the map raises homogeneity by beta: Xi -> IXi, and the extended
    # structure grades IXi at zeta(Xi) + beta
    xi, stn, nm, st_e, em = extended
    M = _integration_matrix(st_e)
    assert M[st_e.index("IXi"), st_e.index("Xi")] == 1.0
    for i, s in enumerate(st_e.symbols):
        if s.kind == "poly":
            assert np.max(np.abs(M[:, i])) == 0.0
    for j, i in zip(*np.nonzero(M)):
        assert st_e.symbols[j].zeta == pytest.approx(st_e.symbols[i].zeta + em.kernel.beta, abs=1e-12)


def test_extended_model_validates(extended):
    xi, stn, nm, st_e, em = extended
    rep = rs.validate_model(em, GAMMA + BETA, n_samples=80)
    assert rep.max_violation <= 1e-8


def test_defpix_self_consistency_two_resolutions(sc1, fam6, riesz_kernel, monkeypatch):
    xi = besov.synthesize("random_besov", sc1, 8, fam6, alpha=ALPHA, seed=11)
    stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
    _, em_hi = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)  # margin 8
    monkeypatch.setattr(sch, "_deriv_kernel_array", partial(sch._deriv_kernel_array, margin=6))
    _, em_lo = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
    for n in (3, 5, 8):
        a = em_hi.pi_center_weights(n)[em_hi.ixi_index]
        b = em_lo.pi_center_weights(n)[em_lo.ixi_index]
        assert np.max(np.abs(a - b)) <= 1e-6


def test_ixi_mother_decay_slope(sc1, fam6, riesz_kernel):
    # <Pi_x I Xi, psi^n_x> decays like 2^{-n(zeta + |s|/2)}, zeta = alpha + beta
    N = 10
    xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=ALPHA, seed=11)
    stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
    _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
    ns = np.arange(2, N)
    vals = []
    for n in ns:
        det = em.conv_pyramid.details[n][0]
        acc = det.copy()
        for ell in em.taylor_ks:
            tl = em.t_tables[ell][sc1.level_index(n, N)]
            mother_moment = filters.mother_moments(fam6.h, ell[0])[ell[0]]
            pair = 2.0 ** (-n * (ell[0] + 0.5)) * mother_moment
            acc = acc - tl / math.factorial(ell[0]) * pair
        # l^2 aggregation avoids the extreme-value bias of the sup
        vals.append(besov.lpn_norm(acc * 2.0 ** (n * 0.5), n, 2.0, sc1))
    slope = -fit_log2_slope(ns, np.array(vals))
    assert abs(slope - (ALPHA + BETA)) <= 0.1


# --- the convolution operator ----------------------------------------------------


def test_apply_zero(extended):
    xi, stn, nm, st_e, em = extended
    N = em.N
    z = md.ModelledDistribution(stn, GAMMA, N, np.zeros((2**N, stn.dim)))
    out, rep = sch.schauder_apply(z, em, 2.0, INF)
    assert np.max(np.abs(out.values)) == 0.0


def test_apply_linear(extended):
    xi, stn, nm, st_e, em = extended
    N = em.N
    f = xi_md(stn, N)
    rng = np.random.default_rng(0)
    vals = f.values.copy()
    vals[..., stn.index("1")] = np.cos(2 * np.pi * np.arange(2**N) / 2**N)
    g = md.ModelledDistribution(stn, GAMMA, N, vals)
    of, _ = sch.schauder_apply(f, em, 2.0, INF, with_norm=False)
    og, _ = sch.schauder_apply(g, em, 2.0, INF, with_norm=False)
    ofg, _ = sch.schauder_apply(
        md.ModelledDistribution(stn, GAMMA, N, 2.0 * f.values + 0.5 * g.values),
        em,
        2.0,
        INF,
        with_norm=False,
    )
    diff = ofg.values - 2.0 * of.values - 0.5 * og.values
    assert np.max(np.abs(diff)) <= 1e-12 * max(1.0, np.max(np.abs(ofg.values)))


def test_apply_xi_components(extended):
    xi, stn, nm, st_e, em = extended
    f = xi_md(stn, em.N)
    out, rep = sch.schauder_apply(f, em, 2.0, INF)
    assert out.gamma == pytest.approx(GAMMA + BETA)
    np.testing.assert_allclose(out.values[..., st_e.index("IXi")], 1.0, atol=0)
    assert np.max(np.abs(out.values[..., st_e.index("Xi")])) == 0.0
    assert rep.total < np.inf


def test_apply_gamma_preconditions(extended):
    xi, stn, nm, st_e, em = extended
    N = em.N
    vals = np.zeros((2**N, stn.dim))
    vals[..., stn.index("Xi")] = 1.0
    with pytest.raises(ValueError):
        f_bad = md.ModelledDistribution(stn, 1.3000001e0, N, vals)  # gamma+beta ~ 2
        # gamma + beta = 2.0000001: rejected as an integer collision
        sch.schauder_apply(f_bad, em, 2.0, INF)


def test_poly_f0_matches_direct_convolution(sc1, fam6, riesz_kernel):
    # polynomial input: the function-level output equals P+ * F
    N = 8
    xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=ALPHA, seed=4)
    stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
    _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
    pts = sc1.grid_points(N)[..., 0]
    vals = np.zeros((2**N, stn.dim))
    vals[..., stn.index("1")] = np.sin(2 * np.pi * pts)
    vals[..., stn.index("X^1")] = 2 * np.pi * np.cos(2 * np.pi * pts)
    f = md.ModelledDistribution(stn, GAMMA, N, vals)
    out, _ = sch.schauder_apply(f, em, 2.0, INF, with_norm=False)
    # direct convolution oracle against the analyzed projection of F
    target_c = an.analyze_kernel(
        an.SeparableKernel([(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x), None)])]),
        fam6,
        sc1,
        N,
    )
    direct = an.correlate(target_c, em.w_arrays[(0,)])
    rel = np.max(np.abs(out.values[..., stn.index("1")] - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-3


def test_convolution_identity_xi(extended):
    xi, stn, nm, st_e, em = extended
    f = xi_md(stn, em.N)
    rel, per_level = sch.convolution_identity_check(f, em, 2.0, INF)
    assert rel <= 1e-12


def test_convolution_identity_mixed_refines(sc1, fam6, riesz_kernel):
    rels = {}
    for N in (6, 8):
        xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=ALPHA, seed=4)
        stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
        _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
        pts = sc1.grid_points(N)[..., 0]
        vals = np.zeros((2**N, stn.dim))
        vals[..., stn.index("Xi")] = 1.0
        vals[..., stn.index("1")] = np.sin(2 * np.pi * pts)
        vals[..., stn.index("X^1")] = 2 * np.pi * np.cos(2 * np.pi * pts)
        f = md.ModelledDistribution(stn, GAMMA, N, vals)
        rels[N] = sch.convolution_identity_check(f, em, 2.0, INF)[0]
    assert rels[8] <= 1e-3
    assert rels[8] < rels[6]


def test_besov_gain(sc1, fam6, riesz_kernel):
    N = 10
    gains = []
    for seed in (11, 12):
        xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=ALPHA, seed=seed)
        stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
        _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA)
        cN = mra.level_coefficients(xi, fam6, N)
        conv = mra.forward_transform(an.correlate(cN, em.w_arrays[(0,)]), fam6, sc1)
        gains.append(
            besov.critical_exponent(conv, 2.0) - besov.critical_exponent(xi, 2.0)
        )
    for g in gains:
        assert abs(g - BETA) <= 0.2


# frozen once: D^{gamma+beta} norm of P+ f over the input budget
SCHAUDER_NORM_C = 300.0


def test_output_norm_within_budget(extended):
    xi, stn, nm, st_e, em = extended
    f = xi_md(stn, em.N)
    out, rep = sch.schauder_apply(f, em, 2.0, INF)
    d = besov.make_dictionary(2, scales=range(2, 6))
    norms = rs.model_norms(em, GAMMA, d)
    budget = md.d_norm(f, em if f.structure is st_e else nm, 2.0, INF).total
    assert rep.total <= SCHAUDER_NORM_C * budget * norms.pi * (1.0 + norms.gamma)


# --- the self-similar route at s=(2,1) -------------------------------------------
# Tolerances from the route's convergence table (heat kernel, order 6, N=1,
# against the route at (12, 10) sample bits per axis): each is the next power
# of ten above twice the table's figure for the same check at the default
# (9, 8) bits, and 1e-14 where that figure is at roundoff.

KS21 = [(0, 0), (1, 0), (0, 1)]


@pytest.fixture(scope="module")
def heat_n1_pieces(fam6, heat_setup):
    """The heat kernel's pieces on R at N=1, levels 2, default margin."""
    return {k: sch._self_similar_pieces(heat_setup, k, fam6, 1, 2, 8) for k in KS21}


def _uncorrected_heat_kernel(sc21):
    """The heat decomposition with no moment correction: its P+ moments of
    degree 0 and 1 in time are nonzero, so an integration check sees them."""
    P, beta = sch.heat_kernel(sc21)
    return sch.KernelDecomposition(sc21, beta, 2, P)


def _p_plus_pairing_nd(K, m, k, levels):
    """<u^m, d^k P+(-u)> = (-1)^(|m|+|k|) m!/(m-k)! int x^(m-k) P+, by parts."""
    if any(a > b for a, b in zip(k, m)):
        return 0.0
    fac = math.prod(math.perm(a, b) for a, b in zip(m, k))
    diff = tuple(a - b for a, b in zip(m, k))
    return (-1.0) ** (sum(m) + sum(k)) * fac * K.pplus_moment(diff, levels)


# Per-check tolerances of _assert_nd_moments, (sum, first moment in t, first
# moment in x) per (k, levels), each the next power of ten above twice the
# measured miss, 1e-14 where that is below 2e-16.  Measured at (9, 8) sample
# bits, the same for both kernels; pplus_moment is exact (polar moments), so
# every figure is the route's own error.  Wherever the pairing is
# +-pplus_moment((0, 0)) the route misses it by 3.0e-11 / 3.8e-11 at levels
# 1 / 2 (the 11-bit box moments missed the pairing by 4.9e-9 / 6.1e-9); the
# k=(0, 0) first moment in t misses by 3.9e-14 / 4.1e-14 (9.4e-12 / 1.0e-11),
# the k=(1, 0) first moment in t by 2.8e-11 / 3.5e-11 (4.9e-9 / 6.1e-9).  The
# k=(1, 0) sum misses 0 by -1.1e-8 / -2.2e-8, the finite differences' error.
ND_MOMENT_TOL = {
    ((0, 0), 1): (1e-10, 1e-13, 1e-14),
    ((0, 0), 2): (1e-10, 1e-13, 1e-14),
    ((1, 0), 1): (1e-7, 1e-10, 1e-14),
    ((1, 0), 2): (1e-7, 1e-10, 1e-14),
    ((0, 1), 1): (1e-14, 1e-14, 1e-10),
    ((0, 1), 2): (1e-14, 1e-14, 1e-10),
}


def _assert_nd_moments(K, pieces_of, fam6, sc21):
    # the s=(2,1) form of test_d1_route_integrates_to_p0_moments at N=1:
    # sum_t w_t 2^(-N|s|/2) and the first moment per axis of the R-line pieces
    # against the P+ pairing
    N = 1
    for k in KS21:
        pieces = pieces_of(k)
        for levels in (1, 2):
            total, first = 0.0, [0.0, 0.0]
            for t0, c in pieces[:levels]:
                total += float(np.sum(c)) * 2.0 ** (-N * sc21.total / 2.0)
                for ax in (0, 1):
                    t = t0[ax] + np.arange(c.shape[ax]) + fam6.father_moments[1]
                    w = np.sum(c, axis=1 - ax) * 2.0 ** (-N * (sc21.total / 2.0 + sc21.s[ax]))
                    first[ax] += float(np.sum(w * t))
            tol_sum, *tol_first = ND_MOMENT_TOL[k, levels]
            assert abs(total - _p_plus_pairing_nd(K, (0, 0), k, levels)) < tol_sum, (k, levels)
            for ax, m in enumerate([(1, 0), (0, 1)]):
                assert abs(first[ax] - _p_plus_pairing_nd(K, m, k, levels)) < tol_first[ax], (k, levels, m)


def test_nd_route_integrates_to_p0_moment(sc21, fam6, heat_setup, heat_n1_pieces):
    _assert_nd_moments(heat_setup, heat_n1_pieces.__getitem__, fam6, sc21)


def test_nd_route_integrates_uncorrected_moments(sc21, fam6):
    K = _uncorrected_heat_kernel(sc21)
    _assert_nd_moments(K, lambda k: sch._self_similar_pieces(K, k, fam6, 1, 2, 8), fam6, sc21)
    assert abs(K.pplus_moment((0, 0), 1)) > 0.05  # the check is not vacuous
    assert abs(K.pplus_moment((1, 0), 1)) > 0.005


@pytest.mark.parametrize("k, tol", [((0, 0), 1e-8), ((1, 0), 1e-6), ((0, 1), 1e-8)], ids=["00", "10", "01"])
def test_nd_route_converges_in_the_sample_bits(sc21, fam6, heat_setup, heat_n1_pieces, k, tol):
    # one more sample bit per axis, (10, 9) against (9, 8); in the table the
    # (9, 8) arrays miss the reference by 3.3e-9 / 2.5e-7 / 2.9e-9 of the sup.
    # The (9, 8) pieces are put on the torus here, by np.add.at.
    fine = sch._deriv_kernel_array(heat_setup, k, fam6, sc21, 1, 2, margin=9)
    want = np.zeros_like(fine)
    for t0, c in heat_n1_pieces[k]:
        np.add.at(want, np.ix_(*[(a + np.arange(m)) % M for a, m, M in zip(t0, c.shape, want.shape)]), c)
    assert np.max(np.abs(want - fine)) <= tol * np.max(np.abs(fine))


def _window(fam, bits, reach):
    """Sample indices [lo, hi) of |x| <= reach at level `bits`, point
    (j + center) 2^-bits, plus 3 samples of stencil pad."""
    r = reach * 2.0**bits
    return math.floor(-r - fam.center) - 3, math.ceil(r - fam.center) + 4


def _full_box(K, k, fam, N, margin):
    """The windows of the one box that holds both the raw part and the
    correctors of d^k P0, |x_i| <= max(2^-s_i + k_i h, _CORRECTOR_SCALE)."""
    bits = [N * si + margin + si - 1 for si in K.scaling.s]
    return bits, [
        _window(fam, bi, max(2.0**-si + ki * sch._FD_STEP, sch._CORRECTOR_SCALE))
        for si, ki, bi in zip(K.scaling.s, k, bits)
    ]


def _full_box_pieces(K, k, fam, N, levels, margin):
    """The route with p0_deriv sampled pointwise on the full box, then the
    stencil and the exact low-pass steps: the oracle for _self_similar_pieces."""
    sc = K.scaling
    bits, windows = _full_box(K, k, fam, N, margin)
    S = sch._sample_box(
        lambda p: K.p0_deriv(k, p),
        [-((np.arange(lo, hi) + fam.center) / 2.0**b) for (lo, hi), b in zip(windows, bits)],
    )
    c = an._stencil(S, fam.centered_father_moments) * 2.0 ** (-sum(bits) / 2.0)
    t0 = [lo for lo, _ in windows]
    e = sc.total - K.beta + sc.scaled_degree(k) - sc.total / 2.0
    out = []
    for n, counts in enumerate([[margin + si - 1 for si in sc.s]] + [sc.s] * (levels - 1)):
        for ax, m in enumerate(counts):
            for _ in range(m):
                t0[ax], c = sch._low_pass_on_line(t0[ax], c, fam.h, ax)
        out.append((tuple(t0), c * 2.0 ** (n * e)))
    return out


@pytest.mark.parametrize("which", ["riesz", "heat"])
def test_two_box_route_matches_the_full_box_route(fam6, riesz_kernel, heat_setup, heat_n1_pieces, which):
    # the raw part on its own box and the correctors as products of 1-d
    # factors give the same bits as p0_deriv on every point of the full box
    if which == "riesz":
        K, N, levels, ks = riesz_kernel, 8, 10, [(0,), (1,), (2,)]
        pieces_of = lambda k: sch._self_similar_pieces(K, k, fam6, N, levels, 8)  # noqa: E731
    else:
        K, N, levels, ks = heat_setup, 1, 2, KS21
        pieces_of = heat_n1_pieces.__getitem__
    for k in ks:
        got, want = pieces_of(k), _full_box_pieces(K, k, fam6, N, levels, 8)
        assert len(got) == len(want) == levels
        for (t0, c), (t0_want, c_want) in zip(got, want):
            assert t0 == t0_want, k
            np.testing.assert_array_equal(c, c_want)


def test_route_evaluates_the_raw_part_on_its_support_box(fam6, heat_setup):
    # at s=(2,1) the correctors reach |t| <= 1/2, the raw part only
    # |t| <= 1/4 + k_0 h: P is evaluated on about half of the full box
    K0, N, margin = heat_setup, 1, 8
    sc = K0.scaling
    seen = {"points": 0, "reach": np.zeros(sc.d)}

    def counted(pts):
        seen["points"] += pts.size // sc.d
        seen["reach"] = np.maximum(seen["reach"], np.max(np.abs(pts.reshape(-1, sc.d)), axis=0))
        return K0.P(pts)

    K = sch.KernelDecomposition(sc, K0.beta, K0.r, counted, dict(K0.correction_coeffs))
    for k in [(0, 0), (1, 0)]:
        seen["points"], seen["reach"] = 0, np.zeros(sc.d)
        sch._self_similar_pieces(K, k, fam6, N, 1, margin)
        bits, windows = _full_box(K, k, fam6, N, margin)
        for ax, (si, ki, bi) in enumerate(zip(sc.s, k, bits)):
            # the box, its pad and the differences' own steps
            assert seen["reach"][ax] <= 2.0**-si + 2 * ki * sch._FD_STEP + 4 * 2.0**-bi, (k, ax)
        full = math.prod(hi - lo for lo, hi in windows) * 2 ** sum(k)
        assert 0.49 * full <= seen["points"] <= 0.51 * full, k


# --- the d=1 self-similar route ------------------------------------------------


def _uncorrected_skewed_kernel(sc1):
    """A d=1 decomposition with no moment correction, not even in x: its P+
    moments of every order are nonzero, so an integration check sees them."""
    beta = 0.6

    def P(pts):
        x = pts[..., 0]
        g = np.maximum(np.abs(x), 1e-300)
        return g ** (beta - 1.0) * (1.5 + x / g)

    assert sch.self_similarity_defect(P, sc1, beta) <= 1e-9
    return sch.KernelDecomposition(sc1, beta, 1, P)


def _p_plus_pairing(K, m, k, levels):
    """<u^m, d^k P+(-u)> = (-1)^(m+k) m!/(m-k)! int x^(m-k) P+, by parts."""
    if k > m:
        return 0.0
    return (-1.0) ** (m + k) * math.perm(m, k) * K.pplus_moment((m - k,), levels)


@pytest.mark.parametrize("N, levels", [(6, 3), (6, 6), (6, 8), (2, 1), (2, 2), (2, 4)])
@pytest.mark.parametrize("which", ["riesz", "skewed"])
def test_d1_route_integrates_to_p0_moments(sc1, fam6, riesz_kernel, which, N, levels):
    # pieces coarser than, as fine as and finer than the grid
    K = riesz_kernel if which == "riesz" else _uncorrected_skewed_kernel(sc1)
    for k in (0, 1):
        arr = sch._deriv_kernel_array(K, (k,), fam6, sc1, N, levels)
        total = float(np.sum(arr)) * 2.0 ** (-N / 2.0)
        assert abs(total - _p_plus_pairing(K, 0, k, levels)) < 1e-8
        # the first moment needs the pieces on R, before they wrap
        first = 0.0
        for (t0,), c in sch._self_similar_pieces(K, (k,), fam6, N, levels, 8):
            t = t0 + np.arange(len(c))
            first += float(np.sum(c * (t + fam6.father_moments[1]))) * 2.0 ** (-1.5 * N)
        assert abs(first - _p_plus_pairing(K, 1, k, levels)) < 1e-8
    if which == "skewed":  # the check is not vacuous
        assert abs(K.pplus_moment((0,), levels)) > 0.1
        assert abs(K.pplus_moment((1,), levels)) > 0.01


@cache
def _per_level_pieces(N, k, margin):
    """The per-level route: one margin-`margin` quadrature of every piece
    u -> d^k P_n(-u), n < N + 2, on its own support |u| <= 2^-n (criterion 8's
    Riesz decomposition, order-6 family)."""
    sc = Scaling((1,))
    K = sch.decompose_kernel("riesz", sc, r=3, beta=BETA)
    fam = build_wavelet(6, 2)
    return [
        _windowed_quadrature(
            an.Fn1D(lambda u, n=n: _pn_deriv(K, (k,), n, -u[..., None]), (-(2.0**-n), 2.0**-n)),
            fam,
            N,
            margin,
        )
        for n in range(N + 2)
    ]


@pytest.mark.parametrize("N", [6, 8])
def test_self_similar_route_matches_the_fine_per_level_route(sc1, fam6, riesz_kernel, N):
    # the per-level route at margin 12 is the reference; at margin 8 it misses
    # it by up to 1.3e-11 of the sup, the finer pieces being sampled coarsely
    for k in (0, 1):
        pieces = _per_level_pieces(N, k, 12)
        for levels in (3, N, N + 2):
            want = np.sum(pieces[:levels], axis=0)
            got = sch._deriv_kernel_array(riesz_kernel, (k,), fam6, sc1, N, levels)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (k, levels)


def test_low_pass_on_line_matches_the_periodic_step(fam6):
    # on a torus long enough not to wrap, one filter_step is the same sum,
    # along the line and along axis 1 of a 2-d array
    rng = np.random.default_rng(3)
    h = fam6.h
    for t0 in (-13, -12, 0, 5):
        c = rng.standard_normal(9)
        s0, got = sch._low_pass_on_line(t0, c, h)
        line = np.zeros(128)
        line[t0 + 64 : t0 + 64 + len(c)] = c
        full = mra.filter_step(line, h, 0, 2)
        assert 2 * s0 + len(h) - 1 >= t0 > 2 * (s0 - 1) + len(h) - 1  # the first s reached
        np.testing.assert_allclose(got, full[s0 + 32 : s0 + 32 + len(got)], rtol=0, atol=1e-15)
        rest = np.delete(full, np.arange(s0 + 32, s0 + 32 + len(got)))
        assert np.all(rest == 0.0)
        rows = rng.standard_normal((3, 9))
        s0_2d, got = sch._low_pass_on_line(t0, rows, h, 1)
        plane = np.zeros((3, 128))
        plane[:, t0 + 64 : t0 + 64 + rows.shape[1]] = rows
        full = mra.filter_step(plane, h, 1, 2)
        assert s0_2d == s0
        np.testing.assert_allclose(got, full[:, s0 + 32 : s0 + 32 + got.shape[1]], rtol=0, atol=1e-15)
        assert np.all(np.delete(full, np.arange(s0 + 32, s0 + 32 + got.shape[1]), axis=1) == 0.0)


def _small_noise_model(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 4, fam6, alpha=ALPHA, seed=3)
    return rs.noise_structure(ALPHA, xi, GAMMA, fam6)


@pytest.mark.parametrize("conv_levels", [0, -2, 2.5, True])
def test_extension_rejects_bad_conv_levels(sc1, fam6, riesz_kernel, conv_levels):
    # conv_levels 0 or -2 used to give an all-zero convolution
    stn, nm = _small_noise_model(sc1, fam6)
    with pytest.raises(ValueError, match="conv_levels must be an integer >= 1"):
        sch.extend_structure(stn, nm, riesz_kernel, GAMMA, conv_levels=conv_levels)


def test_extension_accepts_one_level_and_margin_zero(sc1, fam6, riesz_kernel):
    stn, nm = _small_noise_model(sc1, fam6)
    _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA, conv_levels=np.int64(1))
    assert em.conv_levels == 1 and np.max(np.abs(em.conv_values)) > 0.0
    w = sch._deriv_kernel_array(riesz_kernel, (0,), fam6, sc1, em.N, 1, margin=0)
    assert np.max(np.abs(w)) > 0.0


def test_oversized_nd_mesh_rejected(sc21, fam6, heat_setup):
    # N=6 at s=(2,1) would sample d^(0,0) P0 on a (2^21 + 8, 2^14 + 8) mesh
    xi = besov.synthesize("random_besov", sc21, 6, fam6, alpha=-1.5, seed=1)
    stn, nm = rs.noise_structure(-1.5, xi, 1.25, fam6)
    with pytest.raises(ValueError, match=r"s=\(2, 1\), N=6, margin=8 has 34376646720 points"):
        sch.extend_structure(stn, nm, heat_setup, 1.25)
