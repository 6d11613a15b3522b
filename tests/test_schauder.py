import math
from functools import cache

import numpy as np
import pytest

from rsbesov import analysis as an
from rsbesov import besov, build_wavelet, mra, modelled as md, schauder as sch, structures as rs
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
    """Oracle: the corrected p0 evaluated on the whole box mesh, times x^m."""
    n = 2**mesh_bits
    x = np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n
    mesh = np.meshgrid(*[x] * K.scaling.d, indexing="ij")
    vals = K.p0(np.stack(mesh, axis=-1))
    for g, mi in zip(mesh, m):
        vals = vals * g**mi
    return float(np.sum(vals) * (2.0 / n) ** K.scaling.d)


@pytest.mark.parametrize("which", ["heat", "riesz"])
def test_p0_moment_matches_full_mesh_sum(which, heat_setup, riesz_kernel):
    K = heat_setup if which == "heat" else riesz_kernel
    ms = K.scaling.multi_indices_below(K.r + 0.5)
    assert len(ms) == 4
    for m in ms:
        assert abs(K.p0_moment(m, mesh_bits=7) - _full_mesh_moment(K, m, 7)) <= 1e-15


def _support_box_shape(sc):
    """Points per axis of the default mesh with |x_i| <= 2^-s_i + one cell."""
    x, w = sch._box_axis(sch._MESH_BITS)
    return tuple(int(np.count_nonzero(np.abs(x) <= 2.0**-si + w)) for si in sc.s)


def _assert_one_mesh_pass(sc, beta, r, n_coeffs):
    P, beta = sch.riesz_kernel(sc, beta)
    box = _support_box_shape(sc)
    mesh_calls = []

    def counted(pts):
        if pts.shape[:-1] == box:
            mesh_calls.append(1)
        return P(pts)

    K = sch.decompose_kernel("custom", sc, r=r, beta=beta, custom=counted)
    assert len(K.correction_coeffs) == n_coeffs
    assert len(mesh_calls) == 1
    for m in K.correction_coeffs:  # raw moments come from that one pass
        assert abs(K.p0_moment(m)) <= 1e-8
    assert len(mesh_calls) == 1


def test_decompose_evaluates_kernel_once_on_mesh(sc1):
    _assert_one_mesh_pass(sc1, 0.4, 2, 3)


def test_decompose_evaluates_kernel_once_on_mesh_2d(sc21):
    _assert_one_mesh_pass(sc21, 1.5, 2, 4)


# --- the support box of the P0 moments -----------------------------------------


def _ref_box_moments(f, scaling, ms, mesh_bits):
    """Oracle: the moments from one evaluation of f on the whole box mesh."""
    x, w = sch._box_axis(mesh_bits)
    axes = np.meshgrid(*[x] * scaling.d, indexing="ij", sparse=True)
    vals = f(np.stack(np.broadcast_arrays(*axes), axis=-1))
    out = {}
    for m in ms:
        mono = np.ones(vals.shape)
        for i, mi in enumerate(m):
            if mi:
                mono = mono * axes[i] ** mi
        out[m] = float(np.sum(vals * mono) * w**scaling.d)
    return out


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
    got = sch._box_moments(K.p0_raw, sc, ms, mesh_bits)
    want = _ref_box_moments(K.p0_raw, sc, ms, mesh_bits)
    assert got.keys() == want.keys()
    for m in ms:
        assert got[m] == want[m], m


def test_decompose_moments_match_full_mesh_oracle(heat_setup, sc21):
    # the module fixture's raw moments at the default mesh
    K = heat_setup
    ks = list(K.correction_coeffs)
    want = _ref_box_moments(K.p0_raw, sc21, ks, sch._MESH_BITS)
    for m in ks:
        assert K._mom_cache[("raw", m, sch._MESH_BITS)] == want[m], m


@pytest.mark.parametrize("mesh_bits", [1, 2, 3, 7, 9])
@pytest.mark.parametrize("s", [(1,), (2, 1), (1, 1), (3, 1)])
def test_annular_cutoff_vanishes_off_the_support_box(s, mesh_bits):
    sc = Scaling(s)
    x, w = sch._box_axis(mesh_bits)
    box = sch._support_box(sc, x, w)
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


def test_p0_mesh_past_the_size_limit_rejected(heat_setup):
    with pytest.raises(ValueError, match=r"s=\(2, 1\), mesh_bits=13 has 67108864 points"):
        heat_setup.p0_moment((0, 0), mesh_bits=13)
    with pytest.raises(ValueError, match=r"s=\(2, 1, 1\), mesh_bits=11 has 8589934592 points"):
        sch.decompose_kernel("heat", Scaling((2, 1, 1)), r=2)


@pytest.mark.parametrize("mesh_bits", [0, -1])
def test_p0_mesh_needs_one_bit(heat_setup, mesh_bits):
    with pytest.raises(ValueError, match="mesh_bits must be at least 1"):
        heat_setup.p0_moment((0, 0), mesh_bits=mesh_bits)


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


def test_custom_self_similar_accepted(sc1):
    P, beta = sch.riesz_kernel(sc1, 0.4)
    K = sch.decompose_kernel("custom", sc1, r=2, beta=0.4, custom=P)
    assert K.beta == 0.4


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


def test_integration_map_grading(extended):
    xi, stn, nm, st_e, em = extended
    M = sch.integration_matrix(st_e)
    assert M[st_e.index("IXi"), st_e.index("Xi")] == 1.0
    for i, s in enumerate(st_e.symbols):
        if s.kind == "poly":
            assert np.max(np.abs(M[:, i])) == 0.0


def test_extended_model_validates(extended):
    xi, stn, nm, st_e, em = extended
    rep = rs.validate_model(em, GAMMA + BETA, n_samples=80)
    assert rep.max_violation <= 1e-8


def test_defpix_self_consistency_two_resolutions(sc1, fam6, riesz_kernel):
    xi = besov.synthesize("random_besov", sc1, 8, fam6, alpha=ALPHA, seed=11)
    stn, nm = rs.noise_structure(ALPHA, xi, GAMMA, fam6)
    _, em_hi = sch.extend_structure(stn, nm, riesz_kernel, GAMMA, margin=8)
    _, em_lo = sch.extend_structure(stn, nm, riesz_kernel, GAMMA, margin=6)
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
            tl = an.subsample(em.t_tables[ell], sc1, N, n)
            pair = 2.0 ** (-n * (ell[0] + 0.5)) * fam6.component_moment(1, ell[0])
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


def test_nd_route_integrates_to_p0_moment(sc21, fam6, heat_setup):
    # sum_t <G, phi^N_t> = 2^(N|s|/2) int G for the non-separable heat piece
    N = 1
    arr = sch._deriv_kernel_array(heat_setup, (0, 0), fam6, sc21, N, 1)
    total = float(np.sum(arr)) * 2.0 ** (-N * sc21.total / 2.0)
    assert abs(total - heat_setup.pplus_moment((0, 0), 1)) < 1e-8


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
    # the d=1 analogue of test_nd_route_integrates_to_p0_moment, with pieces
    # coarser than, as fine as and finer than the grid; at N = 2 the base
    # quadrature takes F(2^3 .), the first dilation whose window is shorter
    # than the torus (at N = 6 it takes F(2 .))
    K = riesz_kernel if which == "riesz" else _uncorrected_skewed_kernel(sc1)
    for k in (0, 1):
        arr = sch._deriv_kernel_array(K, (k,), fam6, sc1, N, levels)
        total = float(np.sum(arr)) * 2.0 ** (-N / 2.0)
        assert abs(total - _p_plus_pairing(K, 0, k, levels)) < 1e-8
        # the first moment needs the pieces on R, before they wrap
        first = 0.0
        for t0, c in sch._self_similar_pieces(K, (k,), fam6, N, levels, 8):
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
        an.quadrature_coeffs_1d(
            an.Fn1D(lambda u, n=n: K.pn_deriv((k,), n, -u[..., None]), (-(2.0**-n), 2.0**-n)),
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
    # on a torus long enough not to wrap, one filter_step is the same sum
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


def _small_noise_model(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 4, fam6, alpha=ALPHA, seed=3)
    return rs.noise_structure(ALPHA, xi, GAMMA, fam6)


@pytest.mark.parametrize("conv_levels", [0, -2, 2.5, True])
def test_extension_rejects_bad_conv_levels(sc1, fam6, riesz_kernel, conv_levels):
    # conv_levels 0 or -2 used to give an all-zero convolution
    stn, nm = _small_noise_model(sc1, fam6)
    with pytest.raises(ValueError, match="conv_levels must be an integer >= 1"):
        sch.extend_structure(stn, nm, riesz_kernel, GAMMA, conv_levels=conv_levels)


@pytest.mark.parametrize("margin", [-1, 2.5, "8", None])
def test_extension_rejects_bad_margin(sc1, fam6, riesz_kernel, margin):
    stn, nm = _small_noise_model(sc1, fam6)
    with pytest.raises(ValueError, match="margin must be an integer >= 0"):
        sch.extend_structure(stn, nm, riesz_kernel, GAMMA, margin=margin)


def test_extension_accepts_one_level_and_margin_zero(sc1, fam6, riesz_kernel):
    stn, nm = _small_noise_model(sc1, fam6)
    _, em = sch.extend_structure(stn, nm, riesz_kernel, GAMMA, conv_levels=np.int64(1), margin=0)
    assert em.conv_levels == 1 and np.max(np.abs(em.conv_values)) > 0.0


def test_oversized_nd_mesh_rejected(sc21, fam6, heat_setup):
    # N=6 at s=(2,1) would sample the level-0 piece on a (2^24, 2^12) mesh
    xi = besov.synthesize("random_besov", sc21, 6, fam6, alpha=-1.5, seed=1)
    stn, nm = rs.noise_structure(-1.5, xi, 1.25, fam6)
    with pytest.raises(ValueError, match=r"s=\(2, 1\), N=6, level 0 has 68719476736 points"):
        sch.extend_structure(stn, nm, heat_setup, 1.25)
