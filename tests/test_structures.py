import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from rsbesov import besov, filters, mra
from rsbesov import schauder as sch
from rsbesov import structures as rs
from rsbesov.scaling import Scaling, wrap_displacement
from rsbesov.util import fit_log2_slope, multi_factorial
from conftest import MODEL_KINDS, make_model

INF = math.inf


def test_polynomial_basis(sc1, fam6):
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 6)
    assert [s.name for s in st.symbols] == ["1", "X^1", "X^2"]
    assert st.homogeneities == [0.0, 1.0, 2.0]


def test_polynomial_basis_anisotropic(sc21, fam4):
    st, _ = rs.polynomial_structure(2.5, sc21, fam4, 3)
    degs = [s.zeta for s in st.symbols]
    assert degs == [0.0, 1.0, 2.0, 2.0]  # 1, X2, X2^2, X1 under scaling (2,1)


def test_gamma_rejected_on_homogeneity(sc1, fam6):
    with pytest.raises(ValueError):
        rs.polynomial_structure(2.0, sc1, fam6, 5)
    with pytest.raises(ValueError):
        rs.polynomial_structure(-1.0, sc1, fam6, 5)


def test_gamma_avoids_every_natural_and_homogeneity_within_one_tolerance(sc1):
    tol = rs.HOMOGENEITY_TOL
    for gamma in (5 + 2 * tol, 7 - 2 * tol, 2.5):
        rs.build_structure(gamma, sc1)
    # naturals above the truncated basis count, and so do abstract symbols
    for gamma, alpha, beta in ((5 + tol / 2, None, None), (7 - tol / 2, None, None),
                               (0.2 + tol / 2, -0.5, 0.7)):
        with pytest.raises(ValueError, match="coincides with a homogeneity"):
            rs.build_structure(gamma, sc1, alpha, beta)
    st = rs.build_structure(1.25, sc1, -0.5, 0.7)
    assert [(s.name, s.zeta) for s in st.symbols] == [
        ("Xi", -0.5), ("1", 0.0), ("IXi", pytest.approx(0.2)), ("X^1", 1.0)
    ]


def test_gamma_binomial_action(sc1, fam6):
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 6)
    M = model.gamma(np.array([0.3]), np.array([0.1]))
    np.testing.assert_allclose(M[:, st.index("X^2")], [0.04, 0.4, 1.0], atol=1e-14)
    np.testing.assert_allclose(
        model.gamma(np.array([0.2]), np.array([0.2])), np.eye(3), atol=0
    )


def test_validation_polynomial_and_noise(sc1, fam6):
    st, pm = rs.polynomial_structure(2.5, sc1, fam6, 8)
    assert rs.validate_model(pm, 2.5, n_samples=1000).max_violation < 1e-10
    xi = besov.synthesize("random_besov", sc1, 8, fam6, alpha=-0.5, seed=3)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    assert rs.validate_model(nm, 1.25, n_samples=1000).max_violation < 1e-10


def test_validation_catches_corruption(sc1, fam6):
    st, _ = rs.polynomial_structure(2.5, sc1, fam6, 6)

    class Corrupted(rs.PolynomialModel):
        def _gamma_matrix(self, delta):
            M = super()._gamma_matrix(delta)
            M[0, 2] += 1e-4
            return M

    rep = rs.validate_model(Corrupted(st, fam6, 6), 2.5, n_samples=80)
    assert rep.max_violation > 5e-5
    assert not rep.valid()


def test_pi_polynomial_matches_quadrature(sc1, fam6):
    # <Pi_x X, psi^n_y> on the covering line against the quadrature oracle
    n = 3
    x, y = 0.25, 0.375
    depth = fam6.cascade_depth
    L = fam6.support_len
    u = y + np.arange(L * 2**depth) / 2 ** (depth + n)  # support of psi^n_y
    psi = 2.0 ** (n / 2.0) * fam6.mother_at(2.0**n * (u - y))
    direct = np.sum((u - x) * psi) * 2.0 ** (-depth - n)
    lib = 0.0
    for b in range(2):
        lib += (
            math.comb(1, b)
            * ((y - x) * 2**n) ** (1 - b)
            * filters.mother_moments(fam6.h, b)[b]
        ) * 2.0 ** (-n * 1.5)
    assert abs(direct - lib) < 1e-8
    # cross-check the father pairing path on the same geometry
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 6)
    phi = 2.0 ** (n / 2.0) * fam6.father_at(2.0**n * (u - y))
    direct_f = np.sum((u - x) * phi) * 2.0 ** (-depth - n)
    lib_f = model.poly_father_pairing((1,), n, np.array([y - x]))
    assert abs(direct_f - lib_f) < 1e-8


def test_noise_pi_coefficients_independent_of_x(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 7, fam6, alpha=-0.5, seed=2)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    w = nm.pi_center_weights(4)[stn.index("Xi")]
    lev = mra.all_level_coefficients(xi, fam6)[4]
    np.testing.assert_allclose(w, lev, atol=0)


def test_noise_gamma_fixes_xi(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 7, fam6, alpha=-0.5, seed=2)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    M = nm.gamma(np.array([0.3]), np.array([0.05]))
    col = M[:, stn.index("Xi")]
    want = np.zeros(stn.dim)
    want[stn.index("Xi")] = 1.0
    np.testing.assert_allclose(col, want, atol=0)


def test_nan_in_the_noise_pyramid_is_not_a_finite_pi_norm(sc1, fam6):
    # max(worst, ratio) drops a NaN ratio, which read as ||Pi|| = 0.06257
    xi = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.5, seed=1)
    xi.details[3][0][5] = np.nan
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    with pytest.raises(ValueError, match="non-finite Pi ratio at scale n=2 for symbol Xi"):
        rs.model_norms(nm, 1.25, besov.make_dictionary(2, range(2, 5)))


def test_non_finite_gamma_ratio_raises(sc1, fam6):
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 6)
    nan_matrix = lambda x, y: np.full((st.dim, st.dim), np.nan)  # noqa: E731
    with pytest.raises(ValueError, match=r"non-finite Gamma ratio at displacement level 1 for symbol X\^1"):
        rs._gamma_sweep(model, 2.5, [np.zeros(1)], nan_matrix)


def test_noise_structure_preconditions(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 6, fam6, alpha=-0.5, seed=2)
    with pytest.raises(ValueError):
        rs.noise_structure(0.5, xi, 1.25, fam6)
    with pytest.raises(ValueError):
        rs.noise_structure(-0.5, xi, 1.0, fam6)  # gamma on a homogeneity


def test_model_norms_polynomial(sc1, fam6):
    st, pm = rs.polynomial_structure(2.5, sc1, fam6, 8)
    d = besov.make_dictionary(2, scales=range(2, 6))
    norms = rs.model_norms(pm, 2.5, d)
    # |Gamma| closed form: sup of binom(k, l) |delta|^{k-l} / |delta|^{k-l} = 2
    assert norms.gamma == pytest.approx(2.0, abs=1e-12)
    # |Pi| is the largest profile moment (lambda powers cancel exactly)
    want = max(
        abs(pm.poly_profile_moment(s.k, 0, prof))
        for s in st.symbols
        for prof in d.profiles
    )
    assert norms.pi == pytest.approx(want, rel=1e-12)


def test_model_norms_zero_and_scaling(sc1, fam6):
    zero = besov.CoeffPyramid.zeros(sc1, 7)
    stn, nm = rs.noise_structure(-0.5, zero, 1.25, fam6)
    d = besov.make_dictionary(2, scales=range(2, 5))
    # Pi of the zero noise vanishes on Xi; polynomial part stays
    xi_tab = nm.pi_profile_table(stn.index("Xi"), 3, d.profiles[0])
    assert np.max(np.abs(xi_tab)) == 0.0
    xi = besov.synthesize("random_besov", sc1, 7, fam6, alpha=-0.5, seed=6)
    _, nm1 = rs.noise_structure(-0.5, xi, 1.25, fam6)
    _, nm3 = rs.noise_structure(-0.5, xi.scaled(3.0), 1.25, fam6)
    t1 = nm1.pi_profile_table(stn.index("Xi"), 3, d.profiles[0])
    t3 = nm3.pi_profile_table(stn.index("Xi"), 3, d.profiles[0])
    np.testing.assert_allclose(t3, 3.0 * t1, rtol=1e-12)


def test_model_norms_monotone_in_dictionary(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 7, fam6, alpha=-0.5, seed=8)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam6)
    full = besov.make_dictionary(2, scales=range(2, 5))
    small = besov.TestDictionary(2, full.profiles[:2], full.scales)
    n_small = rs.model_norms(nm, 1.25, small).pi
    n_full = rs.model_norms(nm, 1.25, full).pi
    assert n_full >= n_small - 1e-14


def test_profile_cache_keeps_dictionaries_apart(sc1, fam6):
    # make_dictionary(2, ...) and make_dictionary(3, ...) name their profiles
    # alike but normalise them differently (pi 0.10472 against 0.015083)
    def fresh():
        xi = besov.synthesize("random_besov", sc1, 8, fam6, alpha=-0.5, seed=5)
        return rs.noise_structure(-0.5, xi, 1.25, fam6)[1]

    d2, d3 = (besov.make_dictionary(r, range(2, 6)) for r in (2, 3))
    nm = fresh()
    assert [p.name for p in d2.profiles] == [p.name for p in d3.profiles[: len(d2.profiles)]]
    pi2 = rs.model_norms(nm, 1.25, d2).pi
    pi3 = rs.model_norms(nm, 1.25, d3).pi
    assert pi3 == rs.model_norms(fresh(), 1.25, d3).pi
    assert pi2 == rs.model_norms(fresh(), 1.25, d2).pi
    assert pi3 < 0.5 * pi2


@pytest.mark.parametrize("kind, count", [("poly-1", 7), ("poly-21", 263)])
def test_gamma_sweep_visits_each_displacement_once(kind, count):
    # Lambda_1 in Lambda_2 in Lambda_3: levels 1 to 3 hold 7 (s=(1)) and 263
    # (s=(2,1)) distinct displacements of scaled norm in (0, 1/2]
    model = make_model(kind, 4)
    sc = model.scaling
    deltas = []

    def recording(x, y):
        deltas.append(tuple((x - y) % 1.0))
        return model.gamma(x, y)

    rs._gamma_sweep(model, 2.5, [np.zeros(sc.d)], recording)
    assert len(deltas) == len(set(deltas)) == count
    assert set(deltas) == {
        tuple(delta)
        for m in (1, 2, 3)
        for delta in sc.grid_points(m).reshape(-1, sc.d)
        if 0.0 < sc.snorm(delta) <= 0.5
    }


def test_pi_scaling_exponent_for_monomials(sc1, fam6):
    # |<Pi_x X^k, eta^lambda_x>| = lambda^{|k|_s} m_k: fitted exponent exact
    st, pm = rs.polynomial_structure(2.5, sc1, fam6, 8)
    d = besov.make_dictionary(2, scales=range(2, 7))
    prof = d.profiles[0]
    for i, s in enumerate(st.symbols):
        vals = [abs(pm.pi_profile_table(i, n, prof)) for n in d.scales]
        if max(vals) == 0.0:
            continue
        slope = -fit_log2_slope(np.array(d.scales), np.array(vals))
        assert slope >= s.zeta - 0.05


def test_noise_pi_norm_finite_iff_smoother(sc1, fam6):
    # the Xi-declared exponent is honoured only by fields at least that rough
    d = besov.make_dictionary(2, scales=range(2, 7))
    declared = -0.5

    def growth(alpha_synth):
        xi = besov.synthesize("random_besov", sc1, 9, fam6, alpha=alpha_synth, seed=4)
        stn, nm = rs.noise_structure(declared, xi, 1.25, fam6)
        idx = stn.index("Xi")
        prof = d.profiles[0]
        vals = [
            np.max(np.abs(nm.pi_profile_table(idx, n, prof))) / 2.0 ** (-n * declared)
            for n in d.scales
        ]
        return fit_log2_slope(np.array(d.scales), np.array(vals))

    assert growth(-0.5) < 0.25  # at the declared exponent: bounded
    assert growth(-0.9) > 0.25  # rougher field: the sup grows


def test_top_sector_gamma_identity(sc1, fam6):
    # Q_zeta Gamma = Q_zeta for the top homogeneity of the shipped models
    st, pm = rs.polynomial_structure(2.5, sc1, fam6, 6)
    M = pm.gamma(np.array([0.4]), np.array([0.15]))
    top = st.sector(max(st.sectors_below(2.5)))
    for i in top:
        row = np.zeros(st.dim)
        row[i] = 1.0
        np.testing.assert_allclose(M[i, :], row, atol=0)


def _reference_gamma(model, x, y):
    """Gamma_{x,y} assembled entry by entry: the translation matrix of the
    nearest-image displacement and, for the extended model, the IXi column
    c_k(x, y) = t_k(x)/k! - sum_{l >= k} t_l(y) (x - y)^{l-k} / ((l-k)! k!)."""
    delta = wrap_displacement(x - y)
    M = rs.Model._gamma_matrix(model, delta)
    if isinstance(model, sch.ExtendedModel):
        xi = model.scaling.nearest_grid_index(x, model.N)
        yi = model.scaling.nearest_grid_index(y, model.N)
        for k in model.taylor_ks:
            c = model.t_tables[k][xi] / multi_factorial(k)
            for ell in model.taylor_ks:
                if all(a <= b for a, b in zip(k, ell)):
                    diff = tuple(b - a for a, b in zip(k, ell))
                    c = c - (
                        model.t_tables[ell][yi] / (multi_factorial(diff) * multi_factorial(k))
                    ) * float(np.prod(delta ** np.asarray(diff)))
            M[model.structure.index(rs.poly_name(k)), model.ixi_index] = c
    return M


@pytest.mark.parametrize("s, N", [((1,), 15), ((2, 1), 8)])
def test_gamma_exact_on_fine_grids(fam4, s, N):
    # a one-cell displacement reaches Gamma exactly, with no rounding of the
    # displacement on the way (2^-15 has 15 decimals)
    sc = Scaling(s)
    _, model = rs.polynomial_structure(2.5, sc, fam4, N)
    cells = 2.0 ** (-N * np.array(sc.s))
    x = np.full(sc.d, 0.25)
    for axis in range(sc.d):
        step = np.zeros(sc.d)
        step[axis] = cells[axis]
        for y, delta in ((x + step, -step), (x - step, step)):
            assert np.array_equal(model.gamma(x, y), rs.Model._gamma_matrix(model, delta))


def _reference_center_weight(model, sym, n):
    """<Pi_x tau, phi^n_x> per symbol kind: the polynomial father pairing at
    displacement 0, the Xi level coefficients, and for IXi the convolution
    coefficients minus the Taylor terms t_l(x)/l! <(. - x)^l, phi^n_x>."""
    zero = np.zeros(model.scaling.d)
    if isinstance(model, sch.ExtendedModel) and sym == model.ixi_index:
        w = model.conv_levels_coeffs[n].copy()
        for ell in model.taylor_ks:
            pairing = model.poly_father_pairing(ell, n, zero)
            tl = model.t_tables[ell][model.scaling.level_index(n, model.N)]
            w = w - tl / multi_factorial(ell) * pairing
        return w
    if isinstance(model, rs.NoiseModel) and sym == model.xi_index:
        return model.xi_levels[n]
    return model.poly_father_pairing(model.structure.symbols[sym].k, n, zero)


def test_non_finite_points_rejected():
    # a NaN base point used to be cast to grid index 0, so the tables were
    # read there and a finite number came back; a NaN second point was cast
    # to a source index too
    model = make_model("extended-1", 6)
    ixi = model.structure.index("IXi")
    with pytest.raises(ValueError, match="finite"):
        model.pi_father_point(ixi, 3, np.array([np.nan]), np.array([0.25]), (2,))
    for x, y in [([np.nan], [0.25]), ([0.25], [np.inf])]:
        with pytest.raises(ValueError, match="finite"):
            model.gamma(x, y)
    with pytest.raises(ValueError, match="finite"):
        make_model("poly-1", 6).gamma([0.25], [np.nan])


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_gamma_field_matches_gamma_matrix(kind):
    # the field view gamma_apply_field and the derived matrix view gamma
    # against Gamma assembled entry by entry
    model = make_model(kind, 6 if kind.endswith("-1") else 3)
    sc, N = model.scaling, model.N
    shape = sc.grid_shape(N)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((*shape, model.structure.dim))
    pts = sc.grid_points(N)
    for steps in [(1,) * sc.d, (-3,) + (2,) * (sc.d - 1)]:
        delta = np.array(steps) / np.array(shape)
        field = model.gamma_apply_field(vals, delta, np.ix_(*[np.arange(m) for m in shape]))
        worst = 0.0
        for idx in np.ndindex(*shape):
            x = pts[idx]
            y = (x + delta) % 1.0
            M = _reference_gamma(model, x, y)
            np.testing.assert_array_equal(model.gamma(x, y), M)
            worst = max(worst, float(np.max(np.abs(field[idx] - M @ vals[idx]))))
        assert worst <= 1e-13


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_center_weights_match_reference(kind):
    # pi_center_weights is the father pairing at the centre, bit for bit
    model = make_model(kind, 6 if kind.endswith("-1") else 3)
    for n in range(model.N + 1):
        got = model.pi_center_weights(n)
        assert len(got) == model.structure.dim
        for sym, w in enumerate(got):
            assert w.shape == model.scaling.grid_shape(n)
            want = np.broadcast_to(_reference_center_weight(model, sym, n), w.shape)
            assert np.array_equal(w, want)


def test_model_hooks_written_once():
    # a model subclass overrides gamma_apply_field, pi_father_point and
    # pi_profile_table; the matrix and centre-weight views live in Model only
    classes = [rs.Model, rs.PolynomialModel, rs.NoiseModel, sch.ExtendedModel]
    for name in ("gamma", "pi_center_weights"):
        assert [c for c in classes if name in vars(c)] == [rs.Model]
    for name in ("gamma_disp", "pi_center_weight"):
        assert not any(hasattr(c, name) for c in classes)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@given(data=hst.data())
def test_gamma_group_law_property(kind, data):
    # Gamma_{xy} Gamma_{yz} = Gamma_{xz} over random grid displacements; the
    # per-axis bounds m/4 and m/4 - 1 keep the nearest images additive
    model = make_model(kind, 6 if kind.endswith("-1") else 3)
    shape = model.scaling.grid_shape(model.N)

    def draw_cells(bound):
        return np.array([data.draw(hst.integers(-bound(m), bound(m))) / m for m in shape])

    x = draw_cells(lambda m: m - 1) % 1.0
    y = (x + draw_cells(lambda m: m // 4)) % 1.0
    z = (y + draw_cells(lambda m: m // 4 - 1)) % 1.0
    Mxz = model.gamma(x, z)
    err = np.max(np.abs(model.gamma(x, y) @ model.gamma(y, z) - Mxz))
    assert err <= 1e-12 * np.max(np.abs(Mxz))
