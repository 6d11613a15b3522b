import itertools
import math

import numpy as np
import pytest

from rsbesov import besov, modelled as md, reconstruction as rc, structures as rs
from rsbesov.util import lq_aggregate
from conftest import MODEL_KINDS, make_model, make_sin_lift

INF = math.inf

# dbar/d norm ratio of the sin lift, measured once at N=6..10 and frozen;
# the drift across refinements stays within twenty percent of this value
SIN_DBAR_RATIO = 0.99


def make_xi_md(sc, fam, N, gamma=1.25, alpha=-0.5, seed=3):
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=seed)
    st, model = rs.noise_structure(alpha, xi, gamma, fam)
    vals = np.zeros((*sc.grid_shape(N), st.dim))
    vals[..., st.index("Xi")] = 1.0
    return xi, st, model, md.ModelledDistribution(st, gamma, N, vals)


def test_zero_norms(sin_setup_n8):
    st, model, f = sin_setup_n8
    z = md.ModelledDistribution(st, f.gamma, f.N, np.zeros_like(f.values))
    rep = md.d_norm(z, model, 2.0, 2.0)
    assert rep.total == 0.0


def test_md_requires_gamma_off_homogeneities(sin_setup_n8):
    st, model, f = sin_setup_n8
    with pytest.raises(ValueError):
        md.ModelledDistribution(st, 2.0, f.N, np.zeros_like(f.values))


def test_md_rejects_coefficients_above_gamma(sin_setup_n8):
    st, model, f = sin_setup_n8
    vals = np.zeros_like(f.values)
    vals[..., st.index("X^2")] = 1.0
    with pytest.raises(ValueError):
        md.ModelledDistribution(st, 1.5, f.N, vals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_md_rejects_non_finite_values(sin_setup_n8, bad):
    st, model, f = sin_setup_n8
    vals = f.values.copy()
    vals[5, st.index("1")] = bad
    with pytest.raises(ValueError, match="finite"):
        md.ModelledDistribution(st, f.gamma, f.N, vals)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_md_rejects_non_finite_gamma(sc1, fam6, bad):
    # with gamma = NaN no coefficient counts as above gamma, and d_norm read 0
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 6)
    vals = np.random.default_rng(0).standard_normal((*sc1.grid_shape(6), st.dim))
    with pytest.raises(ValueError, match="finite"):
        md.ModelledDistribution(st, bad, 6, vals)


def test_averaged_md_validates_like_modelled_distribution(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 6)
    levels = md.average(f, model).levels
    bad = [lv.copy() for lv in levels]
    bad[3][2, st.index("X^1")] = np.nan
    with pytest.raises(ValueError, match="finite"):
        md.AveragedMD(st, 2.5, 6, bad)
    with pytest.raises(ValueError, match="homogeneity"):
        md.AveragedMD(st, 2.0, 6, levels)
    # zeta(X^2) = 2 >= gamma = 1.5, and level 4 carries an X^2 coefficient
    with pytest.raises(ValueError, match="above gamma"):
        md.AveragedMD(st, 1.5, 6, levels)
    md.AveragedMD(st, 2.5, 6, levels).restrict(1.5)  # zeroes X^2, so it validates


# every entry that pairs data with a model, called with the sin jet (1, X,
# X^2 at gamma 2.5) and its average f, fbar on the polynomial structure, and
# the noise model (Xi, 1, X at gamma 1.25) with its constant-Xi field g: the
# same dimension and scaling, but not one structure
WRONG_STRUCTURE_CALLS = {
    "d_norm": lambda f, m, fbar, g, nm: md.d_norm(f, nm, 2.0, 2.0),
    "md_distance first pair": lambda f, m, fbar, g, nm: md.md_distance(f, nm, f, m, 2.0, 2.0),
    "md_distance second pair": lambda f, m, fbar, g, nm: md.md_distance(f, m, f, nm, 2.0, 2.0),
    "md_distance f and f2": lambda f, m, fbar, g, nm: md.md_distance(f, m, g, nm, 2.0, 2.0),
    "dbar_norm": lambda f, m, fbar, g, nm: md.dbar_norm(fbar, nm, 2.0, 2.0),
    "average": lambda f, m, fbar, g, nm: md.average(f, nm),
    "unaverage": lambda f, m, fbar, g, nm: md.unaverage(fbar, nm),
    "check_local_propagation": lambda f, m, fbar, g, nm: md.check_local_propagation(fbar, nm, 2.0, INF),
    "germ_of": lambda f, m, fbar, g, nm: rc.germ_of(fbar, nm),
}


@pytest.mark.parametrize("entry", list(WRONG_STRUCTURE_CALLS))
def test_data_on_another_structure_is_rejected(sc1, fam6, entry):
    st, model, f = make_sin_lift(sc1, fam6, 6)
    _, _, noise_model, g = make_xi_md(sc1, fam6, 6)
    assert noise_model.structure.dim == st.dim
    with pytest.raises(ValueError, match="different regularity structures"):
        WRONG_STRUCTURE_CALLS[entry](f, model, md.average(f, model), g, noise_model)


def test_equal_structure_built_anew_is_the_same_structure(sc1, fam6):
    _, model, f = make_sin_lift(sc1, fam6, 6)
    _, model2 = rs.polynomial_structure(2.5, sc1, fam6, 6)
    assert md.d_norm(f, model2, 2.0, 2.0).total == md.d_norm(f, model, 2.0, 2.0).total


def test_sin_lift_translation_bounded_with_slope(sin_setup_n8):
    st, model, f = sin_setup_n8
    rep = md.d_norm(f, model, INF, INF)
    # normalized terms stay bounded across levels
    for z, arr in rep.translation.items():
        assert arr.max() <= arr[0] + 1e-9 or arr.max() < 25.0
    # raw numerator at the function level decays at least like 2^{-n gamma}
    assert rep.translation_slope(0.0) >= f.gamma - 0.1


def test_xi_translation_vanishes_at_alpha(sc1, fam6):
    xi, st, model, f = make_xi_md(sc1, fam6, 8)
    rep = md.d_norm(f, model, 2.0, INF)
    np.testing.assert_allclose(rep.translation[-0.5], 0.0, atol=1e-14)


def test_norm_homogeneity_and_triangle(sin_setup_n8):
    st, model, f = sin_setup_n8
    n1 = md.d_norm(f, model, 2.0, 2.0).total
    n3 = md.d_norm(f.scaled(-3.0), model, 2.0, 2.0).total
    assert n3 == pytest.approx(3.0 * n1, rel=1e-12)
    g = f.scaled(0.7)
    nfg = md.d_norm(f.plus(g), model, 2.0, 2.0).total
    assert nfg <= n1 + md.d_norm(g, model, 2.0, 2.0).total + 1e-9


def test_average_of_constants(sin_setup_n8):
    st, model, f = sin_setup_n8
    vals = np.zeros_like(f.values)
    vals[..., st.index("1")] = 1.5
    cf = md.ModelledDistribution(st, f.gamma, f.N, vals)
    fbar = md.average(cf, model)
    for lv in fbar.levels:
        np.testing.assert_allclose(lv[..., st.index("1")], 1.5, atol=1e-12)
        assert np.max(np.abs(lv[..., st.index("X^1")])) < 1e-12
    back, _ = md.unaverage(fbar, model)
    assert np.max(np.abs(back.values - cf.values)) < 1e-12


def test_average_of_xi_is_constant(sc1, fam6):
    xi, st, model, f = make_xi_md(sc1, fam6, 7)
    fbar = md.average(f, model)
    for lv in fbar.levels:
        np.testing.assert_allclose(lv[..., st.index("Xi")], 1.0, atol=1e-13)
    back, _ = md.unaverage(fbar, model)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_average_counts_wrapped_ball_points_again(sc1, fam6):
    # the closed ball B(x, 2^-n) averages over its 2*2^(N-n)+1 offsets; where
    # its radius reaches half the period an offset wraps onto a point again
    N = 3
    st, model = rs.polynomial_structure(2.5, sc1, fam6, N)
    one = st.index("1")

    def levels_of_unit_at(i):
        vals = np.zeros((2**N, st.dim))
        vals[i, one] = 1.0
        return md.average(md.ModelledDistribution(st, 2.5, N, vals), model).levels

    at_0, at_3 = levels_of_unit_at(0), levels_of_unit_at(3)
    assert at_0[0][0, one] == pytest.approx(3 / 17, rel=1e-14)  # offsets -8, 0, 8
    assert at_3[0][0, one] == pytest.approx(2 / 17, rel=1e-14)
    assert at_0[1][0, one] == pytest.approx(1 / 9, rel=1e-14)
    assert at_0[1][1, one] == pytest.approx(2 / 9, rel=1e-14)  # antipode: offsets -4, 4


def test_average_matches_quadrature_of_sin(sin_setup_n8):
    # the function-level component of the average is the plain ball average
    st, model, f = sin_setup_n8
    fbar = md.average(f, model)
    n = 5
    N = f.N
    x = 0.25
    r = 2 ** (N - n)
    idx = (np.arange(-r, r + 1) + int(x * 2**N)) % 2**N
    pts = idx / 2**N
    # transported function component: sin(y) - (y-x) f_1 ... evaluated exactly
    y = np.where(pts - x > 0.5, pts - 1.0, np.where(pts - x < -0.5, pts + 1.0, pts))
    vals = (
        np.sin(2 * np.pi * y)
        + (x - y) * 2 * np.pi * np.cos(2 * np.pi * y)
        + (x - y) ** 2 * (-(2 * np.pi) ** 2) * np.sin(2 * np.pi * y) / 2.0
    )
    want = np.mean(vals)
    got = fbar.levels[n][int(x * 2**n), st.index("1")]
    assert abs(got - want) < 1e-8


def test_average_linear(sin_setup_n8):
    st, model, f = sin_setup_n8
    g = f.scaled(-0.3)
    ab = md.average(f.plus(g), model)
    a = md.average(f, model)
    b = md.average(g, model)
    for la, lb, lab in zip(a.levels, b.levels, ab.levels):
        np.testing.assert_allclose(lab, la + lb, atol=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_transport_matches_gamma_matrix(kind):
    # average: the mean of Gamma_{x,y} f(y) over the closed grid ball
    # B(x, 2^-n); unaverage: f_n(x) = Gamma_{x,x_n} fbar^(n)(x_n) with x_n the
    # nearest Lambda_n point (half-up ties), both in the matrix view
    N = 3
    model = make_model(kind, N)
    st, sc = model.structure, model.scaling
    gamma = 2.5 if kind.startswith("poly") else 1.25
    vals = np.random.default_rng(0).standard_normal((*sc.grid_shape(N), st.dim))
    vals[..., [s.zeta >= gamma for s in st.symbols]] = 0.0
    f = md.ModelledDistribution(st, gamma, N, vals)
    fbar = md.average(f, model)
    pts = sc.grid_points(N)
    for n in range(N):
        radii = [2 ** ((N - n) * si) for si in sc.s]
        ball = list(np.ndindex(*[2 * r + 1 for r in radii]))
        want = np.zeros_like(fbar.levels[n])
        for idx in np.ndindex(*sc.grid_shape(n)):
            x_idx = [i * 2 ** ((N - n) * si) for i, si in zip(idx, sc.s)]
            for off in ball:
                y_idx = tuple(
                    (xi + o - r) % m for xi, o, r, m in zip(x_idx, off, radii, sc.grid_shape(N))
                )
                want[idx] += model.gamma(pts[tuple(x_idx)], pts[y_idx]) @ f.values[y_idx]
            want[idx] /= len(ball)
        assert np.max(np.abs(fbar.levels[n] - want)) <= 1e-12 * np.max(np.abs(want))
    for n in range(N + 1):
        want = np.zeros_like(f.values)
        for idx in np.ndindex(*sc.grid_shape(N)):
            near = sc.nearest_grid_index(pts[idx], n)
            x_n = np.array([i / m for i, m in zip(near, sc.grid_shape(n))])
            want[idx] = model.gamma(pts[idx], x_n) @ fbar.levels[n][near]
        got = md._transport_to_fine(fbar, model, n)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(md.unaverage(fbar, model)[0].values, got)


def _average_by_offset(f, model):
    """Oracle: the ball average with one transport per offset of the ball."""
    sc, N = f.structure.scaling, f.N
    levels = []
    for n in range(N):
        radii = [2 ** ((N - n) * si) for si in sc.s]
        x_index = sc.level_index(n, N)
        acc = np.zeros((*sc.grid_shape(n), f.structure.dim))
        count = 0
        for off in itertools.product(*[range(-r, r + 1) for r in radii]):
            acc += md._moved(model, f.values, N, x_index, off)
            count += 1
        levels.append(acc / count)
    return levels + [f.values]


def _transport_by_residue(fbar, model, n):
    """Oracle: f_n on Lambda_N with one transport per residue class mod the
    level-n stride."""
    sc, N = fbar.structure.scaling, fbar.N
    out = np.zeros((*sc.grid_shape(N), fbar.structure.dim))
    strides = [2 ** ((N - n) * si) for si in sc.s]
    for rem in itertools.product(*[range(s) for s in strides]):
        step = [int(np.floor(r / s + 0.5)) * s - r for r, s in zip(rem, strides)]
        x_index = tuple(xi + r for xi, r in zip(sc.level_index(n, N), rem))
        sl = tuple(slice(r, None, s) for r, s in zip(rem, strides))
        out[sl] = md._moved(model, fbar.levels[n], n, x_index, step)
    return out


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_batched_transport_matches_per_offset_loops(kind):
    # one transport call per level over the stacked offsets (or residues)
    # gives the same bits as one call per offset (or residue)
    N = 3
    model = make_model(kind, N)
    st, sc = model.structure, model.scaling
    gamma = 2.5 if kind.startswith("poly") else 1.25
    vals = np.random.default_rng(2).standard_normal((*sc.grid_shape(N), st.dim))
    vals[..., [s.zeta >= gamma for s in st.symbols]] = 0.0
    f = md.ModelledDistribution(st, gamma, N, vals)
    fbar = md.average(f, model)
    for got, want in zip(fbar.levels, _average_by_offset(f, model)):
        assert np.array_equal(got, want)
    for n in range(N + 1):
        got = md._transport_to_fine(fbar, model, n)
        assert np.array_equal(got, _transport_by_residue(fbar, model, n))


def _ref_shell_lq(st, zetas, diffs, n, weight, p, q):
    """Oracle: the shell l^q with one sector modulus and one L^p_n reduction
    per offset of the stack."""
    acc = {z: [] for z in zetas}
    for diff in diffs:
        for z in zetas:
            acc[z].append(besov.lpn_norm(rs.sector_abs(st, diff, z), n, p, st.scaling) / weight(z))
    return {z: lq_aggregate(acc[z], q) for z in zetas}


def _ref_table(zetas, rows):
    return {z: np.array([r[z] for r in rows], dtype=float) for z in zetas}


def _ref_fine_translation(f, difference, p, q):
    """Oracle: the translation table of d_norm / md_distance, where
    difference(steps) stacks the differences translated by the steps."""
    st, sc, N = f.structure, f.structure.scaling, f.N
    zetas = st.sectors_below(f.gamma)
    rows = []
    for n in np.arange(md.TRANSLATION_MIN_LEVEL, N + 1):
        hnorm = 2.0 ** (-n)
        diffs = difference(-sc.shell_steps(n, N))
        rows.append(_ref_shell_lq(st, zetas, diffs, N, lambda z: hnorm ** (f.gamma - z), p, q))
    return _ref_table(zetas, rows)


def _ref_dbar_norm(fbar, model, p, q):
    """Oracle: dbar_norm as it was when it also computed the combined-shell
    term; returns (local, translation, consistency, combined)."""
    st, sc = fbar.structure, fbar.structure.scaling
    N, gamma, lv = fbar.N, fbar.gamma, fbar.levels
    zetas = st.sectors_below(gamma)
    local = {z: besov.lpn_norm(rs.sector_abs(st, lv[0], z), 0, p, sc) for z in zetas}
    trans, cons, comb = [], [], []
    for n in np.arange(md.TRANSLATION_MIN_LEVEL, N + 1):
        steps = -sc.shell_steps(n, N)
        diffs = lv[n] - md._moved(model, lv[n], n, sc.level_index(n, N), steps)
        trans.append(
            _ref_shell_lq(st, zetas, diffs, n, lambda z: 2.0 ** (-n * (gamma - z)), p, q)
        )
    for n in np.arange(0, N):
        diff = lv[n] - lv[n + 1][sc.level_index(n, n + 1)]
        cons.append({
            z: besov.lpn_norm(rs.sector_abs(st, diff, z), n, p, sc) / 2.0 ** (-n * (gamma - z))
            for z in zetas
        })
        # h = 0 (the consistency term) plus h over E_{n+1}
        steps = np.concatenate([np.zeros((1, sc.d), int), sc.shell_steps(n + 1, N)])
        diffs = lv[n] - md._moved(model, lv[n + 1], n + 1, sc.level_index(n, N), steps)
        comb.append(
            _ref_shell_lq(st, zetas, diffs, n, lambda z: 2.0 ** (-n * (gamma - z)), p, q)
        )
    return local, _ref_table(zetas, trans), _ref_table(zetas, cons), _ref_table(zetas, comb)


@pytest.mark.parametrize("kind", ["poly-1", "poly-21", "noise-1", "noise-21"])
def test_norm_tables_match_per_offset_reductions(kind):
    # one sector modulus and one row-wise L^p reduction per shell stack give
    # the same bits as one reduction per offset, in every norm table
    N = 5 if kind.endswith("-1") else 4
    model = make_model(kind, N)
    st, sc = model.structure, model.scaling
    gamma = 2.5 if kind.startswith("poly") else 1.25
    rng = np.random.default_rng(4)
    fs = []
    for _ in range(2):
        vals = rng.standard_normal((*sc.grid_shape(N), st.dim))
        vals[..., [s.zeta >= gamma for s in st.symbols]] = 0.0
        fs.append(md.ModelledDistribution(st, gamma, N, vals))
    f, f2 = fs
    fine = sc.level_index(N, N)
    fbar = md.average(f, model)
    for p, q in [(2.0, 2.0), (1.0, INF), (INF, 2.0), (3.0, 1.5)]:
        local, trans, cons, comb = _ref_dbar_norm(fbar, model, p, q)
        rep = md.dbar_norm(fbar, model, p, q)
        assert rep.local == local
        for z in local:
            assert np.array_equal(rep.translation[z], trans[z])
            assert np.array_equal(rep.consistency[z], cons[z])
        prop = md.check_local_propagation(fbar, model, p, q)
        assert prop.local0 == local
        combined = {z: lq_aggregate(comb[z], q) for z in local}
        assert prop.combined == combined
        for z in local:
            excess = prop.sup_levels[z] - local[z]
            if excess <= 0:
                assert prop.required_K[z] == 0.0
            else:
                assert prop.required_K[z] == excess / combined[z]
        rep = md.d_norm(f, model, p, q)
        want = _ref_fine_translation(
            f, lambda steps: f.values - md._moved(model, f.values, N, fine, steps), p, q
        )
        assert rep.translation.keys() == want.keys()
        for z in want:
            assert np.array_equal(rep.translation[z], want[z])
        rep = md.md_distance(f, model, f2, model, p, q)
        want = _ref_fine_translation(
            f,
            lambda steps: f.values
            - f2.values
            - md._moved(model, f.values, N, fine, steps)
            + md._moved(model, f2.values, N, fine, steps),
            p,
            q,
        )
        for z in want:
            assert np.array_equal(rep.translation[z], want[z])


def test_transport_rejects_level_mismatch(sc1, fam6):
    # a model built at N=8 reads its tables at level-8 indices: an N=6
    # distribution under it is refused, not silently misread
    model = make_model("extended-1", 8)
    st = model.structure
    vals = np.zeros((2**6, st.dim))
    vals[..., st.index("IXi")] = 1.0
    f = md.ModelledDistribution(st, 1.25, 6, vals)
    with pytest.raises(ValueError, match="level"):
        md.average(f, model)
    with pytest.raises(ValueError, match="level"):
        md.d_norm(f, model, 2.0, 2.0)


def test_roundtrip_convergence_orders(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 10)
    fbar = md.average(f, model)
    back, rep = md.unaverage(fbar, model, p=2.0)
    assert np.max(np.abs(back.values - f.values)) == 0.0
    for z in st.sectors_below(f.gamma):
        assert rep.slopes[z] >= f.gamma - z - 0.1


def test_dbar_zero_and_constants(sin_setup_n8):
    st, model, f = sin_setup_n8
    vals = np.zeros_like(f.values)
    vals[..., st.index("1")] = 2.0
    cf = md.ModelledDistribution(st, f.gamma, f.N, vals)
    rep = md.dbar_norm(md.average(cf, model), model, INF, INF)
    for z in rep.translation:
        assert np.max(rep.translation[z]) < 1e-12
        assert np.max(rep.consistency[z]) < 1e-12


def test_dbar_vs_d_ratio_frozen(sc1, fam6):
    ratios = []
    for N in (6, 8, 10):
        st, model, f = make_sin_lift(sc1, fam6, N)
        dn = md.d_norm(f, model, INF, INF).total
        dbn = md.dbar_norm(md.average(f, model), model, INF, INF).total
        ratios.append(dbn / dn)
    for r in ratios:
        assert abs(r - SIN_DBAR_RATIO) <= 0.2 * SIN_DBAR_RATIO
    assert max(ratios) <= 1.2 * min(ratios)


def test_distance_identical_zero(sin_setup_n8):
    st, model, f = sin_setup_n8
    rep = md.md_distance(f, model, f, model, 2.0, 2.0)
    assert rep.total == 0.0


def test_distance_to_zero_is_norm(sin_setup_n8):
    st, model, f = sin_setup_n8
    z = md.ModelledDistribution(st, f.gamma, f.N, np.zeros_like(f.values))
    dist = md.md_distance(f, model, z, model, 2.0, 2.0)
    norm = md.d_norm(f, model, 2.0, 2.0)
    assert dist.total == pytest.approx(norm.total, rel=1e-12)


def test_distance_symmetry(sin_setup_n8):
    st, model, f = sin_setup_n8
    g = f.scaled(0.5)
    d1 = md.md_distance(f, model, g, model, 2.0, 2.0).total
    d2 = md.md_distance(g, model, f, model, 2.0, 2.0).total
    assert d1 == pytest.approx(d2, rel=1e-13)


def test_restriction_property(sin_setup_n8):
    st, model, f = sin_setup_n8
    g = f.restrict(1.5)
    rep = md.d_norm(g, model, 2.0, 2.0)
    base = md.d_norm(f, model, 2.0, 2.0)
    local_sum = sum(base.local.values())
    assert rep.total <= 40.0 * (base.total + local_sum)
    # restriction never increases any local term
    for z, v in rep.local.items():
        assert v <= base.local[z] + 1e-12


def test_local_propagation(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 8)
    rep = md.check_local_propagation(md.average(f, model), model, INF, INF)
    assert rep.max_K() <= 10.0
    # constants: equality with a vanishing K-term
    vals = np.zeros_like(f.values)
    vals[..., st.index("1")] = 1.0
    cf = md.ModelledDistribution(st, f.gamma, f.N, vals)
    crep = md.check_local_propagation(md.average(cf, model), model, INF, INF)
    assert crep.max_K() == 0.0


def test_local_propagation_random_ensemble(sc1, fam6):
    st, model, _ = make_sin_lift(sc1, fam6, 6)
    rng = np.random.default_rng(0)
    for _ in range(5):
        levels = []
        prev = None
        for n in range(7):
            if prev is None:
                lv = rng.uniform(-1, 1, (1, st.dim))
            else:
                up = np.repeat(prev, 2, axis=0)
                decay = np.array(
                    [2.0 ** (-n * (2.5 - s.zeta)) for s in st.symbols]
                )
                lv = up + rng.uniform(-1, 1, (2**n, st.dim)) * decay
            levels.append(lv)
            prev = lv
        fbar = md.AveragedMD(st, 2.5, 6, levels)
        rep = md.check_local_propagation(fbar, model, 2.0, INF)
        for z, K in rep.required_K.items():
            assert np.isfinite(K) and K < 50.0
