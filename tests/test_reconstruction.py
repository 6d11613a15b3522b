import copy
import math

import numpy as np
import pytest

from rsbesov import analysis as an
from rsbesov import besov, mra, modelled as md, reconstruction as rc, structures as rs
from rsbesov.util import fit_log2_slope, lq_aggregate
from conftest import MODEL_KINDS, make_model, make_sin_lift

INF = math.inf


def sin_target(fam, sc, N):
    kern = an.SeparableKernel([(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x), None)])])
    return mra.analyze_v_coefficients(an.analyze_kernel(kern, fam, sc, N), fam, sc, N)


def make_xi_setup(sc, fam, N, gamma=1.25, alpha=-0.5, seed=3):
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=seed)
    st, model = rs.noise_structure(alpha, xi, gamma, fam)
    vals = np.zeros((*sc.grid_shape(N), st.dim))
    vals[..., st.index("Xi")] = 1.0
    return xi, st, model, md.ModelledDistribution(st, gamma, N, vals)


# --- sewing -------------------------------------------------------------------


def test_consistent_germ_is_fixed_point(sc1, fam6):
    xi = besov.synthesize("random_besov", sc1, 8, fam6, alpha=-0.3, seed=5)
    germ = rc.germ_from_pyramid(xi, fam6)
    out, cert = rc.sewing_limit(germ, -0.3, 2.2, 2.0, INF, fam6)
    assert out.max_abs_diff(xi) <= 1e-12
    assert cert.da_table.max() < 1e-9


def test_zero_germ(sc1, fam6):
    germ = rc.GermCoefficients(sc1, 5, [np.zeros(2**n) for n in range(6)])
    out, cert = rc.sewing_limit(germ, -0.5, 1.5, 2.0, INF, fam6)
    assert out.l2() == 0.0 and cert.accepted


def test_prescribed_decay_locates_exponent(sc1, fam6):
    # coherent germ + level noise with delta-A decay gamma: the output Besov
    # exponent sits at the prescribed alpha
    N, alpha, gamma = 10, -0.5, 1.5
    rng = np.random.default_rng(7)
    xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=alpha, seed=1)
    base = mra.all_level_coefficients(xi, fam6)
    A = [
        base[n] + 2.0 ** (-n * (gamma + 0.5)) * rng.uniform(-1, 1, 2**n)
        for n in range(N + 1)
    ]
    out, cert = rc.sewing_limit(rc.GermCoefficients(sc1, N, A), alpha, gamma, 2.0, INF, fam6)
    assert cert.accepted
    assert abs(besov.critical_exponent(out, 2.0) - alpha) < 0.1


def test_incoherent_germ_rejected_with_diagnostics(sc1, fam6):
    N, alpha = 10, -0.5
    rng = np.random.default_rng(2)
    A = [2.0 ** (-n * (alpha + 0.5)) * rng.uniform(-1, 1, 2**n) for n in range(N + 1)]
    with pytest.raises(rc.CertificateError) as exc:
        rc.sewing_limit(rc.GermCoefficients(sc1, N, A), alpha, 1.5, 2.0, INF, fam6)
    assert exc.value.certificate.da_growth > 0.5


@pytest.mark.parametrize("amplitude", [1.0, 1e-6, 1e-12])
def test_sewing_verdict_does_not_depend_on_amplitude(sc1, fam6, amplitude):
    # the round-off floor scales with the A table: a germ and its multiples
    # get one verdict (an absolute floor accepted the divergent germ at 1e-12)
    N = 8
    rng = np.random.default_rng(0)
    divergent = [amplitude * rng.uniform(-1, 1, 2**n) for n in range(N + 1)]
    _, cert = rc.sewing_limit(rc.GermCoefficients(sc1, N, divergent), -0.5, 1.0, 2.0, INF, fam6, reject=False)
    assert cert.da_growth == pytest.approx(1.41, abs=0.005) and not cert.accepted
    xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=-0.3, seed=5).scaled(amplitude)
    _, cert = rc.sewing_limit(rc.germ_from_pyramid(xi, fam6), -0.3, 2.2, 2.0, INF, fam6)
    assert cert.accepted


def test_sewing_rejection_names_a_window_without_a_fit(sc1, fam6):
    # a zero germ with one unit entry at level N: the delta-A table is zero
    # but for its last entry, so no growth exponent can be fitted
    N = 8
    A = [np.zeros(2**n) for n in range(N + 1)]
    A[N][0] = 1.0
    germ = rc.GermCoefficients(sc1, N, A)
    with pytest.raises(rc.CertificateError, match=r"levels 3\.\.7 has 1 nonzero entry") as exc:
        rc.sewing_limit(germ, -0.5, 1.5, 2.0, INF, fam6)
    assert "nan" not in str(exc.value)
    cert = exc.value.certificate
    assert np.count_nonzero(cert.da_table) == 1 and not cert.accepted


def test_sewing_rejection_names_the_fitted_window(sc1, fam6):
    N, alpha = 10, -0.5
    rng = np.random.default_rng(2)
    A = [2.0 ** (-n * (alpha + 0.5)) * rng.uniform(-1, 1, 2**n) for n in range(N + 1)]
    with pytest.raises(rc.CertificateError, match=r"levels 5\.\.9 .*fitted exponent \d\.\d+ > 0\.1"):
        rc.sewing_limit(rc.GermCoefficients(sc1, N, A), alpha, 1.5, 2.0, INF, fam6)


# --- reconstruction -----------------------------------------------------------


def test_reconstruct_zero(sin_setup_n8):
    st, model, f = sin_setup_n8
    z = md.ModelledDistribution(st, f.gamma, f.N, np.zeros_like(f.values))
    out, _ = rc.reconstruct(z, model, 2.0, INF)
    assert out.l2() == 0.0


def test_reconstruct_linearity(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 7)
    g = f.scaled(0.31)
    a, b = 1.7, -2.3
    out1, _ = rc.reconstruct(f.scaled(a).plus(g.scaled(b)), model, 2.0, INF)
    o_f, _ = rc.reconstruct(f, model, 2.0, INF)
    o_g, _ = rc.reconstruct(g, model, 2.0, INF)
    comb = o_f.scaled(a).plus(o_g.scaled(b))
    assert out1.max_abs_diff(comb) < 1e-12


def test_sin_reconstruction_error_and_order(sc1, fam6):
    errs = {}
    for N in (6, 8, 10):
        st, model, f = make_sin_lift(sc1, fam6, N)
        out, cert = rc.reconstruct(f, model, 2.0, INF)
        target = sin_target(fam6, sc1, N)
        errs[N] = out.plus(target.scaled(-1.0)).l2() / target.l2()
    assert errs[10] <= 1e-3
    order = (math.log2(errs[6]) - math.log2(errs[10])) / 4.0
    assert order >= 2.0
    assert errs[10] < errs[8] < errs[6]


@pytest.mark.parametrize("order,r", [(4, 1), (9, 3)])
def test_key_results_robust_across_orders(sc1, order, r):
    # the pipeline is wavelet-order-robust: rerun the headline checks at a
    # smaller and a larger order than the default
    fam = mra.build_wavelet(order, r)
    N = 8
    st, model, f = make_sin_lift(sc1, fam, N)
    out, _ = rc.reconstruct(f, model, 2.0, INF)
    target = sin_target(fam, sc1, N)
    rel = out.plus(target.scaled(-1.0)).l2() / target.l2()
    assert rel <= 1e-3
    dirac = besov.synthesize("dirac", sc1, 10, fam, x0=np.array([0.5]))
    assert abs(besov.critical_exponent(dirac, 2.0) + 0.5) < 0.1


def test_noise_reconstruction_exact(sc1, fam6):
    xi, st, model, f = make_xi_setup(sc1, fam6, 8)
    out, cert = rc.reconstruct(f, model, 2.0, INF)
    assert out.max_abs_diff(xi) <= 1e-12
    assert cert.sewing.da_table.max() < 1e-10
    assert cert.alpha == pytest.approx(-0.5)


def test_reconstruction_bound_sin(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 10)
    d = besov.make_dictionary(2, scales=range(2, 9))
    out, cert = rc.reconstruct(f, model, 2.0, INF, dictionary=d)
    assert np.all(np.isfinite(cert.bound_normalized))
    assert cert.bound_slope() >= f.gamma - 0.1
    # the table scales linearly in f
    out2, cert2 = rc.reconstruct(f.scaled(3.0), model, 2.0, INF, dictionary=d)
    np.testing.assert_allclose(cert2.bound_raw, 3.0 * cert.bound_raw, rtol=1e-9)


def test_reconstruction_bound_exact_germ_vanishes(sc1, fam6):
    xi, st, model, f = make_xi_setup(sc1, fam6, 8)
    out, _ = rc.reconstruct(f, model, 2.0, INF)
    d = besov.make_dictionary(2, scales=range(2, 6))
    scales, raw, normalized = rc.reconstruction_bound(f, model, out, 2.0, INF, d)
    assert np.max(raw) < 1e-12


# frozen from the calibration run: aggregate / budget for the sin fixture
BOUND_BUDGET_C = 0.01


def test_reconstruction_bound_within_budget(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 10)
    d = besov.make_dictionary(3, scales=range(2, 9))
    out, cert = rc.reconstruct(f, model, 2.0, INF, dictionary=d, with_budget=True)
    assert cert.bound_aggregate <= BOUND_BUDGET_C * cert.budget


# --- derivatives and the lift ---------------------------------------------------


def test_derivative_check_sin(sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 10)
    out, _ = rc.reconstruct(f, model, 2.0, INF)
    errs = rc.derivative_check(f, out, model)
    assert all(v <= 1e-2 for v in errs.values())
    assert set(errs) == {(0,), (1,), (2,)}


def test_derivative_check_linear_exact(sc1, fam6):
    # F(x) = c: derivatives vanish identically after mollification
    st, model, f0 = make_sin_lift(sc1, fam6, 8)
    vals = np.zeros_like(f0.values)
    vals[..., st.index("1")] = 4.0
    f = md.ModelledDistribution(st, f0.gamma, f0.N, vals)
    out, _ = rc.reconstruct(f, model, 2.0, INF)
    errs = rc.derivative_check(f, out, model)
    assert errs[(0,)] < 1e-10
    assert errs[(1,)] < 1e-8 and errs[(2,)] < 1e-6


def test_lift_rejects_integer_gamma(sc1, fam6):
    pyr = besov.synthesize("random_besov", sc1, 6, fam6, alpha=0.4, seed=1)
    with pytest.raises(ValueError):
        rc.lift(pyr, 2.0, 2.0, INF, fam6)


def test_lift_constant(sc1, fam6):
    pyr = mra.forward_transform(np.full(2**8, 3.0), fam6, sc1)
    f, rep = rc.lift(pyr, 2.5, 2.0, INF, fam6)
    st = f.structure
    np.testing.assert_allclose(f.values[..., st.index("1")], 3.0, atol=1e-10)
    assert np.max(np.abs(f.values[..., st.index("X^1")])) < 1e-8
    assert np.max(np.abs(f.values[..., st.index("X^2")])) < 1e-6


def test_lift_sin_coefficients(sc1, fam6):
    N = 10
    pyr = besov.synthesize(
        "smooth", sc1, N, fam6, func=lambda p: np.sin(2 * np.pi * p[..., 0])
    )
    f, rep = rc.lift(pyr, 2.5, 2.0, INF, fam6)
    st = f.structure
    grid = np.arange(2**N) / 2**N
    truth = {
        "1": np.sin(2 * np.pi * grid),
        "X^1": 2 * np.pi * np.cos(2 * np.pi * grid),
        "X^2": -((2 * np.pi) ** 2) * np.sin(2 * np.pi * grid) / 2.0,
    }
    for name, want in truth.items():
        got = f.values[..., st.index(name)]
        rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert rel <= 1e-2


def test_lift_roundtrip_band_limited(sc1, fam6):
    N = 10
    pyr = besov.synthesize(
        "smooth",
        sc1,
        N,
        fam6,
        func=lambda p: np.sin(2 * np.pi * p[..., 0]) + 0.3 * np.cos(6 * np.pi * p[..., 0]),
    )
    for n in (N - 2, N - 1):
        pyr.details[n][:] = 0.0
    f, rep = rc.lift(pyr, 2.5, 2.0, INF, fam6, check_roundtrip=True)
    assert rep.roundtrip_rel_error <= 1e-6


def test_lift_correction_kernels_annihilate(sc1):
    # Phi and Psi correction functions kill polynomials up to q - |k|_s
    q, n = 2, 3
    h = 2.0 ** -(n + 1)

    def mom(kern, m):
        return sum(c * an.kernel_moment_1d(fac[0], m) for c, fac in kern.terms)

    for k in [(0,), (1,), (2,)]:
        fine = rc.p_kernel(k, q, sc1, n)
        coarse = rc.p_kernel(k, q, sc1, n + 1)
        for m in range(q - sc1.scaled_degree(k) + 1):
            assert abs(mom(fine, m) - mom(coarse, m)) < 1e-12
    for k in [(0,), (1,)]:
        base = rc.p_kernel(k, q, sc1, n)
        for m in range(q - sc1.scaled_degree(k) + 1):
            val = sum(
                math.comb(m, j) * h ** (m - j) * mom(base, j) for j in range(m + 1)
            )
            for ell in range(q - k[0] + 1):
                dk = rc.p_kernel((k[0] + ell,), q, sc1, n, deriv=(ell,))
                coef = (-h) ** ell * math.factorial(k[0] + ell) / (
                    math.factorial(k[0]) * math.factorial(ell)
                )
                val -= coef * mom(dk, m)
            assert abs(val) < 1e-12


# --- two-model comparison and uniqueness ----------------------------------------


def _rough_md(sc, fam, N, gamma=0.25, alpha=-0.5, seed=1):
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=seed)
    st, model = rs.noise_structure(alpha, xi, gamma, fam)
    pts = sc.grid_points(N)[..., 0]
    vals = np.zeros((*sc.grid_shape(N), st.dim))
    vals[..., st.index("Xi")] = 1.0 + 0.5 * np.sin(2 * np.pi * pts)
    vals[..., st.index("1")] = np.cos(2 * np.pi * pts)
    return xi, st, model, md.ModelledDistribution(st, gamma, N, vals)


def test_two_model_identical_zero(sc1, fam6):
    xi, st, model, f = _rough_md(sc1, fam6, 8)
    d = besov.make_dictionary(2, scales=range(2, 6))
    scales, raw, normalized, budget = rc.two_model_compare(
        f, model, f, model, 2.0, INF, d, with_budget=False
    )
    assert np.max(raw) < 1e-13


def test_two_model_pi_perturbation_linear(sc1, fam6):
    N = 9
    xi, st, model, f = _rough_md(sc1, fam6, N)
    d = besov.make_dictionary(2, scales=range(2, 7))
    bump = mra.analyze_v_coefficients(
        an.analyze_kernel(
            an.SeparableKernel([(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x) ** 2, None)])]),
            fam6,
            sc1,
            N,
        ),
        fam6,
        sc1,
        N,
    )
    eps_list = [1e-1, 1e-2, 1e-3]
    ms = []
    for eps in eps_list:
        _, m2 = rs.noise_structure(-0.5, xi.plus(bump.scaled(eps)), f.gamma, fam6)
        _, _, normalized, _ = rc.two_model_compare(
            f, model, f, m2, 2.0, INF, d, with_budget=False
        )
        ms.append(lq_aggregate(normalized, INF))
    for i in range(len(ms) - 1):
        expo = (math.log(ms[i]) - math.log(ms[i + 1])) / (
            math.log(eps_list[i]) - math.log(eps_list[i + 1])
        )
        assert abs(expo - 1.0) <= 0.1


class _CocycleModel(rs.NoiseModel):
    """Gamma' = Gamma + eps (c(x) - c(y)) e_row e_col^T, c = sin(2 pi .)."""

    row = col = None

    def __init__(self, st, fam, xi, alpha, eps):
        super().__init__(st, fam, xi, alpha)
        self.eps = eps

    def gamma_apply_field(self, vals, delta, x_index):
        out = super().gamma_apply_field(vals, delta, x_index)
        N = self.N
        # one displacement per leading index of vals, broadcast over its points
        cells = np.rint(np.asarray(delta)[..., 0] * 2**N).astype(int)
        steps = cells.reshape(cells.shape + (1,) * (vals.ndim - 1 - cells.ndim))
        xs = np.asarray(x_index[0], dtype=float) / 2**N
        ys = ((np.asarray(x_index[0]) + steps) % 2**N) / 2**N
        corr = self.eps * (np.sin(2 * np.pi * xs) - np.sin(2 * np.pi * ys))
        out[..., self.structure.index(self.row)] += corr * vals[..., self.structure.index(self.col)]
        return out


class GammaPerturbed(_CocycleModel):
    """Cocycle perturbation: Gamma' Xi = Xi + eps (c(x) - c(y)) 1."""

    row, col = "1", "Xi"


def test_gamma_perturbation_distance_linear(sc1, fam6):
    xi, st, model, f = _rough_md(sc1, fam6, 9)
    eps_list = [1e-1, 1e-2, 1e-3]
    ms = [
        md.md_distance(f, model, f, GammaPerturbed(st, fam6, xi, -0.5, eps), 2.0, INF).total
        for eps in eps_list
    ]
    for i in range(len(ms) - 1):
        expo = (math.log(ms[i]) - math.log(ms[i + 1])) / (
            math.log(eps_list[i]) - math.log(eps_list[i + 1])
        )
        assert abs(expo - 1.0) <= 0.1


class GammaLowered(_CocycleModel):
    """Cocycle perturbation below the diagonal: Gamma' 1 = 1 + eps (c(x) - c(y)) Xi.

    GammaPerturbed perturbs above the diagonal, which the Gamma-difference
    sweep (beta < zeta) does not read.
    """

    row, col = "Xi", "1"


@pytest.mark.parametrize("cls", [GammaPerturbed, GammaLowered])
def test_cocycle_field_matches_gamma_matrix(sc1, fam6, cls):
    # the derived matrix view against the closed form: the noise model's
    # Gamma plus eps (sin 2 pi x - sin 2 pi y) at (row, col)
    N = 6
    xi = besov.synthesize("random_besov", sc1, N, fam6, alpha=-0.5, seed=5)
    st, noise = rs.noise_structure(-0.5, xi, 1.25, fam6)
    model = cls(st, fam6, xi, -0.5, 0.3)
    row, col = st.index(cls.row), st.index(cls.col)
    pts = sc1.grid_points(N)
    for steps in (1, -3, 17):
        for i in range(2**N):
            x = pts[i]
            y = (x + steps / 2**N) % 1.0
            want = noise.gamma(x, y)
            want[row, col] += 0.3 * (np.sin(2 * np.pi * x[0]) - np.sin(2 * np.pi * y[0]))
            assert np.max(np.abs(model.gamma(x, y) - want)) <= 1e-13


def test_two_model_gamma_lowered_within_budget(sc1, fam6):
    # criterion 9b with a Gamma perturbation the model distance does see.
    # Reconstruction reads Pi only, so the left side is 0 here; the budget
    # carries the Gamma term and falls linearly with eps.
    N = 8
    xi, st, model, f = _rough_md(sc1, fam6, N)
    d = besov.make_dictionary(2, scales=range(2, 6))
    budgets = []
    for eps in [1e-1, 1e-2, 1e-3]:
        lowered = GammaLowered(st, fam6, xi, -0.5, eps)
        assert rs.model_distance(model, lowered, f.gamma, d).gamma > 0.0
        _, _, normalized, budget = rc.two_model_compare(f, model, f, lowered, 2.0, INF, d)
        assert lq_aggregate(normalized, INF) <= budget
        budgets.append(budget)
    assert abs(fit_log2_slope(np.log2([1e-1, 1e-2, 1e-3]), budgets) - 1.0) <= 0.1


def test_model_distance_of_model_to_itself_is_zero(sc1, sc21, fam6):
    xi, st, model, f = _rough_md(sc1, fam6, 7)
    d = besov.make_dictionary(2, scales=range(2, 5))
    for m, gamma in ((model, f.gamma), (rs.polynomial_structure(2.5, sc21, fam6, 4)[1], 2.5)):
        diff = rs.model_distance(m, m, gamma, d)
        assert diff.pi == 0.0 and diff.gamma == 0.0
        assert diff.pi_table and all(row[-1] == 0.0 for row in diff.pi_table)


def test_model_distance_linear_in_perturbation(sc1, fam6):
    N = 7
    xi, st, model, f = _rough_md(sc1, fam6, N, gamma=1.25)
    d = besov.make_dictionary(2, scales=range(2, 5))
    bump = besov.synthesize(
        "smooth", sc1, N, fam6, func=lambda p: np.sin(2 * np.pi * p[..., 0]) ** 2
    )
    eps_list = [1e-1, 1e-2, 1e-3]
    dgam, dpi = [], []
    for eps in eps_list:
        lowered = GammaLowered(st, fam6, xi, -0.5, eps)
        dgam.append(rs.model_distance(model, lowered, f.gamma, d).gamma)
        _, m2 = rs.noise_structure(-0.5, xi.plus(bump.scaled(eps)), f.gamma, fam6)
        dpi.append(rs.model_distance(model, m2, f.gamma, d).pi)
    for ms in (dgam, dpi):
        assert min(ms) > 0.0
        slope = fit_log2_slope(np.log2(eps_list), ms)
        assert abs(slope - 1.0) <= 0.1


def test_shifted_f_bounded_by_budget(sc1, fam6):
    # f' = f + eps * 1: the left side stays below the distance budget
    xi, st, model, f = _rough_md(sc1, fam6, 8)
    d = besov.make_dictionary(2, scales=range(2, 6))
    eps = 1e-2
    vals = f.values.copy()
    vals[..., st.index("1")] += eps
    f2 = md.ModelledDistribution(st, f.gamma, f.N, vals)
    scales, raw, normalized, budget = rc.two_model_compare(
        f, model, f2, model, 2.0, INF, d, with_budget=True
    )
    assert lq_aggregate(normalized, INF) <= 2.0 * budget


def test_uniqueness_probe(sc1, fam6):
    N, gamma = 10, 2.5
    xi1 = besov.synthesize(
        "smooth", sc1, N, fam6, func=lambda p: np.sin(2 * np.pi * p[..., 0])
    )
    rep0 = rc.uniqueness_probe(xi1, xi1, gamma, fam6)
    assert rep0.sup_values.max() == 0.0
    bump = mra.analyze_v_coefficients(
        an.analyze_kernel(
            an.SeparableKernel([(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x) ** 4, None)])]),
            fam6,
            sc1,
            N,
        ),
        fam6,
        sc1,
        N,
    )
    small = rc.uniqueness_probe(xi1, xi1.plus(bump.scaled(2.0 ** (-N * gamma))), gamma, fam6)
    assert small.consistent(tol=0.1)
    big = rc.uniqueness_probe(xi1, xi1.plus(bump), gamma, fam6)
    assert not big.consistent(tol=0.1)
    assert big.normalized.max() > 1e3


def test_uniqueness_probe_needs_a_scale(sc1, fam6):
    # at N=3 the scales 2 .. N-2 are none: two independent fields read
    # consistent at every tolerance through a NaN exponent
    xi1, xi2 = (
        besov.synthesize("random_besov", sc1, 3, fam6, alpha=-0.3, seed=seed) for seed in (5, 6)
    )
    with pytest.raises(ValueError, match="N >= 4"):
        rc.uniqueness_probe(xi1, xi2, 2.5, fam6)


# --- one dictionary sup ------------------------------------------------------------
# The bound tables and the model norms take the sup over the dictionary through
# besov.sup_norm. The oracles below are the per-profile loops they replaced;
# max is exact, so the two must agree bit for bit.


def _per_profile_bound(f, model, p, dictionary, residual):
    sc, N = f.structure.scaling, f.N
    scales = dictionary.usable_scales(N)
    raw = np.zeros(len(scales))
    for si_, m in enumerate(scales):
        best = np.zeros(sc.grid_shape(N))
        for prof in dictionary.profiles:
            kern = prof.kernel_coeffs(model.fam, sc, m, N)
            best = np.maximum(best, np.abs(residual(m, prof, kern)))
        raw[si_] = besov.lpn_norm(best, N, p, sc)
    return raw


def _per_profile_pi(model, gamma, dictionary, table):
    """sup over the per-profile ratios, and their max per (n, symbol)."""
    worst = 0.0
    per_row = {}
    for n in dictionary.usable_scales(model.N):
        lam = 2.0 ** (-n)
        for prof in dictionary.profiles:
            for i, s in enumerate(model.structure.symbols):
                if s.zeta >= gamma:
                    continue
                ratio = float(np.max(np.abs(table(i, n, prof)))) / lam**s.zeta
                per_row[(n, s.name)] = max(per_row.get((n, s.name), 0.0), ratio)
                worst = max(worst, ratio)
    return worst, per_row


def _pi_perturbed(model, eps):
    """A copy of the model whose Pi tables carry the factor 1 + eps sin(2 pi x_0)."""
    wave = 1.0 + eps * np.sin(2 * np.pi * model.scaling.grid_points(model.N)[..., 0])
    other = copy.copy(model)
    other.pi_profile_table = lambda sym, n, prof: model.pi_profile_table(sym, n, prof) * wave
    return other


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_dictionary_sup_matches_the_per_profile_loops(kind):
    model = make_model(kind, 6 if kind.endswith("-1") else 4)
    model2 = _pi_perturbed(model, 0.1)
    st, sc, N = model.structure, model.scaling, model.N
    gamma = 2.5 if kind.startswith("poly") else 1.25
    d = besov.make_dictionary(2, scales=range(1, 5))
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((*sc.grid_shape(N), st.dim))
    vals[..., st.at_or_above(gamma)] = 0.0
    f = md.ModelledDistribution(st, gamma, N, vals)

    xi = besov.synthesize("random_besov", sc, N, model.fam, alpha=-0.5, seed=4)
    cN = mra.level_coefficients(xi, model.fam, N)

    def bound_residual(m, prof, kern):
        xi_part = an.correlate(cN, kern)
        germ_part = np.zeros_like(xi_part)
        for i in range(st.dim):
            germ_part = germ_part + model.pi_profile_table(i, m, prof) * vals[..., i]
        return xi_part - germ_part

    _, raw, _ = rc.reconstruction_bound(f, model, xi, 2.0, INF, d)
    assert np.array_equal(raw, _per_profile_bound(f, model, 2.0, d, bound_residual))

    c1 = mra.level_coefficients(rc.reconstruct(f, model, 2.0, INF)[0], model.fam, N)
    c2 = mra.level_coefficients(rc.reconstruct(f, model2, 2.0, INF)[0], model.fam, N)

    def compare_residual(m, prof, kern):
        part = an.correlate(c1 - c2, kern)
        for i in range(st.dim):
            part = part - model.pi_profile_table(i, m, prof) * vals[..., i]
            part = part + model2.pi_profile_table(i, m, prof) * vals[..., i]
        return part

    _, raw, _, _ = rc.two_model_compare(f, model, f, model2, 2.0, INF, d, with_budget=False)
    assert np.array_equal(raw, _per_profile_bound(f, model, 2.0, d, compare_residual))

    def pi_diff(i, n, prof):
        return model.pi_profile_table(i, n, prof) - model2.pi_profile_table(i, n, prof)

    for got, table in (
        (rs.model_norms(model, gamma, d), model.pi_profile_table),
        (rs.model_distance(model, model2, gamma, d), pi_diff),
    ):
        want, per_row = _per_profile_pi(model, gamma, d, table)
        assert got.pi == want and got.pi > 0.0
        assert {(n, sym): ratio for n, sym, ratio in got.pi_table} == per_row
        assert len(got.pi_table) == len(per_row)
