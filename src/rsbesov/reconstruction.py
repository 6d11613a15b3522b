"""Reconstruction: the dyadic convergence engine, the reconstruction map and
its bound table, derivative identities, and the lift onto the polynomial
structure.

Germ increments delta A are pure filter algebra (a low-pass step of the next
level minus the current one), so consistent germs are exact fixed points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

import numpy as np

from . import analysis as an
from . import besov
from . import mra
from .besov import BesovParams, TestDictionary, mollify
from .modelled import AveragedMD, ModelledDistribution, average, d_norm, md_distance, unaverage
from .pyramid import CoeffPyramid
from .scaling import Scaling
from .structures import HOMOGENEITY_TOL, Model, model_distance, model_norms, polynomial_structure
from .util import fit_log2_slope, lq_aggregate, multi_factorial, tail_slope


class CertificateError(RuntimeError):
    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass
class GermCoefficients:
    """Candidate local data A^n_x, x in Lambda_n, with filter-domain increments."""

    scaling: Scaling
    N: int
    A: list[np.ndarray]

    def __post_init__(self):
        if len(self.A) != self.N + 1:
            raise ValueError("need levels 0..N")
        for n, a in enumerate(self.A):
            if a.shape != self.scaling.grid_shape(n):
                raise ValueError(f"germ level {n} has the wrong shape")

    def increments(self, fam: mra.WaveletFamily) -> list[np.ndarray]:
        """delta A^n = <xi_{n+1} - xi_n, phi^n_.>: low-pass of A^{n+1} minus A^n."""
        out = []
        for n in range(self.N):
            low, _ = mra.decompose_level(self.A[n + 1], fam, self.scaling)
            out.append(low - self.A[n])
        return out


def germ_from_pyramid(pyr: CoeffPyramid, fam: mra.WaveletFamily) -> GermCoefficients:
    """The consistent germ A^n = <xi, phi^n_.> of an existing distribution."""
    return GermCoefficients(pyr.scaling, pyr.N, mra.all_level_coefficients(pyr, fam))


@dataclass
class SewingCertificate:
    alpha: float
    gamma: float
    p: float
    q: float
    a_table: np.ndarray
    da_table: np.ndarray
    da_growth: float
    accepted: bool

    def rows(self):
        for n, v in enumerate(self.a_table):
            yield (n, "A", v)
        for n, v in enumerate(self.da_table):
            yield (n, "deltaA", v)


def sewing_limit(
    germ: GermCoefficients,
    alpha: float,
    gamma: float,
    p,
    q,
    fam: mra.WaveletFamily,
    reject: bool = True,
) -> tuple[CoeffPyramid, SewingCertificate]:
    """Assemble xi_N from the germ and certify the two dyadic conditions:
    level-boundedness of A at exponent alpha and l^q-decay of delta A at
    exponent gamma (a fitted growth of at most 0.1 over the last five
    levels)."""
    a_tab = besov.level_norms(germ.A, alpha, p, germ.scaling)
    da_tab = besov.level_norms(germ.increments(fam), gamma, p, germ.scaling)
    growth = tail_slope(da_tab, 5)
    # roundoff-level increments get amplified by the 2^{n gamma} weights;
    # only a growing table of non-negligible size, relative to A, is a
    # genuine blow-up
    floor = 1e-8 * float(a_tab.max(initial=0.0))
    accepted = growth <= 0.1 or float(da_tab[-5:].max(initial=0.0)) <= floor
    cert = SewingCertificate(alpha, gamma, p, q, a_tab, da_tab, growth, accepted)
    if reject and not cert.accepted:
        raise CertificateError(
            f"delta-A table grows (fitted exponent {growth:.3f} > 0.1)", cert
        )
    out = mra.analyze_v_coefficients(germ.A[germ.N].copy(), fam, germ.scaling, germ.N)
    return out, cert


@dataclass
class ReconstructionCertificate:
    alpha: float
    gamma: float
    p: float
    q: float
    sewing: SewingCertificate
    measured_exponent: float
    bound_scales: np.ndarray | None = None
    bound_normalized: np.ndarray | None = None
    bound_raw: np.ndarray | None = None
    bound_aggregate: float | None = None
    budget: float | None = None

    def bound_slope(self) -> float:
        """Fitted lambda-exponent of the raw numerator table."""
        if self.bound_raw is None:
            raise ValueError("no bound table on this certificate")
        return -fit_log2_slope(self.bound_scales, self.bound_raw)


def germ_of(f_bar: AveragedMD, model: Model) -> GermCoefficients:
    """A^n_x = <Pi_x fbar^(n)(x), phi^n_x>, exact per symbol kind."""
    f_bar.structure.check_same(model.structure)
    sc = model.scaling
    A = []
    for n in range(f_bar.N + 1):
        weights = model.pi_center_weights(n)
        acc = np.zeros(sc.grid_shape(n))
        for i, w in enumerate(weights):
            acc = acc + w * f_bar.levels[n][..., i]
        A.append(acc)
    return GermCoefficients(sc, f_bar.N, A)


def structure_alpha(model: Model, gamma: float) -> float:
    """alpha = min(A \\ N) wedge gamma."""
    non_int = [z for z in model.structure.homogeneities if abs(z - round(z)) > HOMOGENEITY_TOL]
    return min(non_int) if non_int else gamma


def reconstruct(
    f: ModelledDistribution,
    model: Model,
    p,
    q,
    dictionary: TestDictionary | None = None,
    f_bar: AveragedMD | None = None,
    with_budget: bool = False,
) -> tuple[CoeffPyramid, ReconstructionCertificate]:
    """Average, evaluate the germ, run the convergence engine, and (with a
    dictionary) table the reconstruction bound."""
    gamma = f.gamma
    if gamma <= 0:
        raise ValueError("reconstruction needs gamma > 0")
    if f_bar is None:
        f_bar = average(f, model)
    germ = germ_of(f_bar, model)
    alpha = min(structure_alpha(model, gamma), gamma)
    eps = 0.01
    xi, sew = sewing_limit(
        germ, min(alpha, -eps), gamma, p, q, model.fam, reject=False
    )
    measured = besov.critical_exponent(xi, p)
    cert = ReconstructionCertificate(alpha, gamma, float(p), float(q), sew, measured)
    if dictionary is not None:
        scales, raw, normed = reconstruction_bound(f, model, xi, p, q, dictionary)
        cert.bound_scales = scales
        cert.bound_raw = raw
        cert.bound_normalized = normed
        cert.bound_aggregate = lq_aggregate(normed, q)
        if with_budget:
            nrm = model_norms(model, gamma, dictionary)
            cert.budget = d_norm(f, model, p, q).total * nrm.pi * (1.0 + nrm.gamma)
    return xi, cert


def reconstruction_bound(
    f: ModelledDistribution,
    model: Model,
    xi: CoeffPyramid,
    p,
    q,
    dictionary: TestDictionary,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-scale table of || sup_eta |<xi - Pi_x f(x), eta^lambda_x>| ||_{L^p},
    raw and normalized by lambda^gamma."""
    cN = mra.level_coefficients(xi, model.fam, f.N)

    def residual(m, prof, kern):
        xi_part = an.correlate(cN, kern)
        germ_part = np.zeros_like(xi_part)
        for i in range(f.structure.dim):
            w = model.pi_profile_table(i, m, prof)
            germ_part = germ_part + w * f.values[..., i]
        return xi_part - germ_part

    return _scale_table(f, model, p, dictionary, residual)


def _scale_table(
    f: ModelledDistribution, model: Model, p, dictionary: TestDictionary, residual
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per dictionary scale m <= N - 2: the L^p norm of the sup over profiles
    of |residual(m, profile, analyzed profile kernel)|, raw and normalized by
    lambda^gamma."""
    sc = f.structure.scaling
    N = f.N
    scales = np.array([m for m in dictionary.scales if m <= N - 2])
    raw = np.zeros(len(scales))
    for si_, m in enumerate(scales):
        best = np.zeros(sc.grid_shape(N))
        for prof in dictionary.profiles:
            kern = prof.kernel_coeffs(model.fam, sc, m, N)
            best = np.maximum(best, np.abs(residual(m, prof, kern)))
        raw[si_] = besov.lpn_norm(best, N, p, sc)
    lam = 2.0 ** (-scales.astype(float))
    return scales, raw, raw / lam**f.gamma


def derivative_check(
    f: ModelledDistribution,
    xi: CoeffPyramid,
    model: Model,
) -> dict[tuple[int, ...], float]:
    """Compare k! f_k against finite differences of the output mollified at
    scale 2^{2-N}, for total degree |k| <= 2.

    Returns the max relative error per multi-index (relative to the sup of
    k! f_k, or absolute where that vanishes)."""
    st, sc = f.structure, f.structure.scaling
    N = f.N
    lam = 2.0 ** (-(N - 2))
    smooth = mollify(xi, lam, model.fam)
    out = {}
    for i, s in enumerate(st.symbols):
        if s.kind != "poly" or s.zeta >= f.gamma:
            continue
        k = s.k
        if sum(k) > 2:
            continue
        fd = smooth
        for ax, ki in enumerate(k):
            step = 2.0 ** (-N * sc.s[ax])
            for _ in range(ki):
                fd = (np.roll(fd, -1, axis=ax) - np.roll(fd, 1, axis=ax)) / (2 * step)
        target = multi_factorial(k) * f.values[..., i]
        scale = np.max(np.abs(target))
        err = np.max(np.abs(fd - target))
        out[k] = err / scale if scale > 0 else err
    return out


# ---------------------------------------------------------------------------
# the lift iota onto the polynomial structure


@cache
def _weighted_rho(ell: int) -> an.PiecewisePoly:
    """A_ell(rho) = sum_i C(ell, i) (ell!/i!) u^i rho^(i)(u) on rho's own pieces.

    On piece p, u = left_p + t / rate with a dyadic left_p and rate, so each
    product u^i rho^(i) has an exact table in powers of t: an integer one.
    """
    rho = besov.RHO
    P, K = rho.coeffs.shape
    left = rho.start + np.arange(P) / rho.rate
    table = np.zeros((P, K))
    for i in range(ell + 1):
        w = math.comb(ell, i) * math.factorial(ell) // math.factorial(i)
        d = rho.derivative(i).coeffs  # degree K - 1 - i
        for m in range(i + 1):
            u_m = math.comb(i, m) * left ** (i - m) / rho.rate**m  # t^m in u^i
            table[:, m : m + K - i] += w * u_m[:, None] * d
    return an.PiecewisePoly(rho.start, rho.rate, table, rho.scale)


def _lift_factor_1d(a: int, ell: int, scale: float) -> an.PiecewisePoly:
    """d^a/du^a A_ell(rho_scale)(u) with rho_scale(u) = rho(u/scale)/(mass*scale).

    u^i d^i/du^i is dilation-invariant, so A_ell(rho_scale) is A_ell(rho)
    dilated and renormalised like rho_scale.
    """
    return (_weighted_rho(ell).dilated(scale) * (1.0 / (besov.RHO_MASS * scale))).derivative(a)


def p_kernel(
    k: tuple[int, ...],
    q_floor: int,
    scaling: Scaling,
    n: int,
    deriv: tuple[int, ...] | None = None,
) -> an.SeparableKernel:
    """d^deriv_y P^q_{k,x}(rho^n, y) as a separable kernel in u = y - x."""
    d = scaling.d
    deriv = deriv or (0,) * d
    terms = []
    ells = [
        ell
        for ell in iproduct(*[range(q_floor + 1) for _ in range(d)])
        if scaling.scaled_degree(tuple(a + b for a, b in zip(k, ell))) <= q_floor
    ]
    for ell in ells:
        coef = 1.0 / (multi_factorial(k) * multi_factorial(ell))
        factors = [
            _lift_factor_1d(deriv[i], ell[i], 2.0 ** (-n * scaling.s[i]))
            for i in range(d)
        ]
        terms.append((coef, factors))
    return an.SeparableKernel(terms)


def lift_kernel(k: tuple[int, ...], q_floor: int, scaling: Scaling, n: int) -> an.SeparableKernel:
    """(-1)^|k| d^k_y P^q_{k,x}(rho^n, y): pairs with xi in place of d^k xi."""
    kern = p_kernel(k, q_floor, scaling, n, deriv=k)
    return kern.scaled((-1.0) ** sum(k))


@dataclass
class LiftReport:
    besov_report: besov.BesovReport
    unaverage: object
    roundtrip_rel_error: float | None = None


def lift(
    xi: CoeffPyramid,
    gamma: float,
    p,
    q,
    fam: mra.WaveletFamily,
    check_roundtrip: bool = False,
) -> tuple[ModelledDistribution, LiftReport]:
    """Continuous right inverse of reconstruction on the polynomial structure.

    fbar^(n)_k(x) = <xi, K_{k,n}(. - x)> with the polynomially corrected
    kernels (derivatives moved onto the test function), then unaverage.
    """
    sc = xi.scaling
    N = xi.N
    st, model = polynomial_structure(gamma, sc, fam, N)
    params = BesovParams(gamma, p, q, max(fam.r, int(abs(gamma)) + 1))
    besov_rep = besov.besov_norm_wavelet(xi, params)
    q_floor = int(np.floor(gamma))
    cN = mra.level_coefficients(xi, fam, N)
    levels = []
    for n in range(N + 1):
        vals = np.zeros((*sc.grid_shape(n), st.dim))
        for i, s in enumerate(st.symbols):
            kern = lift_kernel(s.k, q_floor, sc, n)
            karr = an.analyze_kernel(kern, fam, sc, N)
            tab = an.correlate(cN, karr)
            vals[..., i] = an.subsample(tab, sc, N, n)
        levels.append(vals)
    fbar = AveragedMD(st, gamma, N, levels)
    f, urep = unaverage(fbar, model, p=p if not math.isinf(p) else 2.0)
    rep = LiftReport(besov_rep, urep)
    if check_roundtrip:
        out, _ = reconstruct(f, model, p, q)
        num = out.plus(xi.scaled(-1.0)).l2()
        den = xi.l2()
        rep.roundtrip_rel_error = num / den if den > 0 else num
    return f, rep


def two_model_compare(
    f: ModelledDistribution,
    model: Model,
    f2: ModelledDistribution,
    model2: Model,
    p,
    q,
    dictionary: TestDictionary,
    with_budget: bool = True,
):
    """Left side of the two-model reconstruction bound per scale, plus the
    right-side budget built from the distance and model-difference norms."""
    gamma = f.gamma
    N = f.N
    xi1, _ = reconstruct(f, model, p, q)
    xi2, _ = reconstruct(f2, model2, p, q)
    c1 = mra.level_coefficients(xi1, model.fam, N)
    c2 = mra.level_coefficients(xi2, model2.fam, N)

    def residual(m, prof, kern):
        part = an.correlate(c1 - c2, kern)
        for i in range(f.structure.dim):
            part = part - model.pi_profile_table(i, m, prof) * f.values[..., i]
            part = part + model2.pi_profile_table(i, m, prof) * f2.values[..., i]
        return part

    scales, raw, normalized = _scale_table(f, model, p, dictionary, residual)
    budget = None
    if with_budget:
        dist = md_distance(f, model, f2, model2, p, q).total
        n1 = model_norms(model, gamma, dictionary)
        n2 = model_norms(model2, gamma, dictionary)
        diff = model_distance(model, model2, gamma, dictionary)
        fb2 = d_norm(f2, model2, p, q).total
        budget = dist * n1.pi * (1.0 + n1.gamma) + fb2 * (
            diff.pi * (1.0 + n1.gamma) + n2.pi * diff.gamma
        )
    return scales, raw, normalized, budget


@dataclass
class UniquenessReport:
    scales: np.ndarray
    sup_values: np.ndarray
    normalized: np.ndarray  # sup / lambda^gamma
    fitted_exponent: float

    def consistent(self, tol: float) -> bool:
        return bool(np.max(self.normalized, initial=0.0) <= tol)


def uniqueness_probe(
    xi1: CoeffPyramid,
    xi2: CoeffPyramid,
    gamma: float,
    fam: mra.WaveletFamily,
) -> UniquenessReport:
    """Mollified-difference probe of the uniqueness argument: the sup over x
    of <xi1 - xi2, rho^delta_x> at dyadic delta = 2^-m, m = 2..N-2,
    normalized by delta^gamma."""
    diff = xi1.plus(xi2.scaled(-1.0))
    svals = np.arange(2, diff.N - 1)
    sups = np.array([np.max(np.abs(mollify(diff, 2.0 ** (-m), fam))) for m in svals])
    lam = 2.0 ** (-svals.astype(float))
    fitted = -fit_log2_slope(svals, sups)
    return UniquenessReport(svals, sups, sups / lam**gamma, fitted)
