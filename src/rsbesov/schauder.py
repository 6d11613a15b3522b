"""Singular-kernel machinery: exact dyadic kernel decompositions, admissible
model extension by an abstract integration symbol, the order-raising
convolution operator, and the reconstruction/convolution identity check.

Only exactly self-similar kernels are accepted: the level pieces are then
generated by the scaling identity and never measured.  Moment cancellation
is arranged by subtracting derivative-of-bump correctors whose coefficients
solve a small triangular system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import product as iproduct
from numbers import Integral

import numpy as np

from . import analysis as an
from . import besov as bs
from . import filters
from . import mra
from .modelled import ModelledDistribution, d_norm
from .pyramid import CoeffPyramid
from .reconstruction import reconstruct
from .scaling import Scaling, wrap_displacement
from .structures import NoiseModel, RegularityStructure, build_structure, poly_name
from .util import multi_factorial


# the order-8 bump has mass 2/8: its normalised antiderivative, moved to [1/4, 1/2]
_CDF = (bs.bspline_bump(8).antiderivative() * 4.0).dilated(0.125).shifted(0.375)
_BUMP_ORDER = 10
_BUMP = bs.bspline_bump(_BUMP_ORDER)  # corrector bump B on [-1, 1]
_BUMP_DERIVS = tuple(_BUMP.derivative(k) for k in range(10))
_CORRECTOR_SCALE = 0.5  # s in the 1-d corrector factors B(x / s) / s, support [-s, s]
_CUTOFF_END = 0.5  # S(u) = 0 for u >= 1/2, so the annular cutoff vanishes for g >= 1/2
_BLOCK = 2**14  # points per kernel call in _sample_box (128 KiB per temporary)
_GL_NODES = 8  # Gauss-Legendre nodes per panel of the radial and the sphere rule
_SPHERE_PANELS = 4  # panels per chart half of the first sphere rule, doubled until settled
_SPHERE_MAX_PANELS = 2**10  # past this the sphere rule gives up (the heat kernel settles at 16)
_SPHERE_RTOL = 1e-13  # settled: a doubling moves no A_m by more, relative to int |theta^m P|


def _step(u: np.ndarray) -> np.ndarray:
    """S: 1 below 1/4, 0 above 1/2, one minus a spline CDF in between."""
    u = np.asarray(u, dtype=float)
    out = _CDF(u)
    np.subtract(1.0, out, out=out)
    out[u >= _CUTOFF_END] = 0.0
    return out


# largest kernel mesh of _self_similar_pieces: under _sample_bits's rule it
# binds at N=7 for s=(2,1) and at N=24 for d=1
_MAX_ND_POINTS = 2**24
# B_i of _sample_bits per scaling, and the route's miss against more sample
# bits as a fraction of the sup (README, Schauder kernel arrays): at d=1 at
# most 9.1e-16 / 4.2e-15 / 2.3e-14 for k = 0 / 1 / 2, N = 5-15; at s=(2,1)
# at most 3.8e-9 for N <= 2 (k = (0,3)), 3.6e-8 at N=6
_SAMPLE_BITS = {(1,): (14,), (2, 1): (13, 10)}


def s_gauge(scaling: Scaling, pts: np.ndarray) -> np.ndarray:
    """Smooth s-homogeneous gauge g with g(2^s x) = 2 g(x)."""
    m = math.lcm(*scaling.s)
    acc = np.zeros(pts.shape[:-1])
    for i, si in enumerate(scaling.s):
        acc = acc + np.abs(pts[..., i]) ** (2 * m // si)
    return acc ** (1.0 / (2 * m))


def annular_cutoff(scaling: Scaling, pts: np.ndarray) -> np.ndarray:
    """chi = S(g) - S(2 g): supported in the dyadic annulus g in [1/8, 1/2]."""
    g = s_gauge(scaling, pts)
    return _step(g) - _step(2.0 * g)


def heat_kernel(scaling: Scaling):
    """Space-time heat kernel; first coordinate is time, beta = 2."""
    dsp = scaling.d - 1
    if dsp < 1 or scaling.s[0] != 2 or any(si != 1 for si in scaling.s[1:]):
        raise ValueError("heat kernel needs scaling (2, 1, ..., 1)")

    def P(pts):
        t = pts[..., 0]
        out = np.zeros(pts.shape[:-1])
        pos = t > 0
        if np.any(pos):
            r2 = np.zeros_like(out)
            for i in range(1, scaling.d):
                r2 = r2 + pts[..., i] ** 2
            out[pos] = (4.0 * np.pi * t[pos]) ** (-dsp / 2.0) * np.exp(
                -r2[pos] / (4.0 * t[pos])
            )
        return out

    return P, 2.0


def riesz_kernel(scaling: Scaling, beta: float):
    """|x|^{beta - |s|} profile; exactly self-similar for any beta in (0, |s|)."""
    if not (0.0 < beta < scaling.total):
        raise ValueError("need 0 < beta < |s|")

    def P(pts):
        g = np.maximum(s_gauge(scaling, pts), 1e-300)
        return g ** (beta - scaling.total)

    return P, beta


@dataclass
class KernelDecomposition:
    """beta-regularising kernel split into exactly self-similar dyadic pieces."""

    scaling: Scaling
    beta: float
    r: int
    P: object  # full kernel, pointwise on (..., d) arrays
    correction_coeffs: dict = field(default_factory=dict)
    _mom_cache: dict = field(default_factory=dict, repr=False)  # raw P0 moment per m

    # -- evaluation --------------------------------------------------------
    def p0_raw(self, pts: np.ndarray) -> np.ndarray:
        """P times the annular cutoff, the cutoff taken only where P != 0
        (the heat kernel vanishes on the t <= 0 half of every box).  Where P
        has no zero, as for the Riesz kernel, nothing is gathered."""
        out = np.array(self.P(pts), dtype=float)
        nz = out != 0
        if nz.all():
            out *= annular_cutoff(self.scaling, pts)
        else:
            out[nz] *= annular_cutoff(self.scaling, pts[nz])
        return out

    def _corrector_1d(self, k: int, x: np.ndarray) -> np.ndarray:
        """D^k of the 1-d corrector factor B(x/s)/s (exact spline derivative)."""
        return _BUMP_DERIVS[k](x / _CORRECTOR_SCALE) / _CORRECTOR_SCALE ** (1 + k)

    def _minus_correctors(self, out: np.ndarray, axes: list) -> np.ndarray:
        """out minus c * d^kc of every tensor corrector bump, in
        correction_coeffs order.  axes holds the coordinates per axis, a point
        array's columns or a sparse mesh's axes: each corrector is the product
        of its 1-d factors, each evaluated on its axis alone."""
        for kc, c in self.correction_coeffs.items():
            out = out - c * math.prod(self._corrector_1d(ki, u) for ki, u in zip(kc, axes))
        return out

    def p0(self, pts: np.ndarray) -> np.ndarray:
        """p0_raw minus the correctors."""
        return self._minus_correctors(self.p0_raw(pts), [pts[..., i] for i in range(pts.shape[-1])])

    def pn(self, n: int, pts: np.ndarray, corrected: bool = True) -> np.ndarray:
        scaled = pts * 2.0 ** (n * np.array(self.scaling.s, dtype=float))
        f = self.p0 if corrected else self.p0_raw
        return 2.0 ** (n * (self.scaling.total - self.beta)) * f(scaled)

    def partial_sum(
        self, pts: np.ndarray, levels: int, corrected: bool = True
    ) -> np.ndarray:
        acc = np.zeros(pts.shape[:-1])
        for n in range(levels):
            acc = acc + self.pn(n, pts, corrected=corrected)
        return acc

    def tail(self, pts: np.ndarray) -> np.ndarray:
        """P minus the full uncorrected dyadic part: P * (1 - S(g))."""
        return self.P(pts) * (1.0 - _step(s_gauge(self.scaling, pts)))

    # -- moments -----------------------------------------------------------
    def p0_moment(self, m: tuple[int, ...]) -> float:
        """int x^m P0: the raw moment of p0_raw in polar coordinates
        (`_raw_moments`, cached per m) minus c_k times each tensor
        corrector's moment, the entry of decompose_kernel's moment system
        (`_corrector_moment`).  For a corrected m both halves are the ones
        the solve took, so the result is its residual: it checks the solve.
        For any other m it is the moment itself.  m is a tuple of d
        integers >= 0.
        """
        if not isinstance(m, tuple) or len(m) != self.scaling.d:
            raise ValueError(
                f"moment index must be a tuple of {self.scaling.d} integers >= 0, got {m!r}"
            )
        for i, mi in enumerate(m):
            _check_count(f"moment index entry m[{i}]", mi, 0)
        if m not in self._mom_cache:
            self._mom_cache.update(_raw_moments(self.P, self.scaling, self.beta, [m]))
        corr = 0.0
        for k, c in self.correction_coeffs.items():
            corr += c * _corrector_moment(m, k)
        return self._mom_cache[m] - corr

    def pplus_moment(self, m: tuple[int, ...], levels: int | None = None) -> float:
        """Moments of the (possibly truncated) singular part: geometric sums
        of the exactly scaled level moments."""
        if levels is not None:
            _check_count("levels", levels, 0)
        base = self.p0_moment(m)
        rho = 2.0 ** (-(self.beta + self.scaling.scaled_degree(m)))
        if levels is None:
            return base / (1.0 - rho)
        return base * (1.0 - rho**levels) / (1.0 - rho)


def _sample_box(f, axes: list) -> np.ndarray:
    """f on the box mesh with the given per-axis coordinates, _BLOCK points
    per call, so f's temporaries stay small: the rows of the first axis that
    a flat (C-order) range touches are broadcast whole and the range cut
    out of them."""
    out = np.empty(tuple(u.size for u in axes))
    flat = out.reshape(-1)
    row = math.prod(u.size for u in axes[1:])
    for a in range(0, flat.size, _BLOCK):
        b = min(a + _BLOCK, flat.size)
        i0 = a // row
        mesh = np.meshgrid(axes[0][i0 : -(-b // row)], *axes[1:], indexing="ij")
        flat[a:b] = f(np.stack(mesh, -1).reshape(-1, len(axes))[a - i0 * row : b - i0 * row])
    return out


# ---------------------------------------------------------------------------
# P0 moments in s-homogeneous polar coordinates


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on P_n from Tricomi's first guesses, built on first use."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def _panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The composite n-point Gauss-Legendre rule on the panels between
    consecutive edges: flat nodes and weights."""
    x, w = _gauss_legendre(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _radial_integral(e: float) -> float:
    """R(e) = int_{1/8}^{1/2} rho^e (S(rho) - S(2 rho)) d rho, by Gauss-Legendre
    on each spline piece of the cutoff (S's 8 pieces on [1/4, 1/2], halved on
    [1/8, 1/4]).  The pieces are polynomials of degree 8, so 8 + ceil(e/2)
    nodes are exact for an integer e >= 0; for any other e the power is
    analytic on pieces at most 1/32 wide at distance 1/8 or more from 0."""
    knots = _CDF.start + np.arange(len(_CDF.coeffs) + 1) / _CDF.rate
    rho, w = _panel_rule(
        np.concatenate([knots[:-1] / 2.0, knots]), _GL_NODES + math.ceil(max(e, 0.0) / 2.0)
    )
    return float(np.sum(w * rho**e * (_step(rho) - _step(2.0 * rho))))


def _sphere_rule(scaling: Scaling, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (n, d) and weights of a rule for int f d sigma over the gauge
    sphere g = 1, with d sigma the measure of dx = rho^(|s|-1) d rho d sigma.

    At d=1 the sphere is {1, -1}, each point of weight s_0, and the rule is
    exact.  At d=2 it is |t|^a + |x|^b = 1, a = 2M/s_0, b = 2M/s_1, M =
    lcm(s), in two charts that each stay off the other's end: x for
    |x|^b <= 1/2, where d sigma = s_0 |t|^(1-a) dx, and t on the two caps
    |t|^a <= 1/2, where d sigma = s_1 |x|^(1-b) dt (the Jacobian
    det[(s_i theta_i) | d theta/du] of x = (rho^s_i theta_i(u))).  Each
    chart half (one sign of each coordinate) gets `panels` panels of
    _GL_NODES nodes.  The x chart's panels are uniform; the cap chart's
    edges sit at (j/panels)^3 of its length, graded toward t = 0, where the
    heat kernel's exp(-x^2 / 4t) has its essential singularity: uniform
    panels settle there only at 128, graded ones at 16.  Grading the x chart
    too would make P = 1 settle at 32 to 64 panels, not 16.
    """
    s = scaling.s
    if scaling.d == 1:
        return np.array([[1.0], [-1.0]]), np.full(2, float(s[0]))
    M = math.lcm(*s)
    edges = np.linspace(0.0, 1.0, panels + 1)
    pts, wts = np.empty((2, 4, panels * _GL_NODES, 2)), np.empty((2, 4, panels * _GL_NODES))
    for c, (ax, grade) in enumerate(((1, 1), (0, 3))):  # the chart's own coordinate: x, then t
        u, w = _panel_rule(edges**grade, _GL_NODES)
        own, other = 2 * M / s[ax], 2 * M / s[1 - ax]
        end = 0.5 ** (1.0 / own)  # |v|^own = 1/2 at the chart's end
        v = end * u
        rest = (1.0 - v**own) ** (1.0 / other)
        wts[c] = s[1 - ax] * rest ** (1.0 - other) * end * w
        for j, (sv, sr) in enumerate(iproduct((1.0, -1.0), repeat=2)):
            pts[c, j, :, ax], pts[c, j, :, 1 - ax] = sv * v, sr * rest
    return pts.reshape(-1, 2), wts.reshape(-1)


def check_moment_rule(scaling: Scaling) -> None:
    """Reject a scaling whose gauge sphere has no rule here (d >= 3)."""
    if scaling.d > 2:
        raise ValueError(
            f"the P0 moments at s={scaling.s} need a {scaling.d - 1}-d gauge-sphere "
            "rule, which is not implemented (only d <= 2)"
        )


def _sphere_moments(P, scaling: Scaling, ms) -> dict:
    """A_m = int_{g=1} theta^m P(theta) d sigma for every m in ms, from one
    evaluation of P per rule.  The d=2 rule doubles its panels until a
    doubling moves no A_m by more than _SPHERE_RTOL of int |theta^m P| d sigma;
    one that has not settled at _SPHERE_MAX_PANELS raises, naming m.  Each
    rule's theta^m are products of one row per axis of a power table, the
    theta_i^e for e up to the largest m_i by cumulative product."""
    check_moment_rule(scaling)
    panels, last = _SPHERE_PANELS, None
    while True:
        pts, w = _sphere_rule(scaling, panels)
        w = w * P(pts)
        A, scale = np.empty(len(ms)), np.empty(len(ms))
        powers = [
            np.cumprod([np.ones_like(u)] + [u] * max((m[ax] for m in ms), default=0), axis=0)
            for ax, u in enumerate(pts.T)
        ]
        for i, m in enumerate(ms):
            terms = w * math.prod(p[e] for p, e in zip(powers, m))
            A[i], scale[i] = terms.sum(), np.abs(terms).sum()
        if scaling.d == 1:
            break
        if last is not None:
            moved = ~(np.abs(A - last) <= _SPHERE_RTOL * scale)
            if not moved.any():
                break
            if panels >= _SPHERE_MAX_PANELS:
                raise ValueError(
                    f"the gauge-sphere rule for the P0 moment m={ms[np.argmax(moved)]} "
                    f"has not settled at {panels} panels"
                )
        last, panels = A, 2 * panels
    return {m: float(a) for m, a in zip(ms, A)}


def _raw_moments(P, scaling: Scaling, beta: float, ms) -> dict:
    """int x^m p0_raw for every m in ms.  With x = (rho^s_i theta_i), g(theta)
    = 1, dx = rho^(|s|-1) d rho d sigma; P is homogeneous of degree
    beta - |s| and the cutoff depends on g = rho alone, so the moment is
    R(|m|_s + beta - 1) A_m (`_radial_integral`, `_sphere_moments`)."""
    A = _sphere_moments(P, scaling, ms)
    return {m: _radial_integral(scaling.scaled_degree(m) + beta - 1.0) * A[m] for m in ms}


@cache
def _bump_moment(j: int) -> float:
    return bs.bspline_bump_moment(_BUMP_ORDER, j)


def _corrector_moment(m: tuple[int, ...], k: tuple[int, ...]) -> float:
    """int x^m of the tensor corrector D^k prod_i B(x_i/s)/s: per axis, by parts,
    int u^m_i D^k_i B(u/s)/s du = (-1)^k_i m_i!/(m_i-k_i)! s^(m_i-k_i) mom1d[m_i-k_i],
    and 0 unless k <= m."""
    if any(ki > mi for ki, mi in zip(k, m)):
        return 0.0
    val = 1.0
    for mi, ki in zip(m, k):
        j = mi - ki
        val *= (
            (-1.0) ** ki
            * math.factorial(mi)
            / math.factorial(j)
            * _CORRECTOR_SCALE**j
            * _bump_moment(j)
        )
    return val


def self_similarity_defect(P, scaling: Scaling, beta: float) -> float:
    """Largest relative defect of P(delta_lam x) = lam^{beta-|s|} P(x), with
    delta_lam x = (lam^s_i x_i), on the annulus samples among 512 seeded
    uniform points of [-1, 1]^d, at lam = 2 (the dyadic split's dilation) and
    at lam = 2^0.37.  The polar P0 moments need P homogeneous under every
    dilation; a log-periodic P, such as |x|^(beta-1) (2 + sin(2 pi log2|x|))
    at d=1, passes lam = 2 alone.  A NaN anywhere makes the defect NaN."""
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (512, scaling.d))
    g = s_gauge(scaling, pts)
    keep = (g > 0.1) & (g < 0.9)
    pts = pts[keep]
    base = P(pts)
    defects = []
    for lam in (2.0, 2.0**0.37):
        a = P(pts * lam ** np.array(scaling.s, dtype=float))
        b = lam ** (beta - scaling.total) * base
        defects.append(np.abs(a - b) / np.maximum(np.abs(b), 1e-30))
    return float(np.max(defects))


def decompose_kernel(
    kind: str,
    scaling: Scaling,
    r: int,
    beta: float | None = None,
    custom=None,
) -> KernelDecomposition:
    """Build the dyadic decomposition of a self-similar kernel and correct the
    base-piece moments up to scaled degree r.  A custom kernel needs a finite
    beta > 0 and a `self_similarity_defect` of at most 1e-9."""
    _check_count("r", r, 0)
    check_moment_rule(scaling)
    if kind == "heat":
        P, beta = heat_kernel(scaling)
    elif kind == "riesz":
        if beta is None:
            raise ValueError("riesz kernel needs beta")
        P, beta = riesz_kernel(scaling, beta)
    elif kind == "custom":
        if custom is None or beta is None:
            raise ValueError("custom kernels need a callable and beta")
        if not (math.isfinite(beta) and beta > 0):
            raise ValueError(f"custom kernels need a finite beta > 0, got {beta!r}")
        defect = self_similarity_defect(custom, scaling, beta)
        if not defect <= 1e-9:  # a NaN defect fails too
            raise ValueError(
                f"kernel is not exactly self-similar (relative defect {defect:.2e})"
            )
        P = custom
    else:
        raise ValueError(f"unknown kernel kind: {kind}")
    K = KernelDecomposition(scaling, float(beta), int(r), P)
    # moment correction: solve sum_k c_k mom(D^k B, m) = mom(P0_raw, m)
    ks = [
        k
        for k in iproduct(*[range(r + 1) for _ in range(scaling.d)])
        if scaling.scaled_degree(k) <= r
    ]
    K._mom_cache.update(_raw_moments(P, scaling, K.beta, ks))
    A = np.array([[_corrector_moment(m, k) for k in ks] for m in ks])
    coeffs = np.linalg.solve(A, np.array([K._mom_cache[m] for m in ks]))
    K.correction_coeffs = {k: float(c) for k, c in zip(ks, coeffs)}
    return K


# ---------------------------------------------------------------------------
# admissible model extension


class ExtendedModel(NoiseModel):
    """Noise model extended by the abstract integral of Xi.

    Pi_x(I Xi) is the truncated convolution minus its Taylor polynomial at x;
    Gamma picks up the polynomial corrections forced by Pi-compatibility.
    """

    def __init__(
        self,
        structure: RegularityStructure,
        fam: mra.WaveletFamily,
        xi: CoeffPyramid,
        alpha: float,
        kernel: KernelDecomposition,
        gamma_max: float,
        conv_levels: int,
    ):
        _check_count("conv_levels", conv_levels, 1)
        super().__init__(structure, fam, xi, alpha)
        self.kernel = kernel
        self.gamma_max = gamma_max
        self.conv_levels = conv_levels
        self.ixi_index = structure.index("IXi")
        self.zeta_i = alpha + kernel.beta
        sc = self.scaling
        N = self.N
        self.taylor_ks = sc.multi_indices_below(self.zeta_i)
        self.deriv_ks = sc.multi_indices_below(gamma_max + kernel.beta)
        cN = self.xi_levels[N]
        self.w_arrays = _deriv_kernel_array(kernel, self.deriv_ks, fam, sc, N, conv_levels)
        # t_l(x) = <xi, d^l P+(x - .)> on the fine grid, exact for xi in V_N
        self.t_tables = {k: an.correlate(cN, w) for k, w in self.w_arrays.items()}
        # point values of the truncated convolution and its quasi-interpolant
        self.conv_values = self.t_tables[(0,) * sc.d]
        self.conv_pyramid = mra.forward_transform(self.conv_values, fam, sc)
        self.conv_levels_coeffs = mra.all_level_coefficients(self.conv_pyramid, fam)

    # -- Gamma: the IXi column picks up the polynomial corrections c_k ------
    def _c_coeff(self, k, x_idx, y_idx, delta):
        """Gamma_{x,y} IXi polynomial coefficient on X^k, delta = x - y (the
        coordinates on the last axis)."""
        acc = self.t_tables[k][x_idx] / multi_factorial(k)
        for ell in self.taylor_ks:
            if all(a <= b for a, b in zip(k, ell)):
                diff = tuple(b - a for a, b in zip(k, ell))
                acc = acc - (
                    self.t_tables[ell][y_idx]
                    / (multi_factorial(diff) * multi_factorial(k))
                ) * np.prod(delta ** np.asarray(diff), axis=-1)
        return acc

    def gamma_apply_field(self, vals, delta, x_index):
        out = super().gamma_apply_field(vals, delta, x_index)
        ix = vals[..., self.ixi_index]
        if not np.any(ix):
            return out
        sc, shape = self.scaling, self.scaling.grid_shape(self.N)
        # one displacement per leading index, broadcast over the target points
        B = np.shape(delta)[:-1]
        delta = np.reshape(delta, (*B, *(1,) * (ix.ndim - len(B)), sc.d)).astype(float)
        cells = delta * np.array(shape)
        steps = np.rint(cells).astype(int)
        if np.any(np.abs(cells - steps) > 1e-9):
            raise ValueError("transport displacement off the fine grid")
        y_index = tuple((x_index[i] + steps[..., i]) % m for i, m in enumerate(shape))
        wdel = wrap_displacement(-delta)  # x - y
        for k in self.taylor_ks:
            c = self._c_coeff(k, x_index, y_index, wdel)
            out[..., self.structure.index(poly_name(k))] += c * ix
        return out

    # -- Pi: the IXi symbol; Xi and the polynomials come from the base classes --
    def pi_father_point(self, sym, n, x, z, z_idx):
        if sym != self.ixi_index:
            return super().pi_father_point(sym, n, x, z, z_idx)
        acc = self.conv_levels_coeffs[n][z_idx]
        x_idx = self.scaling.nearest_grid_index(x, self.N)
        delta = wrap_displacement(np.asarray(z, dtype=float) - np.asarray(x, dtype=float))
        for ell in self.taylor_ks:
            acc = acc - (
                self.t_tables[ell][x_idx]
                / multi_factorial(ell)
                * self.poly_father_pairing(ell, n, delta)
            )
        return acc

    def pi_profile_table(self, sym, scale_n, profile):
        if sym != self.ixi_index:
            return super().pi_profile_table(sym, scale_n, profile)
        out = self._profile_corr(self.conv_levels_coeffs[self.N], scale_n, profile, "conv")
        for ell in self.taylor_ks:
            out = out - self.t_tables[ell] / multi_factorial(ell) * (
                self.poly_profile_moment(ell, scale_n, profile)
            )
        return out


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _deriv_kernel_array(
    kernel: KernelDecomposition,
    ks: list,
    fam: mra.WaveletFamily,
    scaling: Scaling,
    N: int,
    levels: int,
    bits: tuple[int, ...] | None = None,
) -> dict:
    """Per k in ks, the V_N coefficients of u -> d^k P+_{<levels}(-u)
    (summed over levels), all from one sampling of P0.

    The pieces are exactly self-similar, d^k P_n(-u) = 2^{ne} F(2^{ns} u)
    with F = d^k P0(-.) and e = |s| - beta + |k|_s.  Hence <d^k P_n(-.),
    phi^N_t> = 2^{n(e - |s|/2)} <F, phi^{N-n}_t> on R^d: n s_i exact
    low-pass steps along each axis i from F's level-N coefficients
    (_self_similar_pieces), each level added to the torus periodically.
    bits, per axis, defaults to _sample_bits's rule.
    """
    out = {}
    for k, pieces in _self_similar_pieces(kernel, ks, fam, N, levels, bits).items():
        w = out[k] = np.zeros(scaling.grid_shape(N))
        for t0, c in pieces:
            np.add.at(w, np.ix_(*[(a + np.arange(m)) % M for a, m, M in zip(t0, c.shape, w.shape)]), c)
    return out


def _sample_bits(scaling: Scaling, N: int) -> tuple[int, ...]:
    """The rule for the sample bits of F on axis i, max(N s_i + s_i - 1, B_i)
    with B = _SAMPLE_BITS[s].  F is the same unit-scale function at every N,
    so every N whose N s_i + s_i - 1 stays at or below B_i samples it on the
    same mesh."""
    if scaling.s not in _SAMPLE_BITS:
        raise ValueError(
            f"the kernel route has no sample bits for s={scaling.s} (only for "
            f"{', '.join(map(str, _SAMPLE_BITS))}); pass per-axis bits"
        )
    return tuple(max(N * si + si - 1, b) for si, b in zip(scaling.s, _SAMPLE_BITS[scaling.s]))


def _self_similar_pieces(
    kernel: KernelDecomposition,
    ks: list,
    fam: mra.WaveletFamily,
    N: int,
    levels: int,
    bits: tuple[int, ...] | None = None,
) -> dict:
    """Per k in ks, per level n < levels, (t0, c) with c[i] = <d^k P_n(-.),
    phi^N_{t0+i}> on R^d, t0 and i per axis (see _deriv_kernel_array).

    G = P0(-.) is sampled once on R for all ks, at bits_i bits on axis i
    (_sample_bits's rule unless given; at least N s_i), on two boxes, each
    with 3 samples of stencil pad.  The raw part is sampled on its support
    box |x_i| <= 2^-s_i only (g >= |x_i|^{1/s_i} and the cutoff ends at g =
    1/2) and is 0 elsewhere.  The correctors are products of 1-d splines,
    subtracted on the sparse axes of the box they need, |x_i| <=
    _CORRECTOR_SCALE.  The stencil's wrap then meets only zeros; it runs
    once.  F = d^k P0(-.) = (-d)^k G, and by parts, with the connection
    coefficients a_m (filters.connection_filter), <-d_i G, phi_t> =
    2^bits_i sum_m a_m <G, phi_{t+m}> at axis i's sampling level: k_i exact
    filter steps on R, each axis's taken just before its first low-pass
    steps, so an x-derivative acts on the mesh that one time step halved.
    bits_i - N s_i low-pass steps per axis then give F's level-N
    coefficients on R.  Against the route fed the exact d^k P0 (d=1, orders
    6 and 9, N = 6 and 10) the arrays miss by at most 4.6e-15 (k = 1) and
    1.8e-14 (k = 2) of the sup; at s=(2,1), against the route fed
    Richardson differences, see README (Schauder kernel arrays).
    """
    sc = kernel.scaling
    bits = _sample_bits(sc, N) if bits is None else tuple(bits)
    if len(bits) != sc.d or any(b < N * si for b, si in zip(bits, sc.s)):
        raise ValueError(f"sample bits {bits} at s={sc.s}, N={N}: need d entries, each >= N s_i")
    reach = [_CUTOFF_END**si for si in sc.s]

    def window(r, bi):  # sample indices [lo, hi) of |x| <= r, point (j + center) 2^-bi
        r *= 2.0**bi
        return math.floor(-r - fam.center) - 3, math.ceil(r - fam.center) + 4

    windows = [window(max(r, _CORRECTOR_SCALE), bi) for r, bi in zip(reach, bits)]
    shape = tuple(hi - lo for lo, hi in windows)
    if math.prod(shape) > _MAX_ND_POINTS:
        raise ValueError(
            f"the kernel mesh of P0 at s={sc.s}, N={N}, bits={bits} has {math.prod(shape)} points "
            f"(at most {_MAX_ND_POINTS} supported): axis i is sampled at max(N s_i + s_i - 1, B_i) "
            f"bits, B = {_SAMPLE_BITS.get(sc.s)}, so lower N (N <= 23 at d=1, N <= 6 at s=(2, 1))"
        )
    lows = [lo for lo, _ in windows]
    axes = [-((np.arange(lo, hi) + fam.center) / 2.0**bi) for (lo, hi), bi in zip(windows, bits)]
    raw = tuple(slice(a - lo, b - lo) for (a, b), lo in zip(map(window, reach, bits), lows))
    S = np.zeros(shape)
    S[raw] = _sample_box(kernel.p0_raw, [u[b] for u, b in zip(axes, raw)])
    S = kernel._minus_correctors(S, np.meshgrid(*axes, indexing="ij", sparse=True))
    g = an._stencil(S, fam.centered_father_moments)
    del S  # not held through the cascades
    g *= 2.0 ** (-sum(bits) / 2.0)
    a = filters.connection_filter(fam.h)  # a[j] is a_m at m = j + 2 - len(h)
    # rounds of s_i steps per axis from top = min_i floor(bits_i / s_i), the
    # finest level that every axis reaches, after the bits_i - top s_i steps
    # that lead there.  The rounds depend on the bits alone, not on N, so
    # level n at N takes level n + 1's steps at N + 1 in the same order: the
    # axes' steps commute, but not in floating point
    top = min(b // si for b, si in zip(bits, sc.s))
    rounds = [[b - top * si for b, si in zip(bits, sc.s)]] + [sc.s] * (top - N + levels - 1)
    out = {}
    for k in ks:
        t0, c, out[k] = list(lows), g, []
        e = sc.total - kernel.beta + sc.scaled_degree(k) - sc.total / 2.0
        for r, counts in enumerate(rounds):
            for ax, m in enumerate(counts):
                for _ in range(k[ax] if r == 0 else 0):  # a_m 2^bits_ax, exact
                    t0[ax], c = _filter_on_line(t0[ax], c, a * 2.0 ** bits[ax], ax, 1)
                    t0[ax] += len(fam.h) - 2
                for _ in range(m):
                    t0[ax], c = _filter_on_line(t0[ax], c, fam.h, ax, 2)
            if r >= top - N:  # level r - (top - N)
                out[k].append((tuple(t0), c * 2.0 ** ((r - top + N) * e)))
    return out


def _filter_on_line(t0: int, c: np.ndarray, taps: np.ndarray, axis: int, stride: int) -> tuple:
    """One exact filter step on R along axis: c'[s] = sum_m taps[m] c[stride
    s + m] for every s the support of c reaches, with c zero off its indices
    t0 .. t0 + len(c) - 1 on that axis; one mra.filter_step on a zero-padded
    copy that it never wraps."""
    L, size = len(taps), c.shape[axis]
    s0 = (t0 - L + stride) // stride  # the first s with stride s + L - 1 >= t0
    n = (t0 + size - 1) // stride - s0 + 1
    pad = np.zeros(c.shape[:axis] + (stride * (n - 1 - (-L // stride)),) + c.shape[axis + 1 :])
    at = (slice(None),) * axis
    pad[at + (slice(t0 - stride * s0, t0 - stride * s0 + size),)] = c
    return s0, mra.filter_step(pad, taps, axis, stride)[at + (slice(n),)]


def extend_structure(
    base_structure: RegularityStructure,
    base_model: NoiseModel,
    kernel: KernelDecomposition,
    gamma: float,
    conv_levels: int | None = None,
):
    """Add the abstract integral I Xi at homogeneity alpha + beta and build
    the admissible extended model (check_extension's exponents rejected)."""
    alpha = base_model.alpha
    sc = base_structure.scaling
    check_extension(alpha, kernel.beta, gamma, sc)
    st = build_structure(gamma + kernel.beta, sc, alpha, kernel.beta)
    N = base_model.N
    model = ExtendedModel(
        st,
        base_model.fam,
        base_model.xi,
        alpha,
        kernel,
        gamma,
        conv_levels if conv_levels is not None else N,
    )
    return st, model


def check_extension(alpha: float, beta: float, gamma: float, scaling: Scaling) -> None:
    """Reject exponents that extend_structure cannot take: alpha >= 0, beta
    outside (0, |s|), gamma <= 0, or gamma, alpha + beta or gamma + beta
    within 1e-6 of an integer."""
    if gamma <= 0 or abs(gamma - round(gamma)) < 1e-6:
        raise ValueError(f"need gamma > 0 away from the integers, got {gamma:g}")
    if not alpha < 0:
        raise ValueError(f"need alpha < 0, got {alpha}")
    if not 0 < beta < scaling.total:
        raise ValueError(f"need 0 < beta < |s| = {scaling.total}, got {beta}")
    zeta_i = alpha + beta
    if abs(zeta_i - round(zeta_i)) < 1e-6:
        raise ValueError(
            f"homogeneity alpha + beta = {zeta_i:g} of the extension collides with an integer"
        )
    if abs(gamma + beta - round(gamma + beta)) < 1e-6:
        raise ValueError(f"gamma + beta = {gamma + beta:g} too close to an integer")


def embed_md(f: ModelledDistribution, target: RegularityStructure, gamma: float) -> ModelledDistribution:
    """Re-express a modelled distribution on a larger structure."""
    vals = np.zeros((*f.values.shape[:-1], target.dim))
    for i, s in enumerate(f.structure.symbols):
        vals[..., target.index(s.name)] = f.values[..., i]
    return ModelledDistribution(target, gamma, f.N, vals)


def schauder_apply(
    f: ModelledDistribution,
    ext_model: ExtendedModel,
    p,
    q,
    reconstruction: CoeffPyramid | None = None,
    with_norm: bool = True,
):
    """The order-raising operator: abstract integral plus Taylor terms plus
    the nonlocal reconstruction term, landing in order gamma + beta."""
    gamma = f.gamma
    beta = ext_model.kernel.beta
    st_out = ext_model.structure
    sc = st_out.scaling
    check_extension(ext_model.alpha, beta, gamma, sc)
    N = f.N
    # reconstruct f with the extended model (it restricts to the base symbols)
    f_ext = embed_md(f, st_out, gamma) if f.structure is not st_out else f
    if reconstruction is None:
        reconstruction, _ = reconstruct(f_ext, ext_model, p, q)
    cN_rec = mra.level_coefficients(reconstruction, ext_model.fam, N)
    vals = np.zeros((*sc.grid_shape(N), st_out.dim))
    # 1) abstract part: I(f(x))
    xi_idx_out = st_out.index("Xi")
    f_xi = f_ext.values[..., xi_idx_out]
    vals[..., st_out.index("IXi")] = f_xi
    # 2+3) polynomial parts
    for k in ext_model.deriv_ks:
        deg = sc.scaled_degree(k)
        if deg >= gamma + beta:
            continue
        kidx = st_out.index(poly_name(k))
        rec_pair = an.correlate(cN_rec, ext_model.w_arrays[k])
        germ_pair = np.zeros_like(rec_pair)
        taylor = np.zeros_like(rec_pair)
        for i, s in enumerate(st_out.symbols):
            fi = f_ext.values[..., i]
            if not np.any(fi):
                continue
            if s.name == "Xi":
                pairing = ext_model.t_tables[k]
            elif s.kind == "poly":
                pairing = _poly_deriv_pairing(ext_model.kernel, s.k, k, ext_model.conv_levels)
            else:  # IXi never occurs in the input (order gamma < zeta_I + ...)
                raise ValueError("input may not already contain the extension symbol")
            term = fi * pairing
            germ_pair = germ_pair + term
            # Taylor part: only sectors with zeta + beta > |k|_s contribute
            if deg < s.zeta + beta and s.zeta < gamma:
                taylor = taylor + term
        nonlocal_part = rec_pair - germ_pair
        vals[..., kidx] += (taylor + nonlocal_part) / multi_factorial(k)
    out = ModelledDistribution(st_out, gamma + beta, N, vals)
    report = d_norm(out, ext_model, p, q) if with_norm else None
    return out, report


def _poly_deriv_pairing(kernel: KernelDecomposition, m, k, levels) -> float:
    """<(. - x)^m, d^k P+(x - .)> = (-1)^{|m|+|k|} m!/(m-k)! mom(P+, m - k)."""
    if any(a > b for a, b in zip(k, m)):
        return 0.0
    diff = tuple(mi - ki for ki, mi in zip(k, m))
    sgn = (-1.0) ** (sum(m) + sum(k))
    fac = multi_factorial(m) / multi_factorial(diff)
    return sgn * fac * kernel.pplus_moment(diff, levels)


def convolution_identity_check(
    f: ModelledDistribution,
    ext_model: ExtendedModel,
    p,
    q,
):
    """Relative error between reconstruct(P+_gamma f) and the direct
    finest-grid convolution of reconstruct(f) with the truncated kernel."""
    sc = ext_model.scaling
    N = f.N
    f_ext = embed_md(f, ext_model.structure, f.gamma) if f.structure is not ext_model.structure else f
    reconstruction, _ = reconstruct(f_ext, ext_model, p, q)
    pf, _ = schauder_apply(f, ext_model, p, q, reconstruction=reconstruction, with_norm=False)
    lhs, _ = reconstruct(pf, ext_model, p, q)
    cN_rec = mra.level_coefficients(reconstruction, ext_model.fam, N)
    conv_vals = an.correlate(cN_rec, ext_model.w_arrays[(0,) * sc.d])
    rhs = mra.forward_transform(conv_vals, ext_model.fam, sc)
    num = lhs.plus(rhs.scaled(-1.0)).l2()
    den = rhs.l2()
    rel = num / den if den > 0 else num
    per_level = []
    for n in range(N):
        dn = float(np.sqrt(np.sum((lhs.details[n] - rhs.details[n]) ** 2)))
        per_level.append((n, dn))
    return rel, per_level
