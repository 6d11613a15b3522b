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
from itertools import product as iproduct
from numbers import Integral

import numpy as np

from . import analysis as an
from . import besov as bs
from . import mra
from .modelled import ModelledDistribution, d_norm
from .pyramid import CoeffPyramid
from .reconstruction import reconstruct
from .scaling import Scaling, wrap_displacement
from .structures import NoiseModel, RegularityStructure, build_structure, poly_name
from .util import multi_factorial


# the order-8 bump has mass 2/8: its normalised antiderivative, moved to [1/4, 1/2]
_CDF = (bs.bspline_bump(8).antiderivative() * 4.0).dilated(0.125).shifted(0.375)
_BUMP = bs.bspline_bump(10)  # corrector bump B on [-1, 1]
_BUMP_DERIVS = tuple(_BUMP.derivative(k) for k in range(10))
_CORRECTOR_SCALE = 0.5  # s in the 1-d corrector factors B(x / s) / s, support [-s, s]
_CUTOFF_END = 0.5  # S(u) = 0 for u >= 1/2, so the annular cutoff vanishes for g >= 1/2
_FD_STEP = 1e-3  # step of the central differences in p0_deriv, in p0 coordinates
_BLOCK = 2**14  # points per kernel call in _sample_box (128 KiB per temporary)


def _step(u: np.ndarray) -> np.ndarray:
    """S: 1 below 1/4, 0 above 1/2, one minus a spline CDF in between."""
    u = np.asarray(u, dtype=float)
    out = _CDF(u)
    np.subtract(1.0, out, out=out)
    out[u >= _CUTOFF_END] = 0.0
    return out


_MESH_BITS = 11  # box-mesh points per axis (log2) for the P0 moments
# largest kernel or P0 moment mesh: the kernel mesh binds at N=3 for s=(2,1)
# and at N + margin = 24 for d=1 (N=16 at margin 8), the P0 mesh at
# mesh_bits 13 for s=(2,1)
_MAX_ND_POINTS = 2**24


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
    _mom_cache: dict = field(default_factory=dict, repr=False)

    # -- evaluation --------------------------------------------------------
    def p0_raw(self, pts: np.ndarray) -> np.ndarray:
        return self.P(pts) * annular_cutoff(self.scaling, pts)

    def _corrector_1d(self, k: int, x: np.ndarray) -> np.ndarray:
        """D^k of the 1-d corrector factor B(x/s)/s (exact spline derivative)."""
        return _BUMP_DERIVS[k](x / _CORRECTOR_SCALE) / _CORRECTOR_SCALE ** (1 + k)

    def _minus_correctors(self, out: np.ndarray, k: tuple[int, ...], axes: list) -> np.ndarray:
        """out minus c * d^(kc + k) of every tensor corrector bump, in
        correction_coeffs order.  axes holds the coordinates per axis, a point
        array's columns or a sparse mesh's axes: each corrector is the product
        of its 1-d factors, each evaluated on its axis alone."""
        for kc, c in self.correction_coeffs.items():
            out = out - c * math.prod(
                self._corrector_1d(kci + ki, u) for kci, ki, u in zip(kc, k, axes)
            )
        return out

    def p0(self, pts: np.ndarray) -> np.ndarray:
        return self.p0_deriv((0,) * self.scaling.d, pts)

    def pn(self, n: int, pts: np.ndarray, corrected: bool = True) -> np.ndarray:
        scaled = pts * 2.0 ** (n * np.array(self.scaling.s, dtype=float))
        f = self.p0 if corrected else self.p0_raw
        return 2.0 ** (n * (self.scaling.total - self.beta)) * f(scaled)

    def p0_deriv(self, k: tuple[int, ...], pts: np.ndarray) -> np.ndarray:
        """d^k P0: the annular part by nested central differences of step
        _FD_STEP, the corrector part by exact spline derivatives."""
        out = _fd_partial(self.p0_raw, k, pts, _FD_STEP)
        return self._minus_correctors(out, k, [pts[..., i] for i in range(pts.shape[-1])])

    def pn_deriv(self, k: tuple[int, ...], n: int, pts: np.ndarray) -> np.ndarray:
        scaled = pts * 2.0 ** (n * np.array(self.scaling.s, dtype=float))
        expo = self.scaling.total - self.beta + self.scaling.scaled_degree(k)
        return 2.0 ** (n * expo) * self.p0_deriv(k, scaled)

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
    def p0_moment(self, m: tuple[int, ...], mesh_bits: int = _MESH_BITS) -> float:
        """Midpoint-rule moment of P0 on the 2^mesh_bits-per-axis box mesh.

        The raw mesh moment of p0_raw (shared with `decompose_kernel`, a sum
        over the support box) minus, per tensor corrector, c_k times the
        product of its 1-d midpoint sums on the whole mesh axis: the same
        midpoint rule as a mesh sum of p0, not its bits.  It is deliberately
        independent of the 1-d moment system that produced c_k, so a
        vanishing result checks that solve.  m is a tuple of d integers >= 0.
        """
        if not isinstance(m, tuple) or len(m) != self.scaling.d:
            raise ValueError(
                f"moment index must be a tuple of {self.scaling.d} integers >= 0, got {m!r}"
            )
        for i, mi in enumerate(m):
            _check_count(f"moment index entry m[{i}]", mi, 0)
        if isinstance(mesh_bits, bool) or not isinstance(mesh_bits, Integral) or mesh_bits < 1:
            raise ValueError(f"mesh_bits must be at least 1 and an integer, got {mesh_bits!r}")
        key = ("m", m, mesh_bits)
        if key not in self._mom_cache:
            raw_key = ("raw", m, mesh_bits)
            if raw_key not in self._mom_cache:  # with every corrected index, in one pass
                ms = list(dict.fromkeys([*self.correction_coeffs, m]))
                raw = _box_moments(self.p0_raw, self.scaling, ms, mesh_bits)
                self._mom_cache.update({("raw", mm, mesh_bits): v for mm, v in raw.items()})
            x, w = _box_axis(mesh_bits)
            corr = 0.0
            for k, c in self.correction_coeffs.items():
                term = c
                for ki, mi in zip(k, m):
                    term *= float(np.sum(x**mi * self._corrector_1d(ki, x)) * w)
                corr += term
            self._mom_cache[key] = self._mom_cache[raw_key] - corr
        return self._mom_cache[key]

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


def _fd_partial(f, k: tuple[int, ...], pts: np.ndarray, h: float) -> np.ndarray:
    if not any(k):
        return f(pts)
    ax = next(i for i, ki in enumerate(k) if ki)
    km = tuple(ki - (1 if i == ax else 0) for i, ki in enumerate(k))
    up = pts.copy()
    up[..., ax] += h
    dn = pts.copy()
    dn[..., ax] -= h
    return (_fd_partial(f, km, up, h) - _fd_partial(f, km, dn, h)) / (2.0 * h)


def _box_axis(mesh_bits: int) -> tuple[np.ndarray, float]:
    """Midpoints of 2^mesh_bits equal cells on [-1, 1] and the cell width."""
    n = 2**mesh_bits
    return np.linspace(-1.0, 1.0, n, endpoint=False) + 1.0 / n, 2.0 / n


def _support_box(scaling: Scaling, x: np.ndarray, w: float) -> tuple:
    """Per axis, the slice of the sorted mesh axis x with |x_i| <= 2^-s_i + w.

    Off it some |x_i|^{1/s_i} > 1/2, so the gauge g >= 1/2 and the annular
    cutoff is exactly 0 - 0 there; one cell w of slack keeps rounding out.
    """
    return tuple(
        slice(*np.searchsorted(x, [-(2.0**-si) - w, 2.0**-si + w])) for si in scaling.s
    )


def _sample_box(f, shape: tuple, coord) -> np.ndarray:
    """f on the box mesh of the given shape, _BLOCK points per call (so f's
    temporaries stay small): the point with index tuple i lies at
    coord(axis, i[axis]) on each axis, worked out per block."""
    out = np.empty(shape)
    flat = out.reshape(-1)
    for a in range(0, flat.size, _BLOCK):
        idx = np.unravel_index(np.arange(a, min(a + _BLOCK, flat.size)), shape)
        flat[a : a + _BLOCK] = f(np.stack([coord(ax, i) for ax, i in enumerate(idx)], -1))
    return out


def _box_moments(f, scaling: Scaling, ms, mesh_bits: int) -> dict:
    """Midpoint-rule moments x^m of f on the box [-1, 1]^d for every m in ms,
    from a single evaluation of f on the mesh.

    f is a multiple P * chi of the annular cutoff, so it is 0 off the support
    box (_support_box): f is sampled there only, in blocks (_sample_box), and
    each moment is numpy's sum of f x^m over the box alone.
    """
    points = (2**mesh_bits) ** scaling.d
    if points > _MAX_ND_POINTS:
        raise ValueError(
            f"the P0 moment mesh at s={scaling.s}, mesh_bits={mesh_bits} has "
            f"{points} points (at most {_MAX_ND_POINTS} supported)"
        )
    x, w = _box_axis(mesh_bits)
    sub = [x[b] for b in _support_box(scaling, x, w)]
    vals = _sample_box(f, tuple(u.size for u in sub), lambda ax, i: sub[ax][i])
    axes = np.meshgrid(*sub, indexing="ij", sparse=True)
    out = {}
    for m in ms:
        mono = 1.0
        for i, mi in enumerate(m):
            if mi:
                mono = mono * axes[i] ** mi
        out[m] = float(np.sum(vals * mono) * w**scaling.d)
    return out


def self_similarity_defect(P, scaling: Scaling, beta: float) -> float:
    """Relative defect of P(2^s x) = 2^{-(|s|-beta)} P(x) on the annulus
    samples among 512 seeded uniform points of [-1, 1]^d."""
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (512, scaling.d))
    g = s_gauge(scaling, pts)
    keep = (g > 0.1) & (g < 0.9)
    pts = pts[keep]
    scaled = pts * 2.0 ** np.array(scaling.s, dtype=float)
    a = P(scaled)
    b = 2.0 ** (-(scaling.total - beta)) * P(pts)
    denom = np.maximum(np.abs(b), 1e-30)
    return float(np.max(np.abs(a - b) / denom))


def decompose_kernel(
    kind: str,
    scaling: Scaling,
    r: int,
    beta: float | None = None,
    custom=None,
) -> KernelDecomposition:
    """Build the dyadic decomposition of a self-similar kernel and correct the
    base-piece moments up to scaled degree r.  A custom kernel must be
    self-similar to a relative defect of 1e-9."""
    _check_count("r", r, 0)
    if kind == "heat":
        P, beta = heat_kernel(scaling)
    elif kind == "riesz":
        if beta is None:
            raise ValueError("riesz kernel needs beta")
        P, beta = riesz_kernel(scaling, beta)
    elif kind == "custom":
        if custom is None or beta is None:
            raise ValueError("custom kernels need a callable and beta")
        defect = self_similarity_defect(custom, scaling, beta)
        if defect > 1e-9:
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
    raw = _box_moments(K.p0_raw, scaling, ks, _MESH_BITS)
    K._mom_cache.update({("raw", m, _MESH_BITS): v for m, v in raw.items()})
    mx = max(max(k) for k in ks) if ks else 0
    mom1d = [an.kernel_moment_1d(_BUMP, j) for j in range(mx + 1)]
    A = np.zeros((len(ks), len(ks)))
    rhs = np.zeros(len(ks))
    for im, m in enumerate(ks):
        rhs[im] = raw[m]
        for ik, k in enumerate(ks):
            if all(a <= b_ for a, b_ in zip(k, m)):
                val = 1.0
                for i in range(scaling.d):
                    j = m[i] - k[i]
                    # int u^{m_i} D^{k_i}B(u/s)/s^{1+k_i} du = (-1)^{k_i} m_i!/(m_i-k_i)! s^{j} mom1d[j]
                    val *= (
                        (-1.0) ** k[i]
                        * math.factorial(m[i])
                        / math.factorial(j)
                        * _CORRECTOR_SCALE**j
                        * mom1d[j]
                    )
                A[im, ik] = val
    coeffs = np.linalg.solve(A, rhs)
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
        self.taylor_ks = [
            tuple(k)
            for k in sc.multi_indices_below(self.zeta_i)
        ]
        self.deriv_ks = [
            tuple(k) for k in sc.multi_indices_below(gamma_max + kernel.beta)
        ]
        cN = self.xi_levels[N]
        self.w_arrays: dict = {}
        for k in self.deriv_ks:
            self.w_arrays[k] = _deriv_kernel_array(kernel, k, fam, sc, N, conv_levels)
        # t_l(x) = <xi, d^l P+(x - .)> on the fine grid, exact for xi in V_N
        self.t_tables = {
            k: an.correlate(cN, self.w_arrays[k]) for k in self.deriv_ks
        }
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
        sc = self.scaling
        # one displacement per leading index, broadcast over the target points
        B = np.shape(delta)[:-1]
        delta = np.reshape(delta, (*B, *(1,) * (ix.ndim - len(B)), sc.d)).astype(float)
        cells = delta * 2.0 ** (self.N * np.array(sc.s))
        steps = np.rint(cells).astype(int)
        if np.any(np.abs(cells - steps) > 1e-9):
            raise ValueError("transport displacement off the fine grid")
        y_index = tuple(
            (x_index[i] + steps[..., i]) % (2 ** (self.N * sc.s[i])) for i in range(sc.d)
        )
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
    k: tuple[int, ...],
    fam: mra.WaveletFamily,
    scaling: Scaling,
    N: int,
    levels: int,
    margin: int = 8,
) -> np.ndarray:
    """V_N coefficients of u -> d^k P+_{<levels}(-u) (summed over levels).

    The pieces are exactly self-similar, d^k P_n(-u) = 2^{ne} F(2^{ns} u)
    with F = d^k P0(-.) and e = |s| - beta + |k|_s; the difference step of
    p0_deriv is taken in p0 coordinates, so this holds for it too.  Hence
    <d^k P_n(-.), phi^N_t> = 2^{n(e - |s|/2)} <F, phi^{N-n}_t> on R^d: n s_i
    exact low-pass steps along each axis i from F's level-N coefficients
    (_self_similar_pieces), each level added to the torus periodically.
    F is sampled in two parts, bit for bit p0_deriv's values: the raw part
    on its own support box, the separable correctors on the wider box that
    their scale needs.
    """
    out = np.zeros(scaling.grid_shape(N))
    for t0, c in _self_similar_pieces(kernel, k, fam, N, levels, margin):
        np.add.at(out, np.ix_(*[(a + np.arange(m)) % M for a, m, M in zip(t0, c.shape, out.shape)]), c)
    return out


def _self_similar_pieces(
    kernel: KernelDecomposition,
    k: tuple[int, ...],
    fam: mra.WaveletFamily,
    N: int,
    levels: int,
    margin: int,
) -> list:
    """Per level n < levels, (t0, c) with c[i] = <d^k P_n(-.), phi^N_{t0+i}> on
    R^d, t0 and i per axis (see _deriv_kernel_array).

    F = d^k P0(-.) is sampled once on R, at level N s_i + m_i on axis i with
    m_i = margin + s_i - 1, on two boxes, each with 3 samples of stencil pad.
    The raw part, the differences of p0_raw, is sampled on its support box
    |x_i| <= 2^-s_i + k_i h only (g >= |x_i|^{1/s_i}, the cutoff ends at
    g = 1/2 and each difference of step h = _FD_STEP widens that) and is 0
    elsewhere.  The correctors are products of 1-d splines, subtracted on the
    sparse axes of the box they need, |x_i| <= max(2^-s_i + k_i h,
    _CORRECTOR_SCALE).  The stencil's wrap then meets only zeros, and m_i
    exact low-pass steps per axis give F's level-N coefficients on R.
    """
    sc = kernel.scaling
    steps = [margin + si - 1 for si in sc.s]
    bits = [N * si + m for si, m in zip(sc.s, steps)]
    reach = [_CUTOFF_END**si + ki * _FD_STEP for si, ki in zip(sc.s, k)]

    def window(r, bi):  # sample indices [lo, hi) of |x| <= r, point (j + center) 2^-bi
        r *= 2.0**bi
        return math.floor(-r - fam.center) - 3, math.ceil(r - fam.center) + 4

    windows = [window(max(r, _CORRECTOR_SCALE), bi) for r, bi in zip(reach, bits)]
    shape = tuple(hi - lo for lo, hi in windows)
    points = math.prod(shape)
    if points > _MAX_ND_POINTS:
        raise ValueError(
            f"the kernel mesh of d^{k} P0 at s={sc.s}, N={N}, margin={margin} has "
            f"{points} points (at most {_MAX_ND_POINTS} supported): axis i is sampled "
            f"at level N s_i + margin + s_i - 1 = {tuple(bits)}, so lower N or margin "
            "(at d=1, N + margin <= 23)"
        )
    t0 = [lo for lo, _ in windows]
    axes = [-((np.arange(lo, hi) + fam.center) / 2.0**bi) for (lo, hi), bi in zip(windows, bits)]
    raw = tuple(slice(a - lo, b - lo) for (a, b), lo in zip(map(window, reach, bits), t0))
    sub = [u[b] for u, b in zip(axes, raw)]
    S = np.zeros(shape)
    S[raw] = _sample_box(
        lambda p: _fd_partial(kernel.p0_raw, k, p, _FD_STEP),
        tuple(u.size for u in sub),
        lambda ax, i: sub[ax][i],
    )
    S = kernel._minus_correctors(S, k, np.meshgrid(*axes, indexing="ij", sparse=True))
    c = an._stencil(S, fam.centered_father_moments)
    del S  # not held through the cascade
    c *= 2.0 ** (-sum(bits) / 2.0)
    e = sc.total - kernel.beta + sc.scaled_degree(k) - sc.total / 2.0
    out = []
    # level 0 is m_i steps below the samples, each further level s_i steps
    for n, counts in enumerate([steps] + [sc.s] * (levels - 1)):
        for ax, m in enumerate(counts):
            for _ in range(m):
                t0[ax], c = _low_pass_on_line(t0[ax], c, fam.h, ax)
        out.append((tuple(t0), c * 2.0 ** (n * e)))
    return out


def _low_pass_on_line(
    t0: int, c: np.ndarray, h: np.ndarray, axis: int = 0
) -> tuple[int, np.ndarray]:
    """One exact low-pass step on R along axis: c'[s] = sum_m h[m] c[2s + m]
    for every s the support of c reaches, with c zero off its indices t0 ..
    t0 + len(c) - 1 on that axis; one mra.filter_step on a zero-padded copy
    that it never wraps."""
    L, size = len(h), c.shape[axis]
    s0 = (t0 - L + 2) // 2  # the first s with 2s + L - 1 >= t0
    n = (t0 + size - 1) // 2 - s0 + 1
    pad = np.zeros(c.shape[:axis] + (2 * n + L - 2,) + c.shape[axis + 1 :])
    at = (slice(None),) * axis
    pad[at + (slice(t0 - 2 * s0, t0 - 2 * s0 + size),)] = c
    return s0, mra.filter_step(pad, h, axis, 2)[at + (slice(n),)]


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


def integration_matrix(structure: RegularityStructure) -> np.ndarray:
    """The abstract integration map: Xi -> IXi, polynomials -> 0."""
    M = np.zeros((structure.dim, structure.dim))
    if "Xi" in structure._by_name and "IXi" in structure._by_name:
        M[structure.index("IXi"), structure.index("Xi")] = 1.0
    return M


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
