"""Anisotropic multiresolution analysis on the periodic torus.

One library level corresponds to s_i binary refinements in dimension i, so
V_n is the tensor product of the 1-d spaces at per-dimension levels n*s_i.
The 2^|s| - 1 mother shapes per level are indexed by per-dimension codes
c_i in {0, .., 2^s_i - 1}: code 0 is the father factor and code 2^j + t is
the sub-level-j mother factor at offset t.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import filters
from .pyramid import CoeffPyramid
from .scaling import Scaling


@dataclass
class WaveletFamily:
    order: int
    r: int
    h: np.ndarray
    g: np.ndarray
    cascade_depth: int
    father_samples: np.ndarray
    mother_samples: np.ndarray
    father_moments: np.ndarray
    center: float
    centered_father_moments: np.ndarray
    regularity: float
    _cell_moments: dict = field(default_factory=dict, repr=False)

    @property
    def support_len(self) -> int:
        return len(self.h) - 1

    def father_at(self, u: np.ndarray) -> np.ndarray:
        return self._lookup(self.father_samples, u)

    def mother_at(self, u: np.ndarray) -> np.ndarray:
        return self._lookup(self.mother_samples, u)

    def _lookup(self, table: np.ndarray, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        idx = u * 2**self.cascade_depth
        ridx = np.rint(idx)
        if np.max(np.abs(idx - ridx), initial=0.0) > 1e-9:
            raise ValueError("query mesh is finer than the cascade resolution")
        ridx = ridx.astype(np.int64)
        out = np.zeros(u.shape)
        ok = (ridx >= 0) & (ridx < len(table))
        out[ok] = table[ridx[ok]]
        return out

    def cell_moments(self, q: int, degree: int) -> np.ndarray:
        """filters.cell_moments of the father for l <= degree, read-only.

        Built once per q (again, longer, if a higher degree is asked for: the
        rows already given do not change).  The build is checked against the
        exact moments: sum_k C_0 = 1 and sum_k (C_1 + k C_0) / q = M_1.
        """
        table = self._cell_moments.get(q)
        if table is None or len(table) <= degree:
            table = filters.cell_moments(self.h, q, max(degree, 1))
            k = np.arange(table.shape[1])
            if abs(table[0].sum() - 1.0) > 1e-12 or abs(
                (table[1] + k * table[0]).sum() / q - self.father_moments[1]
            ) > 1e-12:
                raise ValueError(
                    f"cell moments of the order-{self.order} father at q={q} "
                    "do not match its exact moments"
                )
            table.flags.writeable = False
            self._cell_moments[q] = table
        return table[: degree + 1]

    def component_values(self, code: int, u: np.ndarray) -> np.ndarray:
        """Point values of a per-dimension factor at dyadic arguments."""
        if code == 0:
            return self.father_at(u)
        j = code.bit_length() - 1
        t = code - (1 << j)
        return 2.0 ** (j / 2.0) * self.mother_at(2.0**j * np.asarray(u) - t)


def build_wavelet(order: int, r: int, cascade_depth: int = 12) -> WaveletFamily:
    """Orthonormal compactly supported family of the given order.

    The order must provide Hoelder regularity >= r and annihilate all
    polynomials of degree <= r (i.e. carry more than r vanishing moments).
    """
    needed = filters.min_order_for(r)
    if order < needed:
        raise ValueError(
            f"order {order} too small for r={r}; minimal admissible order is {needed}"
        )
    h = filters.daubechies_filter(order)
    g = filters.mother_filter(h)
    jmax = max(16, 2 * r + 8)
    fm = filters.scaling_moments(h, jmax)
    center, cfm = filters.centered_scaling_moments(h, jmax)
    phi = filters.cascade_father(h, cascade_depth)
    return WaveletFamily(
        order=order,
        r=r,
        h=h,
        g=g,
        cascade_depth=cascade_depth,
        father_samples=phi,
        mother_samples=filters.cascade_mother(h, phi),
        father_moments=fm,
        center=center,
        centered_father_moments=cfm,
        regularity=filters.hoelder_regularity(order),
    )


def psi_codes(scaling: Scaling) -> list[tuple[int, ...]]:
    """Per-dimension code tuples for the 2^|s| - 1 mothers, in index order."""
    codes = list(product(*[range(2**si) for si in scaling.s]))
    codes.remove((0,) * scaling.d)
    return codes


# ---------------------------------------------------------------------------
# periodic filter bank


def filter_step(
    c: np.ndarray, taps: np.ndarray, axis: int, stride: int = 1, start: int = 0
) -> np.ndarray:
    """out[k] = sum_m taps[m] c[(stride k + start + m) mod L] along one axis.

    The strided windows of the wrap-indexed axis are contracted with the
    taps in place (einsum, no window copy); k runs over L / stride outputs.
    einsum's rounding depends on the taps' memory layout, so they are made
    contiguous first: a view and a copy of the same taps give the same bits.
    """
    L = c.shape[axis]
    if L % stride:
        raise ValueError("axis length must be a multiple of the stride")
    idx = np.arange(start, start + L - stride + len(taps))
    windows = sliding_window_view(np.take(c, idx, axis, mode="wrap"), len(taps), axis)
    windows = windows[(slice(None),) * axis + (slice(None, None, stride),)]
    return np.einsum("...k,k->...", windows, np.ascontiguousarray(taps))


def _interleave(parts, axis: int) -> np.ndarray:
    """out[.., n k + t, ..] = parts[t][.., k, ..] along axis, n = len(parts)."""
    out = np.stack(parts, axis=axis + 1)
    return out.reshape(*out.shape[:axis], -1, *out.shape[axis + 2 :])


def decompose_level(c: np.ndarray, fam: WaveletFamily, scaling: Scaling):
    """One library-level analysis step: V_{n+1} coefficients -> (V_n, details).

    The work array carries a leading axis of codes.  The axes are split
    last to first, each one prepending its 2^s_i codes, so the leading axis
    ends in psi_codes order with code 0 first.
    """
    x = c[None]
    for ax in reversed(range(scaling.d)):
        blocks = []
        for j in reversed(range(scaling.s[ax])):
            # code 2^j + t holds hi[2^j k + t]: split the axis into (k, t)
            hi = filter_step(x, fam.g, ax + 1, 2)
            hi = hi.reshape(*hi.shape[: ax + 1], -1, 2**j, *hi.shape[ax + 2 :])
            blocks.insert(0, np.moveaxis(hi, ax + 2, 0))
            x = filter_step(x, fam.h, ax + 1, 2)
        x = np.concatenate([x[None], *blocks]).reshape(-1, *x.shape[1:])
    return x[0], x[1:]


def reassemble_level(
    newc: np.ndarray, details: np.ndarray, fam: WaveletFamily, scaling: Scaling
) -> np.ndarray:
    """Inverse of decompose_level: the axes are merged first to last.

    Synthesis is polyphase: output parity p at 2i + p sums the interleaved
    (low, high) window ending at 2i + 1 against the reversed parity-p taps
    of (h, g), so no zero-upsampled array is built.
    """
    hg = np.stack([fam.h, fam.g], axis=1)
    taps = [hg[p::2][::-1].ravel() for p in (0, 1)]
    x = np.concatenate([newc[None], details])
    for ax, s_ax in enumerate(scaling.s):
        codes = x.reshape(2**s_ax, -1, *x.shape[1:])
        x = codes[0]
        for j in range(s_ax):
            z = _interleave([x, _interleave(codes[2**j : 2 ** (j + 1)], ax + 1)], ax + 1)
            x = _interleave([filter_step(z, t, ax + 1, 2, 2 - len(t)) for t in taps], ax + 1)
    return x[0]


# ---------------------------------------------------------------------------
# transforms


def _infer_level(shape: tuple[int, ...], scaling: Scaling) -> int:
    Ns = []
    for size, si in zip(shape, scaling.s):
        if size < 1 or size & (size - 1):
            raise ValueError("per-dimension sample counts must be powers of two")
        b = size.bit_length() - 1
        if b % si:
            raise ValueError("sample counts incompatible with the scaling")
        Ns.append(b // si)
    if len(set(Ns)) != 1:
        raise ValueError("sample counts correspond to different levels per dimension")
    return Ns[0]


def forward_transform(
    samples: np.ndarray, fam: WaveletFamily, scaling: Scaling
) -> CoeffPyramid:
    """Samples at level N -> exact pyramid of V_0 + detail coefficients."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != scaling.d:
        raise ValueError("sample array dimension does not match the scaling")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    N = _infer_level(samples.shape, scaling)
    return analyze_v_coefficients(
        samples * 2.0 ** (-N * scaling.total / 2.0), fam, scaling, N
    )


def inverse_transform(pyr: CoeffPyramid, fam: WaveletFamily) -> np.ndarray:
    """Exact left inverse of forward_transform."""
    return level_coefficients(pyr, fam, pyr.N) * 2.0 ** (pyr.N * pyr.scaling.total / 2.0)


def level_coefficients(pyr: CoeffPyramid, fam: WaveletFamily, n: int) -> np.ndarray:
    """V_n coefficients <xi, phi^n_x> by synthesis up to level n (details above dropped)."""
    if not (0 <= n <= pyr.N):
        raise ValueError("level out of range")
    c = pyr.base
    for m in range(n):
        c = reassemble_level(c, pyr.details[m], fam, pyr.scaling)
    return c


def all_level_coefficients(pyr: CoeffPyramid, fam: WaveletFamily) -> list[np.ndarray]:
    out = [pyr.base]
    for m in range(pyr.N):
        out.append(reassemble_level(out[-1], pyr.details[m], fam, pyr.scaling))
    return out


def analyze_v_coefficients(
    c: np.ndarray, fam: WaveletFamily, scaling: Scaling, N: int
) -> CoeffPyramid:
    """Pyramid of the V_N element with father coefficients c."""
    details: list[np.ndarray] = [None] * N
    for n in range(N - 1, -1, -1):
        c, det = decompose_level(c, fam, scaling)
        details[n] = det
    return CoeffPyramid(scaling, N, c, details)


def point_values(pyr: CoeffPyramid, fam: WaveletFamily) -> np.ndarray:
    """Exact point values of the V_N element on Lambda_N.

    Distinct from inverse_transform (which returns the coefficient samples):
    f(y) = sum_t c_t phi^N_t(y) reduces on the grid to a stride-1 periodic
    filter step per axis by the integer samples of the father function.
    """
    sc = pyr.scaling
    c = level_coefficients(pyr, fam, pyr.N)
    L = fam.support_len
    taps = fam.father_at(np.arange(L + 1, dtype=float))[::-1]
    for ax in range(sc.d):
        c = filter_step(c, taps, ax, 1, -L)
    return c * 2.0 ** (pyr.N * sc.total / 2.0)


def project(pyr: CoeffPyramid, n: int, which: str) -> CoeffPyramid:
    """Orthogonal projection onto V_n ("V") or its complement in V_{n+1} ("Vperp")."""
    if not (0 <= n < pyr.N):
        raise ValueError("projection level out of range")
    out = CoeffPyramid.zeros(pyr.scaling, pyr.N)
    if which == "V":
        out.base = pyr.base.copy()
        for m in range(n):
            out.details[m] = pyr.details[m].copy()
    elif which == "Vperp":
        out.details[n] = pyr.details[n].copy()
    else:
        raise ValueError("which must be 'V' or 'Vperp'")
    return out


def eval_basis(
    fam: WaveletFamily,
    scaling: Scaling,
    kind: str,
    n: int,
    x: np.ndarray,
    query: list[np.ndarray],
    psi_code: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Periodized tensor values of phi^n_x or psi^n_x on a query mesh.

    `query` holds one coordinate array per dimension; the result has the
    outer-product shape.  Mother shapes are selected by their code tuple.
    """
    if kind == "father":
        codes = (0,) * scaling.d
    elif kind == "mother":
        if psi_code is None:
            raise ValueError("mother evaluation needs a psi code")
        codes = tuple(psi_code)
    else:
        raise ValueError("kind must be 'father' or 'mother'")
    x = np.asarray(x, dtype=float)
    vals = []
    for i, (si, code) in enumerate(zip(scaling.s, codes)):
        qi = np.asarray(query[i], dtype=float)
        u = qi - x[i]
        scale = 2 ** (n * si)
        lo, hi = _component_support(fam, code)
        acc = np.zeros_like(u)
        m_lo = int(np.floor(lo / scale - np.max(u))) - 1
        m_hi = int(np.ceil(hi / scale - np.min(u))) + 1
        for m in range(m_lo, m_hi + 1):
            acc += fam.component_values(code, scale * (u + m))
        vals.append(2.0 ** (n * si / 2.0) * acc)
    out = vals[0]
    for v in vals[1:]:
        out = np.multiply.outer(out, v)
    return out


def _component_support(fam: WaveletFamily, code: int) -> tuple[float, float]:
    Ls = fam.support_len
    if code == 0:
        return 0.0, float(Ls)
    j = code.bit_length() - 1
    t = code - (1 << j)
    return t / 2.0**j, (t + Ls) / 2.0**j
