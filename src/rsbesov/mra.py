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
    mother_moments: np.ndarray
    center: float
    centered_father_moments: np.ndarray
    regularity: float
    _component_moments: dict = field(default_factory=dict, repr=False)

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

    def component_moment(self, code: int, a: int) -> float:
        """Exact moment int v^a F_code(v) dv of a per-dimension factor.

        Code 0 is the father; code 2^j + t is v -> 2^(j/2) psi(2^j v - t).
        """
        key = (code, a)
        if key in self._component_moments:
            return self._component_moments[key]
        if code == 0:
            val = float(self.father_moments[a])
        else:
            j = code.bit_length() - 1
            t = code - (1 << j)
            acc = 0.0
            for b in range(a + 1):
                acc += (
                    filters.binom(a, b)
                    * t ** (a - b)
                    * float(self.mother_moments[b])
                )
            # int v^a 2^{j/2} psi(2^j v - t) dv = 2^{-j(a+1)+j/2} sum binom t^{a-b} N_b
            val = 2.0 ** (-j * (a + 1) + j * 0.5) * acc
        self._component_moments[key] = val
        return val

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
    mm = filters.mother_moments(h, jmax)
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
        mother_moments=mm,
        center=center,
        centered_father_moments=cfm,
        regularity=filters.hoelder_regularity(order),
    )


def auto_wavelet(r: int, cascade_depth: int = 12) -> WaveletFamily:
    """Family at the smallest admissible order for regularity budget r."""
    return build_wavelet(filters.min_order_for(r), r, cascade_depth)


def psi_codes(scaling: Scaling) -> list[tuple[int, ...]]:
    """Per-dimension code tuples for the 2^|s| - 1 mothers, in index order."""
    codes = list(product(*[range(2**si) for si in scaling.s]))
    codes.remove((0,) * scaling.d)
    return codes


# ---------------------------------------------------------------------------
# periodic filter-bank steps


def _analysis_axis(c: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """out[k] = sum_m f[m] c[(2k + m) mod L] along the given axis."""
    L = c.shape[axis]
    if L % 2:
        raise ValueError("axis length must be even")
    idx = (2 * np.arange(L // 2)[:, None] + np.arange(len(f))[None, :]) % L
    moved = np.moveaxis(c, axis, -1)
    out = moved[..., idx] @ f
    return np.moveaxis(out, -1, axis)


def _upsample_conv_axis(c: np.ndarray, f: np.ndarray, axis: int) -> np.ndarray:
    """out[j] = sum_k f[j - 2k mod L] c[k]: zero-upsample then periodic convolve."""
    L = 2 * c.shape[axis]
    moved = np.moveaxis(c, axis, -1)
    up = np.zeros((*moved.shape[:-1], L))
    up[..., ::2] = moved
    idx = (np.arange(L)[:, None] - np.arange(len(f))[None, :]) % L
    out = up[..., idx] @ f
    return np.moveaxis(out, -1, axis)


def _synthesis_axis(low, high, h, g, axis):
    return _upsample_conv_axis(low, h, axis) + _upsample_conv_axis(high, g, axis)


def decompose_level(c: np.ndarray, fam: WaveletFamily, scaling: Scaling):
    """One library-level analysis step: V_{n+1} coefficients -> (V_n, details)."""
    pieces = {(): c}
    for ax, s_ax in enumerate(scaling.s):
        nxt = {}
        for key, arr in pieces.items():
            cur = arr
            his = []
            for j in range(s_ax - 1, -1, -1):
                hi = _analysis_axis(cur, fam.g, ax)
                cur = _analysis_axis(cur, fam.h, ax)
                his.append((j, hi))
            nxt[key + (0,)] = cur
            for j, hi in his:
                moved = np.moveaxis(hi, ax, -1)
                for t in range(2**j):
                    seg = moved[..., t :: 2**j]
                    nxt[key + ((1 << j) + t,)] = np.moveaxis(seg, -1, ax)
        pieces = nxt
    d = scaling.d
    newc = pieces[(0,) * d]
    details = np.stack([pieces[code] for code in psi_codes(scaling)])
    return newc, details


def reassemble_level(
    newc: np.ndarray, details: np.ndarray, fam: WaveletFamily, scaling: Scaling
) -> np.ndarray:
    """Inverse of decompose_level."""
    pieces = {(0,) * scaling.d: newc}
    for i, code in enumerate(psi_codes(scaling)):
        pieces[code] = details[i]
    d = scaling.d
    for ax in range(d - 1, -1, -1):
        s_ax = scaling.s[ax]
        grouped: dict[tuple, dict[int, np.ndarray]] = {}
        for key, arr in pieces.items():
            grouped.setdefault(key[:ax], {})[key[ax]] = arr
        nxt = {}
        for prefix, by_code in grouped.items():
            cur = by_code[0]
            for j in range(s_ax):
                size = cur.shape[ax]
                moved_shape = None
                w = None
                for t in range(2**j):
                    seg = np.moveaxis(by_code[(1 << j) + t], ax, -1)
                    if w is None:
                        moved_shape = (*seg.shape[:-1], seg.shape[-1] * 2**j)
                        w = np.zeros(moved_shape)
                    w[..., t :: 2**j] = seg
                w = np.moveaxis(w, -1, ax)
                cur = _synthesis_axis(cur, w, fam.h, fam.g, ax)
            nxt[prefix] = cur
        pieces = nxt
    return pieces[()]


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
    f(y) = sum_t c_t phi^N_t(y) reduces on the grid to a periodic filter by
    the integer samples of the father function.
    """
    sc = pyr.scaling
    c = level_coefficients(pyr, fam, pyr.N)
    L = fam.support_len
    phi_int = fam.father_at(np.arange(L + 1, dtype=float))
    out = c
    for ax, si in enumerate(sc.s):
        M = out.shape[ax]
        kern = np.zeros(M)
        for m in range(L + 1):
            kern[m % M] += phi_int[m]
        K = np.fft.fft(kern)
        moved = np.moveaxis(out, ax, -1)
        moved = np.real(np.fft.ifft(np.fft.fft(moved, axis=-1) * K, axis=-1))
        out = np.moveaxis(moved, -1, ax)
    return out * 2.0 ** (pyr.N * sc.total / 2.0)


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
