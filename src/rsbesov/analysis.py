"""Pairing engine: wavelet coefficients of smooth kernels, and pairing tables.

Every distribution in this library lives in V_N, so any pairing <xi, G>
equals the dot product of V_N coefficient arrays.  Kernels G are analyzed
once into V_N coefficients by a moment-corrected one-point quadrature at a
fine dyadic level followed by exact filter cascades; tables over shifted
kernels <xi, G(. - x)> are circular FFT cross-correlations of the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mra import WaveletFamily, filter_step
from .scaling import Scaling


@dataclass
class Fn1D:
    """A 1-d factor: callable plus compact support (None = already periodic)."""

    f: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.f(np.asarray(x, dtype=float))


def periodic_samples(fn: Fn1D, y: np.ndarray) -> np.ndarray:
    """Samples of the 1-periodization of fn at points y in [0, 1)."""
    if fn.support is None:
        return fn(y)
    lo, hi = fn.support
    acc = np.zeros_like(y)
    for m in range(int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1):
        u = y + m
        mask = (u >= lo) & (u <= hi)
        if np.any(mask):
            acc[mask] += fn(u[mask])
    return acc


def corrected_coeffs(
    S: np.ndarray,
    fam: WaveletFamily,
    fine_bits: int,
    steps: tuple[int, ...],
    taylor: int,
) -> np.ndarray:
    """Father coefficients from fine samples S of a smooth periodic function.

    One-point quadrature with centered-moment Taylor corrections on each
    axis, realised as periodic central differences (mu_2 for taylor >= 2,
    mu_3 for taylor >= 3), scaled to the L^2 normalisation of a sample grid
    of 2^fine_bits points in all, then steps[ax] exact low-pass cascade
    steps along each axis.  S may be a window of that grid: the differences
    and the cascade then wrap within the window.
    """
    c = S
    mu = fam.centered_father_moments
    for ax in range(S.ndim):
        if taylor >= 2:
            c = c + (mu[2] / 2.0) * (
                np.roll(S, -1, axis=ax) - 2.0 * S + np.roll(S, 1, axis=ax)
            )
        if taylor >= 3:
            c = c + (mu[3] / 6.0) * 0.5 * (
                np.roll(S, -2, axis=ax)
                - 2.0 * np.roll(S, -1, axis=ax)
                + 2.0 * np.roll(S, 1, axis=ax)
                - np.roll(S, 2, axis=ax)
            )
    c = c * 2.0 ** (-fine_bits / 2.0)
    for ax, k in enumerate(steps):
        for _ in range(k):
            c = filter_step(c, fam.h, ax, 2)
    return c


def sample_window(
    support: tuple[float, float] | None, fam: WaveletFamily, level_1d: int, margin: int
) -> tuple[int, int]:
    """Fine-grid index range [start, stop) that smooth_coeffs_1d samples.

    It covers the support, two samples of Taylor stencil on each side (one
    more for rounding) and (len(h) - 1)(2^margin - 1) samples of filter
    spread before it, rounded out to whole coarse cells of 2^margin samples.
    A window that would cover the torus is the whole torus [0, 2^(level_1d
    + margin)).
    """
    M, cell = 2 ** (level_1d + margin), 2**margin
    if support is None:
        return 0, M
    lo, hi = support
    spread = (len(fam.h) - 1) * (cell - 1)
    first = math.floor(lo * M - fam.center) - 3 - spread
    last = math.ceil(hi * M - fam.center) + 3
    start, stop = first // cell * cell, -(-(last + 1) // cell) * cell
    return (0, M) if stop - start >= M else (start, stop)


def smooth_coeffs_1d(
    fn: Fn1D,
    fam: WaveletFamily,
    level_1d: int,
    margin: int = 8,
    taylor: int = 3,
) -> np.ndarray:
    """<G_per, phi^J_t> for all t at the 1-d level, G smooth at coarser scales:
    corrected quadrature of the periodic samples at level_1d + margin.

    Only the sample_window of the fine grid is sampled and cascaded.  Every
    sample outside it is an exact zero, so the window, taken as a torus,
    gives the same coefficients, which are then placed periodically.
    """
    M = 2 ** (level_1d + margin)
    start, stop = sample_window(fn.support, fam, level_1d, margin)
    y = (np.arange(start, stop) % M + fam.center) / M % 1.0
    c = corrected_coeffs(
        periodic_samples(fn, y), fam, level_1d + margin, (margin,), taylor
    )
    out = np.zeros(2**level_1d)
    out[(start // 2**margin + np.arange(len(c))) % len(out)] = c
    return out


@dataclass
class SeparableKernel:
    """sum of tensor-product terms: K(u) = sum_t coef_t * prod_i f_{t,i}(u_i)."""

    terms: list[tuple[float, list[Fn1D]]]

    def scaled(self, c: float) -> "SeparableKernel":
        return SeparableKernel([(c * a, fs) for a, fs in self.terms])


def analyze_kernel(
    kern: SeparableKernel,
    fam: WaveletFamily,
    scaling: Scaling,
    N: int,
    margin: int = 8,
    taylor: int = 3,
) -> np.ndarray:
    """V_N coefficient array of (the periodization of) a separable kernel."""
    out = np.zeros(scaling.grid_shape(N))
    for coef, factors in kern.terms:
        if len(factors) != scaling.d:
            raise ValueError("kernel term arity does not match the dimension")
        arrs = [
            smooth_coeffs_1d(fn, fam, N * si, margin=margin, taylor=taylor)
            for fn, si in zip(factors, scaling.s)
        ]
        term = arrs[0]
        for a in arrs[1:]:
            term = np.multiply.outer(term, a)
        out += coef * term
    return out


def correlate(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """T[x] = sum_y c[y] * k[y - x] (circular), via FFT."""
    C = np.fft.fftn(c)
    K = np.fft.fftn(k)
    return np.real(np.fft.ifftn(C * np.conj(K)))


def subsample(arr: np.ndarray, scaling: Scaling, from_level: int, to_level: int):
    """Restrict a Lambda_{from} array to Lambda_{to} (to_level <= from_level)."""
    sl = tuple(
        slice(None, None, 2 ** ((from_level - to_level) * si)) for si in scaling.s
    )
    return arr[sl]


def kernel_moment_1d(fn: Fn1D, a: int, mesh_bits: int = 14) -> float:
    """int u^a fn(u) du by fine Riemann sums over the support."""
    if fn.support is None:
        raise ValueError("moment of a non-compact factor")
    lo, hi = fn.support
    m = 2**mesh_bits
    h = (hi - lo) / m
    u = lo + (np.arange(m) + 0.5) * h
    return float(np.sum(u**a * fn(u)) * h)
