"""Pairing engine: wavelet coefficients of smooth kernels, and pairing tables.

Every distribution in this library lives in V_N, so any pairing <xi, G>
equals the dot product of V_N coefficient arrays.  Kernels G are analyzed
once into V_N coefficients by a moment-corrected one-point quadrature at a
fine dyadic level followed by exact filter cascades; tables over shifted
kernels <xi, G(. - x)> are circular FFT cross-correlations of the arrays.
"""

from __future__ import annotations

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
    S: np.ndarray, fam: WaveletFamily, steps: tuple[int, ...], taylor: int
) -> np.ndarray:
    """Father coefficients from fine samples S of a smooth periodic function.

    One-point quadrature with centered-moment Taylor corrections on each
    axis, realised as periodic central differences (mu_2 for taylor >= 2,
    mu_3 for taylor >= 3), scaled to the L^2 normalisation of the sample
    grid, then steps[ax] exact low-pass cascade steps along each axis.
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
    c = c * 2.0 ** (-sum(m.bit_length() - 1 for m in S.shape) / 2.0)
    for ax, k in enumerate(steps):
        for _ in range(k):
            c = filter_step(c, fam.h, ax, 2)
    return c


def smooth_coeffs_1d(
    fn: Fn1D,
    fam: WaveletFamily,
    level_1d: int,
    margin: int = 8,
    taylor: int = 3,
) -> np.ndarray:
    """<G_per, phi^J_t> for all t at the 1-d level, G smooth at coarser scales:
    corrected quadrature of the periodic samples at level_1d + margin."""
    M = 2 ** (level_1d + margin)
    y = (np.arange(M) + fam.center) / M % 1.0
    return corrected_coeffs(periodic_samples(fn, y), fam, (margin,), taylor)


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
