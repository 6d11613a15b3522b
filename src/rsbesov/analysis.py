"""Pairing engine: wavelet coefficients of smooth kernels, and pairing tables.

Every distribution in this library lives in V_N, so any pairing <xi, G>
equals the dot product of V_N coefficient arrays.  Kernels G are analyzed
once into V_N coefficients: a compact factor is a piecewise polynomial on a
small rational grid, analyzed exactly from cell moments of the father; a
periodic factor by a moment-corrected one-point quadrature at a fine dyadic
level followed by exact filter cascades.  Tables over shifted kernels
<xi, G(. - x)> are circular FFT cross-correlations of the arrays.
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
    """A periodic 1-d factor (support None).

    The analysis rejects an Fn1D with a support: a compact factor is a
    PiecewisePoly.  kernel_moment_1d still integrates one over its support.
    """

    f: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.f(np.asarray(x, dtype=float))


def _horner(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coeffs[i, k] (y - i)^k at each point y, with i = floor(y) capped
    at the last piece, by Horner's rule on all points at once: each step
    gathers the points' coefficients of that degree.  y is overwritten."""
    piece = np.minimum(y.astype(np.intp), len(coeffs) - 1)
    y -= piece
    cols = coeffs.T
    vals = cols[-1].take(piece)
    c_at = np.empty_like(y)
    for c in cols[-2::-1]:
        vals *= y
        vals += c.take(piece, out=c_at, mode="clip")  # piece is in range
    return vals


@dataclass(frozen=True, eq=False)
class PiecewisePoly:
    """A compactly supported piecewise polynomial on equally spaced breakpoints.

    With y = (x - start) * rate, piece i is scale * sum_k coeffs[i, k]
    (y - i)^k for y in [i, i + 1), the last piece closed at its right end; the
    function is 0 outside its support.  The breakpoints are implicit, so a
    spline built from integers keeps an exact table and one rounded scale.
    """

    start: float
    rate: float  # pieces per unit length
    coeffs: np.ndarray  # (pieces, degree + 1)
    scale: float = 1.0

    @property
    def support(self) -> tuple[float, float]:
        return self.start, self.start + len(self.coeffs) / self.rate

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Horner per point on the points of the support (x may be in any
        order)."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        vals = _horner(self.coeffs, (x[inside] - self.start) * self.rate)
        vals *= self.scale
        out = np.zeros_like(x)
        out[inside] = vals
        return out

    def __mul__(self, c: float) -> "PiecewisePoly":
        return PiecewisePoly(self.start, self.rate, self.coeffs, self.scale * c)

    def derivative(self, n: int = 1) -> "PiecewisePoly":
        """The n-th derivative on the same pieces: one zero column past the degree."""
        c = self.coeffs
        for _ in range(n):
            k = np.arange(1, c.shape[1])
            c = c[:, 1:] * (k * self.rate) if len(k) else np.zeros_like(c)
        return PiecewisePoly(self.start, self.rate, c, self.scale)

    def antiderivative(self) -> "PiecewisePoly":
        """x -> int_start^x f, on the same pieces (so 0 beyond them)."""
        P, k = self.coeffs.shape
        L = math.lcm(*range(1, k + 1))  # integer tables stay integer
        c = np.zeros((P, k + 1))
        c[:, 1:] = self.coeffs * (L // np.arange(1, k + 1))
        c[1:, 0] = np.cumsum(c[:, 1:].sum(axis=1))[:-1]
        return PiecewisePoly(self.start, self.rate, c, self.scale / (L * self.rate))

    def dilated(self, lam: float) -> "PiecewisePoly":
        """x -> f(x / lam), lam > 0."""
        return PiecewisePoly(self.start * lam, self.rate / lam, self.coeffs, self.scale)

    def shifted(self, a: float) -> "PiecewisePoly":
        """x -> f(x - a)."""
        return PiecewisePoly(self.start + a, self.rate, self.coeffs, self.scale)


def periodic_samples(fn: Fn1D, y: np.ndarray) -> np.ndarray:
    """Samples of a periodic factor (support None) at points y in [0, 1)."""
    if fn.support is not None:
        raise ValueError(
            f"factor with support {fn.support} is not periodic: analyze a compact "
            "factor as a PiecewisePoly"
        )
    return fn(y)


def _stencil(S: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """S plus the periodic mu_2 and mu_3 central differences along each axis,
    read as slices of one wrap-padded copy of S per axis (freed on return,
    before the cascade allocates)."""
    c = S
    for ax in range(S.ndim):
        n = S.shape[ax]
        wrapped = np.take(S, np.arange(-2, n + 2), axis=ax, mode="wrap")

        def at(k):  # S[i + k] along ax, wrapped
            return wrapped[(slice(None),) * ax + (slice(2 + k, 2 + k + n),)]

        c = c + (mu[2] / 2.0) * (at(1) - 2.0 * S + at(-1))
        c = c + (mu[3] / 6.0) * 0.5 * (at(2) - 2.0 * at(1) + 2.0 * at(-1) - at(-2))
    return c


def quadrature_coeffs_1d(
    fn: Fn1D, fam: WaveletFamily, level_1d: int, extra_bits: int = 8
) -> np.ndarray:
    """<G, phi^J_t> for all t at the 1-d level, G periodic and smooth at
    coarser scales.

    One-point quadrature of the samples on the whole torus at level_1d +
    extra_bits with centered-moment Taylor corrections (_stencil), in the L^2
    normalisation of that grid, then extra_bits exact low-pass steps.
    """
    M = 2 ** (level_1d + extra_bits)
    y = np.arange(M) + fam.center
    y /= M
    y -= np.floor(y)  # exactly y % 1.0 for y >= 0 (Sterbenz), without fmod
    S = periodic_samples(fn, y)
    del y  # not held through the cascade
    c = _stencil(S, fam.centered_father_moments) * 2.0 ** (-(level_1d + extra_bits) / 2.0)
    for _ in range(extra_bits):
        c = filter_step(c, fam.h, 0, 2)
    return c


MAX_CELL_DENOMINATOR = 63  # largest odd q of the exact route's cell grid
MAX_CELL_STEPS = 8  # largest j of the exact route's cell grid


def _check_finite(pp: PiecewisePoly) -> None:
    finite = np.isfinite([pp.start, pp.rate, pp.scale]).all() and np.isfinite(pp.coeffs).all()
    if not (finite and pp.rate > 0):
        raise ValueError(
            f"piecewise polynomial with start={pp.start}, rate={pp.rate}, "
            f"scale={pp.scale} or its coefficients not finite (rate must be > 0)"
        )


def _cell_grid(pp: PiecewisePoly, level_1d: int) -> tuple[int, int] | None:
    """(j, q) with the fewest cells 2^j q per grid step on which the breakpoints
    of pp lie at level_1d, q odd <= MAX_CELL_DENOMINATOR and j <= MAX_CELL_STEPS;
    None if there is none.  x lies on the grid when it is the float nearest to
    a multiple of 1 / (2^j q)."""
    x = np.array([pp.start * 2.0**level_1d, 2.0**level_1d / pp.rate])
    dens = np.outer(2 ** np.arange(MAX_CELL_STEPS + 1), np.arange(1, MAX_CELL_DENOMINATOR + 1, 2))
    on = np.all(np.round(x * dens[..., None]) / dens[..., None] == x, axis=-1)
    if not on.any():
        return None
    den = int(dens[on].min())
    j = (den & -den).bit_length() - 1
    return j, den >> j


def exact_coeffs_1d(
    pp: PiecewisePoly, fam: WaveletFamily, level_1d: int, j: int, q: int
) -> np.ndarray:
    """<P_per, phi^J_t> for all t, exactly, for breakpoints on the cells of
    width 2^-(J + j) / q.

    In u = 2^(J+j) x, cell K = [K/q, (K+1)/q] lies in piece p at offset o
    (W cells per piece), where P re-expands in s = qu - K in [0, 1] as
    g[K, i] s^i.  Then c_t = 2^-(J+j)/2 scale sum_k sum_i g[tq + k, i] C_i(k)
    with the father's cell moments C, contracted as len(h) - 1 products over
    blocks of q cells, placed periodically, and taken j exact low-pass steps
    back to level J.
    """
    level = level_1d + j
    den = 2**j * q
    u0 = round(pp.start * 2.0**level_1d * den)
    W = round(2.0**level_1d / pp.rate * den)
    P, D = pp.coeffs.shape
    L = len(fam.h)
    # (y - p)^k = ((o + s) / W)^k = sum_i C(k, i) (o / W)^(k-i) W^-i s^i
    e = np.arange(D)[:, None] - np.arange(D)
    comb = np.array([[math.comb(k, i) for i in range(D)] for k in range(D)], dtype=float)
    shift = np.where(e >= 0, comb * (np.arange(W) / W)[:, None, None] ** np.maximum(e, 0), 0.0)
    shift *= float(W) ** -np.arange(D)
    g = pp.coeffs @ shift.transpose(1, 0, 2).reshape(D, W * D)
    t0 = u0 // q - L + 2  # the first t whose support meets cell u0
    T = (u0 + P * W - 1) // q - t0 + 1
    G = np.zeros(((T + L - 2) * q, D))
    G[u0 - t0 * q : u0 - t0 * q + P * W] = g.reshape(P * W, D)
    G = G.reshape(T + L - 2, q * D)
    C = fam.cell_moments(q, D - 1).T.reshape(L - 1, q * D)
    c = G[:T] @ C[0]
    for b in range(1, L - 1):
        c += G[b : b + T] @ C[b]
    c *= 2.0 ** (-level / 2.0) * pp.scale
    out = np.bincount((t0 + np.arange(T)) % 2**level, weights=c, minlength=2**level)
    for _ in range(j):
        out = filter_step(out, fam.h, 0, 2)
    return out


def smooth_coeffs_1d(fn: Fn1D | PiecewisePoly, fam: WaveletFamily, level_1d: int) -> np.ndarray:
    """<G_per, phi^J_t> for all t at the 1-d level: a PiecewisePoly exactly,
    on its _cell_grid, a periodic Fn1D by the quadrature.  A PiecewisePoly
    off every cell grid and an Fn1D with a support raise ValueError."""
    if not isinstance(fn, PiecewisePoly):
        return quadrature_coeffs_1d(fn, fam, level_1d)
    _check_finite(fn)
    grid = _cell_grid(fn, level_1d)
    if grid is None:
        raise ValueError(
            f"piecewise polynomial with start={fn.start!r}, rate={fn.rate!r} has its "
            f"breakpoints on no cell grid at level {level_1d}: 2^J start and 2^J / rate "
            f"must be multiples of 1 / (2^j q) with odd q <= {MAX_CELL_DENOMINATOR} and "
            f"j <= {MAX_CELL_STEPS}"
        )
    return exact_coeffs_1d(fn, fam, level_1d, *grid)


@dataclass
class SeparableKernel:
    """sum of tensor-product terms: K(u) = sum_t coef_t * prod_i f_{t,i}(u_i)."""

    terms: list[tuple[float, list[Fn1D | PiecewisePoly]]]

    def scaled(self, c: float) -> "SeparableKernel":
        return SeparableKernel([(c * a, fs) for a, fs in self.terms])


def analyze_kernel(
    kern: SeparableKernel,
    fam: WaveletFamily,
    scaling: Scaling,
    N: int,
) -> np.ndarray:
    """V_N coefficient array of (the periodization of) a separable kernel."""
    out = np.zeros(scaling.grid_shape(N))
    for coef, factors in kern.terms:
        if len(factors) != scaling.d:
            raise ValueError("kernel term arity does not match the dimension")
        arrs = [smooth_coeffs_1d(fn, fam, N * si) for fn, si in zip(factors, scaling.s)]
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


def kernel_moment_1d(fn: Fn1D | PiecewisePoly, a: int) -> float:
    """int u^a fn(u) du by midpoint sums over 2^14 cells of the support."""
    if fn.support is None:
        raise ValueError("moment of a non-compact factor")
    lo, hi = fn.support
    m = 2**14
    h = (hi - lo) / m
    u = lo + (np.arange(m) + 0.5) * h
    return float(np.sum(u**a * fn(u)) * h)
