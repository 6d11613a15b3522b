"""Pairing engine: wavelet coefficients of smooth kernels, and pairing tables.

Every distribution in this library lives in V_N, so any pairing <xi, G>
equals the dot product of V_N coefficient arrays.  Kernels G are analyzed
once into V_N coefficients: a piecewise polynomial on a small rational grid
exactly, from cell moments of the father; any other factor by a
moment-corrected one-point quadrature at a fine dyadic level followed by
exact filter cascades.  Tables over shifted kernels <xi, G(. - x)> are
circular FFT cross-correlations of the arrays.
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


def _horner(c: np.ndarray, t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k c[k] t^k by Horner's rule, written into out."""
    out[...] = c[-1]
    for ck in c[-2::-1]:
        out *= t
        out += ck
    return out


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
        """Horner per piece on the points of that piece only, found by masks
        (x may be in any order)."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        y = (x[inside] - self.start) * self.rate
        piece = np.minimum(y.astype(np.intp), len(self.coeffs) - 1)
        vals = np.empty_like(y)
        for i, c in enumerate(self.coeffs):
            m = piece == i
            t = y[m] - i
            vals[m] = _horner(c, t, np.empty_like(t))
        out = np.zeros_like(x)
        out[inside] = vals * self.scale
        return out

    def sorted_values(self, x: np.ndarray) -> np.ndarray:
        """The values at non-decreasing points x inside the support, which
        __call__ would give: each piece is one contiguous slice, found by
        searchsorted.  x is overwritten."""
        x -= self.start
        x *= self.rate
        ends = np.searchsorted(x, np.arange(1.0, len(self.coeffs)))
        out = np.empty_like(x)
        for i, (c, a, b) in enumerate(zip(self.coeffs, [0, *ends], [*ends, len(x)])):
            if a < b:
                t = x[a:b]
                t -= i
                _horner(c, t, out[a:b])
        out *= self.scale
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


def periodic_samples(fn: Fn1D | PiecewisePoly, y: np.ndarray) -> np.ndarray:
    """Samples of the 1-periodization of fn at points y in [0, 1).

    y is walked by its non-decreasing runs (a window grid has one or two), so
    the points of each periodic copy y + m inside the support are one slice
    of a run, and each copy is added in increasing m.
    """
    if fn.support is None:
        return fn(y)
    lo, hi = fn.support
    values = fn.sorted_values if isinstance(fn, PiecewisePoly) else fn
    acc = np.zeros_like(y)
    cuts = [0, *(np.flatnonzero(~(y[1:] >= y[:-1])) + 1), len(y)]  # a NaN is a run of its own
    for a, b in zip(cuts[:-1], cuts[1:]):
        run = y[a:b]
        for m in range(int(np.floor(lo)) - 1, int(np.ceil(hi)) + 1):
            u = run + m  # non-decreasing, so lo <= u <= hi is one slice
            i, j = np.searchsorted(u, lo), np.searchsorted(u, hi, "right")
            if i < j:
                acc[a + i : a + j] += values(u[i:j])
    return acc


def _stencil(S: np.ndarray, mu: np.ndarray, taylor: int) -> np.ndarray:
    """S plus the periodic mu_2 and mu_3 central differences along each axis,
    read as slices of one wrap-padded copy of S per axis (freed on return,
    before the cascade allocates)."""
    c = S
    for ax in range(S.ndim if taylor >= 2 else 0):
        n = S.shape[ax]
        wrapped = np.take(S, np.arange(-2, n + 2), axis=ax, mode="wrap")

        def at(k):  # S[i + k] along ax, wrapped
            return wrapped[(slice(None),) * ax + (slice(2 + k, 2 + k + n),)]

        c = c + (mu[2] / 2.0) * (at(1) - 2.0 * S + at(-1))
        if taylor >= 3:
            c = c + (mu[3] / 6.0) * 0.5 * (at(2) - 2.0 * at(1) + 2.0 * at(-1) - at(-2))
    return c


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
    c = _stencil(S, fam.centered_father_moments, taylor) * 2.0 ** (-fine_bits / 2.0)
    for ax, k in enumerate(steps):
        for _ in range(k):
            c = filter_step(c, fam.h, ax, 2)
    return c


def sample_window(
    support: tuple[float, float] | None, fam: WaveletFamily, level_1d: int, margin: int
) -> tuple[int, int]:
    """Fine-grid index range [start, stop) that quadrature_coeffs_1d samples.

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


def quadrature_window_1d(
    fn: Fn1D | PiecewisePoly,
    fam: WaveletFamily,
    level_1d: int,
    margin: int = 8,
    taylor: int = 3,
) -> tuple[int, np.ndarray]:
    """(t0, c) with c[i] = <G_per, phi^J_{t0 + i}>: the corrected quadrature of
    the periodic samples at level_1d + margin, on the sample_window only.

    Every sample outside the window is an exact zero, so the window, taken
    as a torus, gives the same coefficients.  When the window is shorter
    than the torus, the support and all filter spread fit inside it, and c
    are also the coefficients <G, phi^J_t> of G on R.
    """
    M = 2 ** (level_1d + margin)
    start, stop = sample_window(fn.support, fam, level_1d, margin)
    y = np.arange(start, stop) % M + fam.center
    y /= M
    y -= np.floor(y)  # exactly y % 1.0 for y >= 0 (Sterbenz), without fmod
    S = periodic_samples(fn, y)
    del y  # not held through the cascade
    return start // 2**margin, corrected_coeffs(S, fam, level_1d + margin, (margin,), taylor)


def quadrature_coeffs_1d(
    fn: Fn1D | PiecewisePoly,
    fam: WaveletFamily,
    level_1d: int,
    margin: int = 8,
    taylor: int = 3,
) -> np.ndarray:
    """<G_per, phi^J_t> for all t at the 1-d level, G smooth at coarser scales:
    the quadrature_window_1d coefficients, placed periodically."""
    t0, c = quadrature_window_1d(fn, fam, level_1d, margin, taylor)
    out = np.zeros(2**level_1d)
    out[(t0 + np.arange(len(c))) % len(out)] = c
    return out


MAX_CELL_DENOMINATOR = 63  # largest odd q of the exact route's cell grid


def _check_finite(pp: PiecewisePoly) -> None:
    finite = np.isfinite([pp.start, pp.rate, pp.scale]).all() and np.isfinite(pp.coeffs).all()
    if not (finite and pp.rate > 0):
        raise ValueError(
            f"piecewise polynomial with start={pp.start}, rate={pp.rate}, "
            f"scale={pp.scale} or its coefficients not finite (rate must be > 0)"
        )


def _cell_grid(pp: PiecewisePoly, level_1d: int, margin: int) -> tuple[int, int] | None:
    """(j, q) with the fewest cells 2^j q per grid step on which the breakpoints
    of pp lie at level_1d, q odd <= MAX_CELL_DENOMINATOR and j <= margin; None
    if there is none.  x lies on the grid when it is the float nearest to a
    multiple of 1 / (2^j q)."""
    x = np.array([pp.start * 2.0**level_1d, 2.0**level_1d / pp.rate])
    dens = np.outer(2 ** np.arange(margin + 1), np.arange(1, MAX_CELL_DENOMINATOR + 1, 2))
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


def smooth_coeffs_1d(
    fn: Fn1D | PiecewisePoly,
    fam: WaveletFamily,
    level_1d: int,
    margin: int = 8,
    taylor: int = 3,
) -> np.ndarray:
    """<G_per, phi^J_t> for all t at the 1-d level.

    A PiecewisePoly whose breakpoints lie on a _cell_grid takes the exact
    route; every other factor the quadrature (margin and taylor are its
    parameters; margin also bounds j).
    """
    if isinstance(fn, PiecewisePoly):
        _check_finite(fn)
        grid = _cell_grid(fn, level_1d, margin)
        if grid is not None:
            return exact_coeffs_1d(fn, fam, level_1d, *grid)
    return quadrature_coeffs_1d(fn, fam, level_1d, margin, taylor)


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
    margin: int = 8,
) -> np.ndarray:
    """V_N coefficient array of (the periodization of) a separable kernel."""
    out = np.zeros(scaling.grid_shape(N))
    for coef, factors in kern.terms:
        if len(factors) != scaling.d:
            raise ValueError("kernel term arity does not match the dimension")
        arrs = [
            smooth_coeffs_1d(fn, fam, N * si, margin=margin)
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


def kernel_moment_1d(fn: Fn1D | PiecewisePoly, a: int) -> float:
    """int u^a fn(u) du by midpoint sums over 2^14 cells of the support."""
    if fn.support is None:
        raise ValueError("moment of a non-compact factor")
    lo, hi = fn.support
    m = 2**14
    h = (hi - lo) / m
    u = lo + (np.arange(m) + 0.5) * h
    return float(np.sum(u**a * fn(u)) * h)
