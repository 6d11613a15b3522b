"""Orthonormal compactly supported filter construction and exact filter algebra.

The refinement convention is phi(x) = sqrt(2) * sum_k h[k] phi(2x - k) with
sum_k h[k] = sqrt(2), so the Haar filter is (1/sqrt2, 1/sqrt2).  The mother
filter is g[k] = (-1)^k h[L-1-k].  All moment integrals of the father and
mother functions follow from the filter by exact recursions, which is what
the higher modules use instead of quadrature wherever possible.
"""

from __future__ import annotations

import math

import numpy as np


SQRT2 = math.sqrt(2.0)

# Hoelder regularity of the minimal-phase family by number of vanishing
# moments (Daubechies' table for small orders, asymptotic slope beyond).
_HOELDER = {
    1: 0.0,
    2: 0.5500,
    3: 1.0878,
    4: 1.6179,
    5: 1.9690,
    6: 2.1891,
    7: 2.4604,
    8: 2.7608,
    9: 3.0736,
    10: 3.3614,
}


def hoelder_regularity(order: int) -> float:
    if order in _HOELDER:
        return _HOELDER[order]
    return 0.2075 * order + 1.2866  # linear continuation of the table tail


def min_order_for(r: int) -> int:
    """Smallest order with > r vanishing moments and Hoelder regularity >= r."""
    order = max(1, int(r) + 1)
    while hoelder_regularity(order) < r:
        order += 1
    return order


def daubechies_filter(order: int) -> np.ndarray:
    """Minimal-phase orthonormal filter with `order` vanishing moments.

    Spectral factorization of the half-band polynomial: the roots of
    P(y) = sum_{j<K} C(K-1+j, j) y^j are mapped to z-plane pairs through
    y = (2 - z - 1/z)/4 and the roots inside the unit circle are kept.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array([1.0, 1.0]) / SQRT2
    K = int(order)
    # the binomial polynomial is badly conditioned for larger orders, so the
    # factorisation runs in extended precision throughout
    import mpmath as mp

    with mp.workdps(60):
        pcoef = [mp.mpf(math.comb(K - 1 + j, j)) for j in range(K)]
        yroots = mp.polyroots(list(reversed(pcoef)), maxsteps=200, extraprec=120)
        zroots = []
        for y in yroots:
            b = 2 - 4 * mp.mpc(y)
            disc = mp.sqrt(b * b - 4)
            for z in ((b + disc) / 2, (b - disc) / 2):
                if abs(z) < 1:
                    zroots.append(z)
        if len(zroots) != K - 1:
            raise RuntimeError("spectral factorization lost roots")
        coeffs = [mp.mpc(1)]
        for z in zroots + [mp.mpc(-1)] * K:
            nxt = [mp.mpc(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * z
            coeffs = nxt
        total = sum(coeffs)
        scale = mp.sqrt(2) / total
        h = np.array([float(mp.re(c * scale)) for c in reversed(coeffs)])
    # orient the filter minimal-phase (energy at the front)
    m = len(h)
    front = np.sum(np.arange(m) * h * h)
    if front > (m - 1) / 2.0:
        h = h[::-1]
    return h


def mother_filter(h: np.ndarray) -> np.ndarray:
    L = len(h)
    return np.array([(-1) ** k * h[L - 1 - k] for k in range(L)])


def filter_orthonormality_defect(h: np.ndarray) -> float:
    """max_m |sum_k h_k h_{k+2m} - delta_m|."""
    L = len(h)
    worst = abs(np.dot(h, h) - 1.0)
    for m in range(1, L // 2):
        worst = max(worst, abs(np.dot(h[: L - 2 * m], h[2 * m :])))
    return float(worst)


def filter_moment(f: np.ndarray, ell: int) -> float:
    k = np.arange(len(f), dtype=float)
    return float(np.sum(f * k**ell))


def scaling_moments(h: np.ndarray, jmax: int) -> np.ndarray:
    """Exact moments M_j = int x^j phi(x) dx, j = 0..jmax, with int phi = 1."""
    M = np.zeros(jmax + 1)
    M[0] = 1.0
    for j in range(1, jmax + 1):
        acc = 0.0
        for i in range(j):
            acc += math.comb(j, i) * M[i] * filter_moment(h, j - i)
        M[j] = (2.0 ** (-j - 1) * SQRT2 * acc) / (1.0 - 2.0**-j)
    return M


def mother_moments(h: np.ndarray, jmax: int) -> np.ndarray:
    """Exact moments N_j = int x^j psi(x) dx from the mother filter."""
    g = mother_filter(h)
    M = scaling_moments(h, jmax)
    N = np.zeros(jmax + 1)
    for j in range(jmax + 1):
        acc = 0.0
        for i in range(j + 1):
            acc += math.comb(j, i) * M[i] * filter_moment(g, j - i)
        N[j] = 2.0 ** (-j - 1) * SQRT2 * acc
    return N


def cell_moments(h: np.ndarray, q: int, degree: int) -> np.ndarray:
    """C[l, k] = int_{k/q}^{(k+1)/q} s^l phi(y) dy, s = q y - k, for l <= degree
    and the (len(h) - 1) q cells of phi's support (q odd).

    Doubling maps cell k onto cells 2k - mq and 2k - mq + 1, so the
    refinement equation gives C_l = 2^-l (A C_l + sum_{i<l} C(l, i) B C_i),
    where B takes the right cell and A both.  C_0 is A's eigenvector at 1
    with sum 1; each l >= 1 is one solve of I - 2^-l A.  Every s lies in
    [0, 1], measured from its own cell, so no large argument is raised to a
    power.
    """
    n = (len(h) - 1) * q
    rows, m = np.meshgrid(np.arange(n), np.arange(len(h)), indexing="ij")
    left = 2 * rows - m * q

    def spread(shift):  # M[k, left + shift] = sum of h_m / sqrt2 over m
        M = np.zeros((n, n))
        ok = (left + shift >= 0) & (left + shift < n)
        np.add.at(M, (rows[ok], left[ok] + shift), h[m[ok]] / SQRT2)
        return M

    B = spread(1)
    A = spread(0) + B
    C = np.zeros((degree + 1, n))
    # every column of A sums to sum(h) / sqrt2 = 1, so the rows of I - A add up
    # to 0: the last one gives way to the normalisation sum_k C_0 = 1
    M = np.eye(n) - A
    M[-1] = 1.0
    C[0] = np.linalg.solve(M, np.eye(n)[-1])
    for l in range(1, degree + 1):
        src = sum(math.comb(l, i) * C[i] for i in range(l))
        C[l] = np.linalg.solve(np.eye(n) - 2.0**-l * A, 2.0**-l * (B @ src))
    return C


def centered_scaling_moments(h: np.ndarray, jmax: int) -> tuple[float, np.ndarray]:
    """First moment c and centered moments int (x-c)^j phi(x) dx."""
    M = scaling_moments(h, jmax)
    c = M[1]
    out = np.zeros(jmax + 1)
    for j in range(jmax + 1):
        out[j] = sum(math.comb(j, i) * M[i] * (-c) ** (j - i) for i in range(j + 1))
    return c, out


def cascade_father(h: np.ndarray, depth: int) -> np.ndarray:
    """Exact point values of phi on [0, L-1] at the dyadic mesh 2^-depth.

    Integer values come from the eigenvector of the transfer matrix at
    eigenvalue one (partition-of-unity normalised); finer dyadic values
    follow from the refinement relation, which is exact.
    """
    L = len(h)
    if L == 2:  # Haar: indicator of [0, 1)
        x = np.arange((L - 1) * 2**depth + 1)
        vals = np.where(x < 2**depth, 1.0, 0.0)
        vals[-1] = 0.0
        return vals
    n_int = L - 2  # phi vanishes at 0 and L-1
    T = np.zeros((n_int, n_int))
    for i in range(1, L - 1):
        for m in range(1, L - 1):
            k = 2 * i - m
            if 0 <= k < L:
                T[i - 1, m - 1] = SQRT2 * h[k]
    w, V = np.linalg.eig(T)
    idx = int(np.argmin(np.abs(w - 1.0)))
    v = np.real(V[:, idx])
    v /= v.sum()
    vals = np.zeros((L - 1) * 2**0 + 1)
    vals[1:-1] = v
    for j in range(depth):
        m = len(vals) - 1  # mesh intervals over [0, L-1] at step 2^-j
        fine = np.zeros(2 * m + 1)
        fine[::2] = vals
        # new odd points t: phi(t 2^-(j+1)) = sqrt2 sum_k h_k phi((t - k 2^j) 2^-j)
        fine[1::2] = _refine(h, vals, np.arange(1, 2 * m, 2), 2**j)
        vals = fine
    return vals


def cascade_mother(h: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Point values of psi on [0, L-1] from the father values phi of
    `cascade_father` at the same dyadic mesh."""
    m = len(phi) - 1
    return _refine(mother_filter(h), phi, 2 * np.arange(m + 1), m // (len(h) - 1))


def _refine(f: np.ndarray, vals: np.ndarray, src: np.ndarray, step: int) -> np.ndarray:
    """One refinement sum per index in src: sqrt2 sum_k f_k vals[src - k step],
    with vals taken as zero outside its samples.  The taps are added in k
    order, like a scalar loop, so the samples do not depend on vectorising."""
    acc = np.zeros(len(src))
    for k, fk in enumerate(f):
        j = src - k * step
        ok = (j >= 0) & (j < len(vals))
        acc[ok] += fk * vals[j[ok]]
    return SQRT2 * acc
