"""Small numeric helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np

INF = float("inf")


def check_exponent(p) -> float:
    """Validate an integrability index in [1, inf] and return it as float."""
    p = float(p)
    if not (p >= 1.0):
        raise ValueError(f"integrability index must lie in [1, inf], got {p}")
    return p


def lq_aggregate(values, q) -> float:
    """(sum_k v_k^q)^(1/q), with the exact sup reduction for q = inf."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return 0.0
    q = check_exponent(q)
    if math.isinf(q):
        return float(np.max(np.abs(v)))
    return float(np.sum(np.abs(v) ** q) ** (1.0 / q))


def fit_log2_slope(levels, values) -> float:
    """Least-squares slope of log2(values) against the level index.

    Values ~ C * 2^(slope * n).  Entries that underflow to ~0 are dropped;
    a non-finite value raises, and fewer than two usable points give NaN.
    """
    n = np.asarray(levels, dtype=float)
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot fit a slope through non-finite values")
    keep = v > 1e-300
    n, v = n[keep], v[keep]
    if n.size < 2:
        return float("nan")
    y = np.log2(v)
    A = np.vstack([n, np.ones_like(n)]).T
    return float(np.linalg.lstsq(A, y, rcond=None)[0][0])


def multi_binom(k, j) -> int:
    """Product of componentwise binomial coefficients binom(k_i, j_i)."""
    return int(np.prod([math.comb(int(a), int(b)) for a, b in zip(k, j)]))


def multi_factorial(k) -> int:
    return int(np.prod([math.factorial(int(a)) for a in k]))
