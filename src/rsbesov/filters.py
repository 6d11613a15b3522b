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


# The minimal-phase taps of orders 1-12, as `_factorise` gives them in
# float64, written with repr so that they read back bit for bit
# (tests/test_filters.py compares the two).
_TAPS = {
    1: (
        0.7071067811865475, 0.7071067811865475,
    ),
    2: (
        0.48296291314453416, 0.8365163037378079, 0.2241438680420134,
        -0.12940952255126037,
    ),
    3: (
        0.33267055295008263, 0.8068915093110925, 0.45987750211849154,
        -0.13501102001025458, -0.08544127388202666, 0.03522629188570953,
    ),
    4: (
        0.2303778133088965, 0.7148465705529157, 0.6308807679298589,
        -0.027983769416859854, -0.18703481171909309, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032,
    ),
    5: (
        0.16010239797419293, 0.6038292697971896, 0.7243085284377729,
        0.13842814590132074, -0.24229488706638203, -0.032244869584638375,
        0.07757149384004572, -0.006241490212798274, -0.012580751999081999,
        0.0033357252854737712,
    ),
    6: (
        0.11154074335010947, 0.49462389039845306, 0.7511339080210954,
        0.31525035170919763, -0.22626469396543983, -0.12976686756726194,
        0.09750160558732304, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614961, 0.004777257510945511, -0.0010773010853084796,
    ),
    7: (
        0.07785205408500918, 0.3965393194819173, 0.7291320908462351, 0.4697822874051931,
        -0.14390600392856498, -0.22403618499387498, 0.07130921926683026,
        0.08061260915108308, -0.03802993693501441, -0.01657454163066688,
        0.01255099855609984, 0.0004295779729213665, -0.0018016407040474908,
        0.00035371379997452024,
    ),
    8: (
        0.05441584224310401, 0.31287159091429995, 0.6756307362972898,
        0.5853546836542067, -0.015829105256349306, -0.2840155429615469,
        0.0004724845739132828, 0.12874742662047847, -0.017369301001807547,
        -0.044088253930794755, 0.013981027917398282, 0.008746094047405777,
        -0.004870352993451574, -0.00039174037337694705, 0.0006754494064505693,
        -0.00011747678412476953,
    ),
    9: (
        0.038077947363878345, 0.24383467461259034, 0.6048231236901112,
        0.6572880780513005, 0.13319738582500756, -0.2932737832791749,
        -0.09684078322297646, 0.14854074933810638, 0.03072568147933338,
        -0.06763282906132997, 0.00025094711483145197, 0.022361662123679096,
        -0.004723204757751397, -0.00428150368246343, 0.0018476468830562265,
        0.00023038576352319597, -0.0002519631889427101, 3.93473203162716e-05,
    ),
    10: (
        0.026670057900555554, 0.1881768000776915, 0.5272011889317256,
        0.6884590394536035, 0.2811723436605775, -0.24984642432731538,
        -0.19594627437737705, 0.12736934033579325, 0.09305736460357235,
        -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
        0.0036065535669561697, -0.010733175483330575, 0.001395351747052901,
        0.001992405295185056, -0.0006858566949597116, -0.00011646685512928545,
        9.358867032006959e-05, -1.3264202894521244e-05,
    ),
    11: (
        0.018694297761471083, 0.1440670211506245, 0.44989976435604534,
        0.6856867749162006, 0.41196436894790744, -0.16227524502749036,
        -0.27423084681794696, 0.0660435881966832, 0.14981201246637849,
        -0.046479955116684187, -0.0664387856950252, 0.031335090219046076,
        0.020840904360181062, -0.0153648209062016, -0.0033408588730144454,
        0.004928417656059041, -0.0003085928588151432, -0.0008930232506662646,
        0.0002491525235528235, 5.4439074699368475e-05, -3.4634984186984996e-05,
        4.49427427723651e-06,
    ),
    12: (
        0.013112257957229518, 0.10956627282118515, 0.37735513521421266,
        0.6571987225793071, 0.5158864784278157, -0.04476388565377463,
        -0.3161784537527855, -0.023779257256069726, 0.18247860592757967,
        0.00535956967435215, -0.09643212009650708, 0.010849130255822185,
        0.04154627749508444, -0.01221864906974828, -0.012840825198300683,
        0.00671149900879551, 0.0022486072409952378, -0.0021795036186277603,
        6.545128212509596e-06, 0.00038865306282093143, -8.850410920820432e-05,
        -2.4241545757030785e-05, 1.2776952219379767e-05, -1.529071758068511e-06,
    ),
}


def daubechies_filter(order: int) -> np.ndarray:
    """Minimal-phase orthonormal filter with `order` vanishing moments.

    Orders 1-12 come from the table above, as a fresh contiguous array;
    higher orders are factorised, which imports mpmath.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order in _TAPS:
        return np.array(_TAPS[order])
    return _factorise(order)


def _factorise(order: int) -> np.ndarray:
    """Spectral factorization of the half-band polynomial: the roots of
    P(y) = sum_{j<K} C(K-1+j, j) y^j are mapped to z-plane pairs through
    y = (2 - z - 1/z)/4 and the roots inside the unit circle are kept.
    """
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
        h = h[::-1].copy()
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
        fine[1::2] = _refine(h, vals, 1, m, 2**j)
        vals = fine
    return vals


def cascade_mother(h: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Point values of psi on [0, L-1] from the father values phi of
    `cascade_father` at the same dyadic mesh."""
    m = len(phi) - 1
    return _refine(mother_filter(h), phi, 0, m + 1, m // (len(h) - 1))


def _refine(f: np.ndarray, vals: np.ndarray, start: int, n: int, step: int) -> np.ndarray:
    """The refinement sums sqrt2 sum_k f_k vals[start + 2 i - k step], i < n,
    with vals taken as zero outside its samples.  Each tap reads one stride-2
    slice of vals, and the taps are added in k order, like a scalar loop, so
    the samples do not depend on vectorising."""
    acc = np.zeros(n)
    for k, fk in enumerate(f):
        shift = k * step - start  # i reads vals[2 i - shift]
        lo = max(0, -(-shift // 2))
        hi = min(n, (len(vals) - 1 + shift) // 2 + 1)
        if lo < hi:
            acc[lo:hi] += fk * vals[2 * lo - shift : 2 * hi - shift : 2]
    return SQRT2 * acc
