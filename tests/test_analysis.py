"""Support-windowed kernel analysis against the full-torus route, and the
per-profile memo of analyzed kernels."""

from functools import cache

import numpy as np
import pytest

from rsbesov import analysis as an
from rsbesov import besov, build_wavelet
from rsbesov import reconstruction as rc
from rsbesov import schauder as sch
from rsbesov.scaling import Scaling

SC1 = Scaling((1,))
N = 5


@cache
def _family(order):
    return build_wavelet(order, {1: 0, 4: 1, 6: 2, 9: 3}[order])


# --- reference: sample and cascade the whole torus ---------------------------


def _ref_coeffs(S, fam, margin, taylor):
    """The full-torus route from the samples at every fine point."""
    return an.corrected_coeffs(S, fam, N + margin, (margin,), taylor)


def _full_samples(fn, fam, margin):
    M = 2 ** (N + margin)
    return an.periodic_samples(fn, (np.arange(M) + fam.center) / M % 1.0)


def _bump_on(lo, hi):
    """A smooth bump supported on [lo, hi]."""
    bs = besov.bspline_bump(6)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return an.Fn1D(lambda u: np.nan_to_num(bs((u - mid) / half), nan=0.0), (lo, hi))


def _window_len(support, fam, margin):
    start, stop = an.sample_window(support, fam, N, margin)
    return stop - start


def _near_full_support(fam, margin):
    """[0, hi] whose window is one coarse cell short of the torus."""
    M, cell = 2 ** (N + margin), 2**margin
    lo, hi = 0, M  # window length is monotone in hi: bisect for M - cell
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _window_len((0.0, mid / M), fam, margin) < M else (lo, mid)
    assert _window_len((0.0, lo / M), fam, margin) == M - cell
    return 0.0, lo / M


def _factors(fam, margin):
    out = []
    for prof in besov.make_dictionary(2, range(N + 1)).profiles:
        out += [besov.profile_kernel(prof, SC1, n).terms[0][1][0] for n in range(N + 1)]
    for n in range(N + 1):  # the (derivative, weight) pairs of the gamma = 2.5 lift
        for a, ell in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]:
            out.append(rc._lift_factor_1d(a, ell, 2.0 ** (-n)))
    K = sch.decompose_kernel("riesz", SC1, r=3, beta=0.6)
    for n in range(N + 1):  # the d=1 Schauder pieces, as _deriv_kernel_array builds them
        for k in (0, 1, 2):
            supp = 2.0 ** (-n)
            out.append(
                an.Fn1D(lambda u, n=n, k=k: K.pn_deriv((k,), n, -u[..., None]), (-supp, supp))
            )
    out += [_bump_on(0.95, 1.2), _bump_on(-1.3, -1.1), _bump_on(-0.01, 0.003)]
    out.append(_bump_on(*_near_full_support(fam, margin)))
    out.append(an.Fn1D(lambda x: np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x), None))
    return out


@pytest.mark.parametrize("order", [1, 4, 6, 9])
@pytest.mark.parametrize("margin", [2, 8])
def test_windowed_analysis_matches_full_torus(order, margin):
    fam = _family(order)
    for fn in _factors(fam, margin):
        S = _full_samples(fn, fam, margin)
        for taylor in (1, 2, 3):
            got = an.smooth_coeffs_1d(fn, fam, N, margin=margin, taylor=taylor)
            ref = _ref_coeffs(S, fam, margin, taylor)
            assert np.array_equal(got, ref), (fn.support, taylor)


def test_windows_stay_small_and_cover_the_torus_when_needed():
    fam = _family(6)
    M = 2 ** (N + 8)
    assert _window_len((-(2.0**-N), 2.0**-N), fam, 8) < M // 2
    assert _window_len((-0.5, 0.6), fam, 8) == M
    assert _window_len(None, fam, 8) == M


# --- memo of analyzed profile kernels ---------------------------------------


def test_profile_kernel_memo(monkeypatch):
    fam, sc1 = _family(6), SC1
    calls = []
    analyze = an.analyze_kernel
    monkeypatch.setattr(an, "analyze_kernel", lambda *a, **k: calls.append(a) or analyze(*a, **k))
    d1 = besov.make_dictionary(1, range(2, 5))
    d2 = besov.make_dictionary(2, range(2, 5))
    p1, p2 = d1.profiles[0], d2.profiles[0]
    assert p1.name == p2.name
    first = p1.kernel_coeffs(fam, sc1, 3, N)
    assert len(calls) == 1
    again = p1.kernel_coeffs(fam, sc1, 3, N)
    assert again is first and len(calls) == 1  # the second request analyzes nothing
    assert not first.flags.writeable
    assert np.array_equal(first, analyze(besov.profile_kernel(p1, sc1, 3), fam, sc1, N))
    # a dictionary of another r normalises its factors differently: no shared entry
    other = p2.kernel_coeffs(fam, sc1, 3, N)
    assert len(calls) == 2 and not np.array_equal(other, first)
    assert p1.kernels is not p2.kernels
    # every part of the key separates entries
    p1.kernel_coeffs(_family(4), sc1, 3, N)
    p1.kernel_coeffs(fam, sc1, 2, N)
    p1.kernel_coeffs(fam, sc1, 3, N - 1)
    assert len(calls) == 5 and len(p1.kernels) == 4
