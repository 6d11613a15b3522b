import math
import subprocess
import sys

import numpy as np
import pytest

from rsbesov import filters
from rsbesov.mra import build_wavelet

SQRT2 = np.sqrt(2.0)

# golden 4-tap filter, frozen from the spectral-factorization construction;
# agrees with the closed form (1+-sqrt3 combinations)/(4 sqrt2)
DB2 = np.array(
    [
        0.48296291314453416,
        0.83651630373780790,
        0.22414386804201339,
        -0.12940952255126037,
    ]
)


def test_haar_filter():
    h = filters.daubechies_filter(1)
    np.testing.assert_allclose(h, [1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-15)


def test_order2_golden():
    h = filters.daubechies_filter(2)
    np.testing.assert_allclose(h, DB2, rtol=0, atol=1e-12)
    closed = np.array([1 + np.sqrt(3), 3 + np.sqrt(3), 3 - np.sqrt(3), 1 - np.sqrt(3)])
    closed /= 4.0 * SQRT2
    np.testing.assert_allclose(h, closed, atol=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 9, 12, 14])
def test_filter_identities(order):
    h = filters.daubechies_filter(order)
    assert len(h) == 2 * order
    assert abs(h.sum() - SQRT2) < 1e-12
    assert filters.filter_orthonormality_defect(h) < 1e-12
    # mother filter kills monomials below the order; tolerance scales with
    # the cancellation-prone magnitude of the summands
    g = filters.mother_filter(h)
    k = np.arange(len(g), dtype=float)
    for ell in range(order):
        scale = max(np.sum(np.abs(g) * k**ell), 1.0)
        assert abs(filters.filter_moment(g, ell)) < 1e-13 * scale


@pytest.mark.parametrize("order", [2, 4, 6])
def test_mother_moments_vanish(order):
    N = filters.mother_moments(filters.daubechies_filter(order), order + 1)
    assert np.max(np.abs(N[:order])) < 1e-10


def test_scaling_moment_recursion_against_quadrature():
    h = filters.daubechies_filter(4)
    phi = filters.cascade_father(h, 12)
    m = 2**12
    x = np.arange(len(phi)) / m
    for j in range(4):
        quad = np.sum(x[:-1] ** j * phi[:-1]) / m
        assert abs(quad - filters.scaling_moments(h, j)[j]) < 1e-7


def test_two_scale_relation_on_cascade_samples():
    h = filters.daubechies_filter(5)
    depth = 9
    coarse = filters.cascade_father(h, depth - 1)
    fine = filters.cascade_father(h, depth)
    L = len(h)
    worst = 0.0
    for i in range(len(coarse)):
        acc = 0.0
        for k in range(L):
            src = 4 * i - k * 2**depth
            if 0 <= src < len(fine):
                acc += h[k] * fine[src]
        worst = max(worst, abs(coarse[i] - SQRT2 * acc))
    assert worst < 1e-10


def test_sample_orthonormality():
    fam = build_wavelet(6, 2)
    depth = fam.cascade_depth
    m = 2**depth
    phi = fam.father_samples
    for k in range(3):
        riemann = np.sum(phi[: len(phi) - k * m - 1] * phi[k * m : -1]) / m
        assert abs(riemann - (1.0 if k == 0 else 0.0)) < 1e-8


def test_partition_of_unity():
    fam = build_wavelet(4, 1)
    m = 2**fam.cascade_depth
    t = 1234
    total = sum(fam.father_samples[t + k * m] for k in range(fam.support_len))
    assert abs(total - 1.0) < 1e-12


def test_order_too_small_reports_minimum():
    with pytest.raises(ValueError, match="minimal admissible order is 6"):
        build_wavelet(4, 2)
    with pytest.raises(ValueError, match="minimal admissible order"):
        build_wavelet(2, 3)


@pytest.mark.parametrize("order", range(1, 13))
def test_tabulated_taps_are_the_factorisation_bits(order):
    h = filters.daubechies_filter(order)
    assert h.flags.c_contiguous and h.dtype == np.float64
    assert h.tobytes() == filters._factorise(order).tobytes()
    h[0] = 0.0  # every call returns a fresh array
    assert filters.daubechies_filter(order).tobytes() == filters._factorise(order).tobytes()


def _mask_refine(f, vals, src, step):
    """The refinement sums by a boolean mask and a gather per tap."""
    acc = np.zeros(len(src))
    for k, fk in enumerate(f):
        j = src - k * step
        ok = (j >= 0) & (j < len(vals))
        acc[ok] += fk * vals[j[ok]]
    return SQRT2 * acc


@pytest.mark.parametrize("depth", [6, 12, 14])
@pytest.mark.parametrize("order", [1, 2, 4, 6, 9, 12])
def test_slice_refinement_matches_the_masked_gather(order, depth, monkeypatch):
    h = filters.daubechies_filter(order)
    phi = filters.cascade_father(h, depth)
    psi = filters.cascade_mother(h, phi)
    monkeypatch.setattr(
        filters,
        "_refine",
        lambda f, vals, start, n, step: _mask_refine(f, vals, start + 2 * np.arange(n), step),
    )
    ref_phi = filters.cascade_father(h, depth)
    assert phi.tobytes() == ref_phi.tobytes()
    assert psi.tobytes() == filters.cascade_mother(h, ref_phi).tobytes()


def test_report_runs_without_mpmath(tmp_path):
    # mpmath factorises orders above 12 only, and the P0 moments build their
    # Gauss-Legendre nodes without numpy.polynomial (+1.25 MB at import): a
    # levels-4 report, at d=1 or at s=(2,1), imports neither
    for name, config in [("d1", ""), ("s21", "s = 2,1\n")]:
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[experiment]\n{config}levels = 4\n")
        script = (
            "import sys, rsbesov.cli\n"
            f"code = rsbesov.cli.main(['report', '--config', {str(cfg)!r}, '--out', {str(tmp_path / name)!r}])\n"
            "print(code, 'mpmath' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False", "False"], (name, proc.stdout)


def _connection_residuals(order):
    """The connection filter of an order against its defining relations:
    the normalisation sum_m m a_m + 1, the refinement residual max_m |a_m - 2
    sum_{k,l} h_k h_l a_{2m+k-l}|, and, relative to the exact derivative,
    the miss of -sum_m a_m c_{t+m} against the coefficients of j x^(j-1) for
    every j below the order, c_t = <x^j, phi(. - t)> = sum_i C(j, i) t^(j-i)
    M_i from the father moments M_i, at t = -3 .. 3, relative to the sum's
    own scale sum_m |a_m c_{t+m}| (the c_t reach (L + 1)^j)."""
    h = filters.daubechies_filter(order)
    a = filters.connection_filter(h)
    L = len(h)
    m = np.arange(2 - L, L - 1)
    at = dict(zip(m.tolist(), a))
    refine = max(
        abs(at[mi] - 2.0 * sum(h[k] * h[l] * at.get(2 * mi + k - l, 0.0) for k in range(L) for l in range(L)))
        for mi in m.tolist()
    )
    M = filters.scaling_moments(h, order)
    t = np.arange(-3 - (L - 2), 4 + (L - 2))  # the taps reach L - 2 either side of t = -3 .. 3

    def coeffs(j):
        return sum(math.comb(j, i) * t.astype(float) ** (j - i) * M[i] for i in range(j + 1))

    derivs = []
    for j in range(1, order):
        got = -np.correlate(coeffs(j), a, "valid")  # -sum_m a_m c_{t+m}
        want = j * coeffs(j - 1)[L - 2 : len(t) - (L - 2)]
        scale = np.correlate(np.abs(coeffs(j)), np.abs(a), "valid")
        derivs.append(np.max(np.abs(got - want) / scale))
    return a, float(np.dot(m, a) + 1.0), refine, max(derivs, default=0.0)


# the relations at round-off: measured |sum_m m a_m + 1| <= 3.8e-15 and
# refinement residuals <= 1.4e-15 over orders 2-9.  The derivative of x^j
# misses by 3.3e-16 / 1.8e-15 / 5.7e-14 / 6.4e-12 of the sum's scale at
# orders 2 / 4 / 6 / 9: the outer taps are tiny (down to 2e-17 at order 9)
# and only absolutely accurate, and the high odd moments sum_m m^p a_m weigh
# them by |m|^p.  Each bound is the next power of ten above twice that
CONNECTION_DERIV_TOL = {2: 1e-15, 4: 1e-14, 6: 1e-12, 9: 1e-10}


@pytest.mark.parametrize("order", sorted(CONNECTION_DERIV_TOL))
def test_connection_filter_relations(order):
    a, norm, refine, deriv = _connection_residuals(order)
    assert len(a) == 4 * order - 3
    np.testing.assert_array_equal(a, -a[::-1])  # a_{-m} = -a_m
    assert abs(norm) <= 1e-14 and refine <= 1e-14
    assert deriv <= CONNECTION_DERIV_TOL[order]
    if order == 2:  # the closed form, a fourth-order central difference
        np.testing.assert_allclose(a, [-1 / 12, 2 / 3, 0.0, -2 / 3, 1 / 12], rtol=0, atol=1e-15)


def test_connection_filter_refuses_haar():
    # phi = 1 on [0, 1) has no derivative: the system has only a = 0
    with pytest.raises(ValueError, match="order-1 family has no derivative connection filter"):
        filters.connection_filter(filters.daubechies_filter(1))
