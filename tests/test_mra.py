import itertools
import tracemalloc
from functools import cache

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsbesov import analysis as an
from rsbesov import besov, filters, mra
from rsbesov.pyramid import CoeffPyramid, load_rsbf, save_rsbf
from rsbesov.scaling import Scaling


def test_grid_nesting_and_counts(sc21):
    assert sc21.grid_size(3) == 2 ** (3 * 3)
    fine = sc21.grid_points(4).reshape(-1, 2)
    coarse = sc21.grid_points(3).reshape(-1, 2)
    fine_set = {tuple(np.round(p, 12)) for p in fine}
    assert all(tuple(np.round(p, 12)) in fine_set for p in coarse)


@pytest.mark.parametrize("s", [(1,), (2, 1), (1, 1)])
def test_level_index_and_shells_nest_in_the_fine_grid(s):
    # Lambda_n sits inside Lambda_N at the level_index points, and every
    # E_n shell step moves each Lambda_n point onto its Lambda_n neighbour
    sc = Scaling(s)
    units = set(itertools.product((-1, 0, 1), repeat=sc.d)) - {(0,) * sc.d}
    for N in range(5):
        fine, shape = sc.grid_points(N), sc.grid_shape(N)
        for n in range(N + 1):
            idx = sc.level_index(n, N)
            assert np.array_equal(fine[idx], sc.grid_points(n))
            steps = sc.shell_steps(n, N)
            assert {tuple(u) for u in steps // sc.stride(n, N)} == units
            assert len(steps) == len(units)
            for h in steps:
                moved = fine[tuple((ix + hi) % m for ix, hi, m in zip(idx, h, shape))]
                unit = h // sc.stride(n, N)
                assert np.array_equal(moved, np.roll(sc.grid_points(n), -unit, range(sc.d)))
    with pytest.raises(ValueError, match="nested"):
        sc.level_index(3, 2)


def test_scaling_rejects_non_integral_entries():
    # int(si) used to truncate: (2.7, 1) became s = (2, 1), and 1.9 and True became 1
    for bad in [(2.7, 1), (np.float64(1.9),), (True,), (2.0,), (0,), ()]:
        with pytest.raises(ValueError, match="integers"):
            Scaling(bad)
    sc = Scaling((np.int64(2), np.uint32(1)))
    assert sc.s == (2, 1) and all(type(si) is int for si in sc.s)


def test_nearest_point_idempotent(sc1):
    x = np.array([[0.3125]])
    idx = sc1.nearest_grid_index(x, 4)
    y = np.array([[idx[0][0] / 16.0]])
    assert sc1.nearest_grid_index(y, 4)[0][0] == idx[0][0]


@pytest.mark.parametrize("order,r", [(4, 1), (6, 2)])
def test_roundtrip_and_parseval_1d(sc1, order, r):
    fam = mra.build_wavelet(order, r)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(2**9)
    pyr = mra.forward_transform(u, fam, sc1)
    v = mra.inverse_transform(pyr, fam)
    assert np.max(np.abs(u - v)) < 1e-10
    sample_l2 = np.sqrt(np.sum(u**2) * 2.0**-9)
    assert abs(sample_l2 - pyr.l2()) <= 1e-10 * sample_l2


def test_roundtrip_anisotropic(sc21, fam6):
    rng = np.random.default_rng(1)
    u = rng.standard_normal((2**6, 2**3))
    pyr = mra.forward_transform(u, fam6, sc21)
    assert pyr.n_psi == 7
    v = mra.inverse_transform(pyr, fam6)
    assert np.max(np.abs(u - v)) < 1e-10
    sample_l2 = np.sqrt(np.sum(u**2) * 2.0 ** (-3 * 3))
    assert abs(sample_l2 - pyr.l2()) <= 1e-10 * sample_l2


def test_constant_samples(sc1, fam6):
    pyr = mra.forward_transform(np.full(2**7, 3.25), fam6, sc1)
    assert max(np.max(np.abs(d)) for d in pyr.details) < 1e-12
    np.testing.assert_allclose(pyr.base, [3.25], atol=1e-12)


def _riemann_pair(fam, sc, N, kind_a, n_a, x_a, code_a, kind_b, n_b, x_b, code_b, bits=12):
    """Direct inner-product oracle: Riemann sum of periodized basis values."""
    fine = np.arange(2**bits) / 2**bits
    va = mra.eval_basis(fam, sc, kind_a, n_a, np.array([x_a]), [fine], psi_code=code_a)
    vb = mra.eval_basis(fam, sc, kind_b, n_b, np.array([x_b]), [fine], psi_code=code_b)
    return float(np.sum(va * vb) / 2**bits)


def test_impulse_details_match_pairing_oracle(sc1, fam6):
    # unit impulse at a grid point: detail coefficients are the grid weight
    # times <phi^N_y, psi^n_x>, checked against the direct inner-product oracle
    N = 4
    iy = 5
    u = np.zeros(2**N)
    u[iy] = 1.0
    pyr = mra.forward_transform(u, fam6, sc1)
    y = iy / 2**N
    for n in (1, 2):
        for ix in (0, 2**n - 1):
            want = 2.0 ** (-N / 2.0) * _riemann_pair(
                fam6, sc1, N, "father", N, y, None, "mother", n, ix / 2**n, (1,)
            )
            assert abs(pyr.details[n][0][ix] - want) < 1e-7


def test_zero_pyramid_inverse(sc1, fam6):
    z = CoeffPyramid.zeros(sc1, 5)
    assert np.max(np.abs(mra.inverse_transform(z, fam6))) == 0.0


def test_single_base_coefficient_matches_pairing_oracle(sc1, fam6):
    # inverse of one base coefficient equals 2^{N/2} <phi^0_0, phi^N_y>,
    # checked against the direct Riemann oracle on cascade samples
    N = 4
    pyr = CoeffPyramid.zeros(sc1, N)
    pyr.base[0] = 1.0
    u = mra.inverse_transform(pyr, fam6)
    for iy in (0, 3, 11):
        want = 2.0 ** (N / 2.0) * _riemann_pair(
            fam6, sc1, N, "father", 0, 0.0, None, "father", N, iy / 2**N, None
        )
        assert abs(u[iy] - want) < 1e-6


def test_projection_reassembly_and_idempotence(sc21, fam4):
    rng = np.random.default_rng(3)
    pyr = mra.forward_transform(rng.standard_normal((2**6, 2**3)), fam4, sc21)
    n = 1
    parts = mra.project(pyr, n, "V")
    for m in range(n, pyr.N):
        parts = parts.plus(mra.project(pyr, m, "Vperp"))
    assert parts.max_abs_diff(pyr) < 1e-12
    pv = mra.project(pyr, 1, "V")
    assert mra.project(pv, 1, "V").max_abs_diff(pv) < 1e-15


def test_projection_of_finer_father_follows_refinement(sc1, fam6):
    # V_n projection of phi^{n+1}_x has coefficients given by the filter
    N, n = 4, 3
    ix = 5
    cnp1 = np.zeros(2**N)
    cnp1[ix] = 1.0
    pyr = mra.analyze_v_coefficients(cnp1, fam6, sc1, N)
    proj = mra.project(pyr, n, "V")
    cn = mra.level_coefficients(proj, fam6, n)
    h = fam6.h
    want = np.zeros(2**n)
    for k in range(2**n):
        m = (ix - 2 * k) % 2**N
        for mm in range(m, len(h), 2**N):
            want[k] += h[mm]
    np.testing.assert_allclose(cn, want, atol=1e-12)


def test_vanishing_moments_exact(sc1, fam6):
    # mothers annihilate monomials of scaled degree <= r: exact via moments
    for n in (1, 3):
        for a in range(fam6.r + 1):
            # <psi^n_x, y^a> expands in the mother moments N_a = int v^a psi
            val = filters.mother_moments(fam6.h, a)[a]
            assert abs(val) < 1e-10


def test_vanishing_moments_quadrature(fam6):
    # quadrature at cascade resolution on the covering line (annihilation is
    # a statement about genuine monomials, not their torus restrictions)
    depth = fam6.cascade_depth
    L = fam6.support_len
    u = np.arange(L * 2**depth + 1) / 2**depth
    psi = fam6.mother_at(u)
    for a in range(fam6.r + 1):
        val = np.sum(psi[:-1] * u[:-1] ** a) / 2**depth
        scale = np.sum(np.abs(psi[:-1]) * u[:-1] ** a) / 2**depth
        assert abs(val) < 1e-8 * max(scale, 1.0)


def test_eval_basis_normalisation(sc1, fam6):
    fine = np.arange(2**12) / 2**12
    vals = mra.eval_basis(fam6, sc1, "father", 2, np.array([0.25]), [fine])
    l2 = np.sqrt(np.sum(vals**2) / 2**12)
    assert abs(l2 - 1.0) < 1e-8
    integ = np.sum(vals) / 2**12
    assert abs(integ - 2.0**-1.0) < 1e-10  # 2^{-n|s|/2} int phi


def test_eval_basis_support_scales(sc1, fam6):
    fine = np.arange(2**12) / 2**12
    for n in (2, 3):
        vals = mra.eval_basis(fam6, sc1, "father", n, np.array([0.0]), [fine])
        supp = fine[np.abs(vals) > 1e-12]
        width = supp.max() - supp.min()
        assert width <= fam6.support_len * 2.0**-n + 2.0**-10


def test_eval_basis_rejects_fine_mesh(sc1):
    fam = mra.build_wavelet(4, 1, cascade_depth=6)
    fine = np.arange(2**10) / 2**10
    with pytest.raises(ValueError, match="cascade"):
        mra.eval_basis(fam, sc1, "father", 3, np.array([0.0]), [fine])


def test_forward_rejects_bad_shapes(sc1, sc21, fam4):
    with pytest.raises(ValueError):
        mra.forward_transform(np.zeros(100), fam4, sc1)
    with pytest.raises(ValueError):
        mra.forward_transform(np.zeros((16, 16)), fam4, sc21)  # levels disagree


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_samples(sc1, fam6, bad):
    # one bad sample in 256 used to flow through to a confident exponent
    samples = np.sin(2 * np.pi * np.arange(256) / 256)
    samples[17] = bad
    with pytest.raises(ValueError, match="finite"):
        mra.forward_transform(samples, fam6, sc1)


def test_project_range_errors(sc1, fam4):
    pyr = CoeffPyramid.zeros(sc1, 3)
    with pytest.raises(ValueError):
        mra.project(pyr, 3, "V")
    with pytest.raises(ValueError):
        mra.project(pyr, -1, "V")


def test_rsbf_roundtrip(tmp_path, sc21, fam4):
    rng = np.random.default_rng(9)
    pyr = mra.forward_transform(rng.standard_normal((2**4, 2**2)), fam4, sc21)
    path = tmp_path / "field.rsbf"
    save_rsbf(path, pyr)
    back = load_rsbf(path)
    assert back.scaling == pyr.scaling and back.N == pyr.N
    assert back.max_abs_diff(pyr) == 0.0
    raw = path.read_bytes()
    assert raw[:4] == b"RSBF"
    assert int.from_bytes(raw[4:8], "little") == 1


def test_point_values_of_smooth_function(sc1, fam6):
    # point values of the analyzed projection reproduce the function
    N = 9
    kern = an.SeparableKernel([(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x), None)])])
    c = an.analyze_kernel(kern, fam6, sc1, N)
    pyr = mra.analyze_v_coefficients(c, fam6, sc1, N)
    grid = np.arange(2**N) / 2**N
    vals = mra.point_values(pyr, fam6)
    assert np.max(np.abs(vals - np.sin(2 * np.pi * grid))) < 1e-6


# --- properties over random scalings, orders and inputs ---------------------------

SCALINGS = [(1,), (2, 1), (1, 1), (1, 2)]


@cache
def _family(order):
    return mra.build_wavelet(order, 0)


@given(
    s=st.sampled_from(SCALINGS),
    order=st.sampled_from([1, 4, 6, 9]),
    N=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_and_parseval_property(s, order, N, seed):
    sc, fam = Scaling(s), _family(order)
    u = np.random.default_rng(seed).standard_normal(sc.grid_shape(N))
    pyr = mra.forward_transform(u, fam, sc)
    assert np.max(np.abs(mra.inverse_transform(pyr, fam) - u)) < 1e-10
    sample_l2 = np.sqrt(np.sum(u**2) * 2.0 ** (-N * sc.total))
    assert abs(sample_l2 - pyr.l2()) <= 1e-10 * sample_l2


@given(
    s=st.sampled_from(SCALINGS),
    order=st.sampled_from([1, 4, 6, 9]),
    N=st.integers(1, 2),
    data=st.data(),
)
def test_dirac_coefficients_are_basis_values_property(s, order, N, data):
    # <delta_x0, phi^n_x> = phi^n_x(x0), evaluated one grid point x at a time
    sc, fam = Scaling(s), _family(order)
    bits = data.draw(st.integers(0, 6))
    x0 = [data.draw(st.integers(0, 2**bits - 1)) / 2**bits for _ in s]
    pyr = besov.synthesize_dirac(sc, N, fam, x0)
    query = [np.array([xi]) for xi in x0]

    def point_values(kind, n, code=None):
        out = np.zeros(sc.grid_shape(n))
        for idx in np.ndindex(*out.shape):
            x = np.array([k / 2.0 ** (n * si) for k, si in zip(idx, s)])
            out[idx] = mra.eval_basis(fam, sc, kind, n, x, query, psi_code=code).item()
        return out

    assert np.array_equal(pyr.base, point_values("father", 0))
    for n in range(N):
        for i, code in enumerate(mra.psi_codes(sc)):
            assert np.array_equal(pyr.details[n][i], point_values("mother", n, code))
    # the transform of the level-N father values puts each mother code where
    # psi_codes (and so synthesize_dirac) puts it
    analyzed = mra.analyze_v_coefficients(point_values("father", N), fam, sc, N)
    assert _rel_err(analyzed.base, pyr.base) <= 1e-12
    for n in range(N):
        assert _rel_err(analyzed.details[n], pyr.details[n]) <= 1e-12


# --- reference filter bank: the modulo gather, zero-upsampled synthesis and FFT ---


def _ref_filter_step(c, f, axis, stride=2, start=0):
    """out[k] = sum_m f[m] c[(stride k + start + m) mod L] by a modulo index gather."""
    L = c.shape[axis]
    idx = (stride * np.arange(L // stride)[:, None] + start + np.arange(len(f))[None, :]) % L
    out = np.moveaxis(c, axis, -1)[..., idx] @ f
    return np.moveaxis(out, -1, axis)


def _ref_upsample_conv(c, f, axis):
    """out[j] = sum_k f[j - 2k mod L] c[k]: zero-upsample, then periodic convolve."""
    L = 2 * c.shape[axis]
    moved = np.moveaxis(c, axis, -1)
    up = np.zeros((*moved.shape[:-1], L))
    up[..., ::2] = moved
    idx = (np.arange(L)[:, None] - np.arange(len(f))[None, :]) % L
    return np.moveaxis(up[..., idx] @ f, -1, axis)


def _code_chain(sc, code):
    """Per axis (axis, filters in order, step, offset): code 0 is s_i
    low-passes; code 2^j + t is s_i - 1 - j low-passes, one high-pass, and
    every 2^j-th coefficient from offset t."""
    for ax, (si, k) in enumerate(zip(sc.s, code)):
        if k == 0:
            yield ax, ["h"] * si, 1, 0
        else:
            j = k.bit_length() - 1
            yield ax, ["h"] * (si - 1 - j) + ["g"], 2**j, k - 2**j


def _ref_decompose(c, fam, sc):
    """Each code's block on its own: its filter chain, then its offset."""
    blocks = []
    for code in [(0,) * sc.d] + mra.psi_codes(sc):
        x = c
        for ax, chain, step, t in _code_chain(sc, code):
            for name in chain:
                x = _ref_filter_step(x, getattr(fam, name), ax)
            x = np.moveaxis(np.moveaxis(x, ax, 0)[t::step], 0, ax)
        blocks.append(x)
    return blocks[0], np.stack(blocks[1:])


def _ref_reassemble(newc, details, fam, sc):
    """The adjoint of _ref_decompose, one code at a time."""
    out = 0.0
    for code, block in zip([(0,) * sc.d] + mra.psi_codes(sc), [newc, *details]):
        x = block
        for ax, chain, step, t in _code_chain(sc, code):
            moved = np.moveaxis(x, ax, 0)
            full = np.zeros((moved.shape[0] * step, *moved.shape[1:]))
            full[t::step] = moved
            x = np.moveaxis(full, 0, ax)
            for name in reversed(chain):
                x = _ref_upsample_conv(x, getattr(fam, name), ax)
        out = out + x
    return out


def _ref_point_values(c, fam):
    """Periodic convolution with the integer father samples, by FFT."""
    L = fam.support_len
    phi_int = fam.father_at(np.arange(L + 1, dtype=float))
    for ax in range(c.ndim):
        M = c.shape[ax]
        kern = np.zeros(M)
        for m in range(L + 1):
            kern[m % M] += phi_int[m]
        moved = np.fft.fft(np.moveaxis(c, ax, -1), axis=-1) * np.fft.fft(kern)
        c = np.moveaxis(np.real(np.fft.ifft(moved, axis=-1)), -1, ax)
    return c


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize(
    "s", [(1,), (2, 1), (1, 1), (1, 2), (3,), (2, 1, 1)], ids=lambda s: "s" + "".join(map(str, s))
)
def test_filter_bank_matches_reference(s):
    # orders 1/4/6/9 and N <= 4 include every grid shorter than the filter
    sc = Scaling(s)
    rng = np.random.default_rng(len(s) * 10 + s[0])
    for order in (1, 4, 6, 9):
        fam = _family(order)
        # analysis (stride 2 from 0), point_values (stride 1 from -L) and the
        # synthesis parities (stride 2 from 2 - len(t))
        L = fam.support_len
        hg = np.stack([fam.h, fam.g], axis=1)
        calls = [(fam.h, 2, 0), (fam.g, 2, 0), (fam.father_at(np.arange(L + 1.0))[::-1], 1, -L)]
        calls += [(hg[p::2][::-1].ravel(), 2, 2 - len(fam.h)) for p in (0, 1)]
        for N in range(1, 5):
            c = rng.standard_normal(sc.grid_shape(N))
            # filter_step contracts each layout's strides in place: contiguous,
            # a transposed view, a negative stride, a code-leading sub-array
            for x in (c, c.T.copy().T, c[..., ::-1], np.stack([c, -c, 2 * c])[::2]):
                for ax in range(x.ndim - sc.d, x.ndim):
                    for taps, stride, start in calls:
                        got = mra.filter_step(x, taps, ax, stride, start)
                        assert _rel_err(got, _ref_filter_step(x, taps, ax, stride, start)) <= 1e-13
            newc, details = mra.decompose_level(c, fam, sc)
            ref_newc, ref_details = _ref_decompose(c, fam, sc)
            assert _rel_err(newc, ref_newc) <= 1e-13
            assert _rel_err(details, ref_details) <= 1e-13
            back = mra.reassemble_level(ref_newc, ref_details, fam, sc)
            assert _rel_err(back, _ref_reassemble(ref_newc, ref_details, fam, sc)) <= 1e-13
            assert _rel_err(back, c) <= 1e-13
            pyr = mra.analyze_v_coefficients(c, fam, sc, N)
            ref_values = _ref_point_values(mra.level_coefficients(pyr, fam, N), fam)
            assert _rel_err(mra.point_values(pyr, fam), ref_values * 2.0 ** (N * sc.total / 2.0)) <= 1e-13


@pytest.mark.parametrize(
    "shape, taps, axis, stride, start",
    [
        ((1, 4096, 64), "h", 1, 2, 0),
        ((1, 4096, 64), "g", 2, 2, 0),
        ((2**18,), "h", 0, 2, 0),
        ((4096, 64), "h", 0, 2, -4),
        ((1, 4096, 64), "h", 1, 1, -10),
    ],
)
def test_filter_step_peak_memory_stays_near_its_input(fam6, shape, taps, axis, stride, start):
    # one wrapped gather of the input plus the output; no window matrix
    c = np.random.default_rng(0).standard_normal(shape)
    tracemalloc.start()
    try:
        mra.filter_step(c, getattr(fam6, taps), axis, stride, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * c.nbytes, peak / c.nbytes


def test_filter_step_rounding_does_not_depend_on_the_tap_layout(fam6):
    # einsum rounds a reversed view of the taps differently from a copy
    rev = np.ascontiguousarray(fam6.h)[::-1]
    c = np.random.default_rng(0).standard_normal(4096)
    assert np.array_equal(mra.filter_step(c, rev, 0, 2), mra.filter_step(c, rev.copy(), 0, 2))
