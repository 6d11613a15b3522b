"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rsbesov import analysis as an
from rsbesov import besov, embeddings as em, modelled as md, mra
from rsbesov import reconstruction as rc
from rsbesov import schauder as sch
from rsbesov import structures as rs
from rsbesov.scaling import Scaling
from rsbesov.util import lq_aggregate
from conftest import make_sin_lift, make_sincos_jet

INF = math.inf


def check(ok: bool, label: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="module")
def sc():
    return Scaling((1,))


@pytest.fixture(scope="module")
def fam():
    return mra.build_wavelet(6, 2)


def test_criterion_1_transform_soundness(sc, fam):
    t0 = time.time()
    rng = np.random.default_rng(0)
    u = rng.standard_normal(2**12)
    pyr = mra.forward_transform(u, fam, sc)
    v = mra.inverse_transform(pyr, fam)
    rt = float(np.max(np.abs(u - v)))
    sample_l2 = float(np.sqrt(np.sum(u**2) * 2.0**-12))
    pv = abs(sample_l2 - pyr.l2()) / sample_l2
    elapsed = time.time() - t0
    depth = fam.cascade_depth
    L = fam.support_len
    grid = np.arange(L * 2**depth) / 2**depth
    psi = fam.mother_at(grid)
    vm = 0.0
    for a in range(fam.r + 1):
        scale = max(np.sum(np.abs(psi) * grid**a) / 2**depth, 1.0)
        vm = max(vm, abs(np.sum(psi * grid**a) / 2**depth) / scale)
    check(rt <= 1e-10, f"1a round trip {rt:.2e} <= 1e-10")
    check(pv <= 1e-10, f"1b Parseval {pv:.2e} <= 1e-10")
    check(vm <= 1e-8, f"1c vanishing moments {vm:.2e} <= 1e-8")
    check(elapsed < 5.0, f"1d transform runtime {elapsed:.2f}s < 5s at N=12")


def test_criterion_2_dirac_critical_exponents(sc, fam):
    t0 = time.time()
    pyr = besov.synthesize("dirac", sc, 12, fam, x0=np.array([0.5]))
    for p in (1.0, 2.0, INF):
        measured = besov.critical_exponent(pyr, p)
        want = -1.0 + (0.0 if math.isinf(p) else 1.0 / p)
        check(
            abs(measured - want) < 0.1,
            f"2 dirac critical alpha p={p}: {measured:.3f} vs {want:.3f}",
        )
    elapsed = time.time() - t0
    check(elapsed < 10.0, f"2 runtime {elapsed:.2f}s < 10s")


def test_criterion_3_d_dbar_equivalence(sc, fam):
    st, model, f = make_sin_lift(sc, fam, 10)
    fbar = md.average(f, model)
    back, rep = md.unaverage(fbar, model, p=2.0)
    for z in st.sectors_below(f.gamma):
        check(
            rep.slopes[z] >= f.gamma - z - 0.1,
            f"3a roundtrip order zeta={z}: {rep.slopes[z]:.3f} >= {f.gamma - z - 0.1}",
        )
    ratios = []
    for N in (6, 7, 8, 9, 10):
        stn, mn, fn = make_sin_lift(sc, fam, N)
        dn = md.d_norm(fn, mn, INF, INF).total
        dbn = md.dbar_norm(md.average(fn, mn), mn, INF, INF).total
        ratios.append(dbn / dn)
    drift = max(ratios) / min(ratios)
    check(drift <= 1.2, f"3b norm-ratio drift {drift:.3f} <= 1.2 across N=6..10")


def test_criterion_4_reconstruction(sc, fam):
    errs = {}
    for N in (6, 7, 8, 9, 10):
        st, model, f = make_sin_lift(sc, fam, N)
        out, cert = rc.reconstruct(f, model, 2.0, INF)
        kern = an.SeparableKernel(
            [(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x), None)])]
        )
        target = mra.analyze_v_coefficients(
            an.analyze_kernel(kern, fam, sc, N), fam, sc, N
        )
        errs[N] = out.plus(target.scaled(-1.0)).l2() / target.l2()
    order = (math.log2(errs[6]) - math.log2(errs[10])) / 4.0
    check(errs[10] <= 1e-3, f"4a sin rel L2 {errs[10]:.2e} <= 1e-3 at N=10")
    check(order >= 2.0, f"4b refinement order {order:.2f} >= 2")
    st, model, f = make_sin_lift(sc, fam, 10)
    d = besov.make_dictionary(2, scales=range(2, 9))
    out, cert = rc.reconstruct(f, model, 2.0, INF, dictionary=d)
    finite = bool(np.all(np.isfinite(cert.bound_normalized)))
    slope = cert.bound_slope()
    check(finite, "4c reconstruction-bound table finite")
    check(slope >= f.gamma - 0.1, f"4d bound lambda-exponent {slope:.2f} >= {f.gamma - 0.1}")
    xi = besov.synthesize("random_besov", sc, 10, fam, alpha=-0.5, seed=3)
    stn, nm = rs.noise_structure(-0.5, xi, 1.25, fam)
    vals = np.zeros((2**10, stn.dim))
    vals[:, stn.index("Xi")] = 1.0
    fxi = md.ModelledDistribution(stn, 1.25, 10, vals)
    outxi, _ = rc.reconstruct(fxi, nm, 2.0, INF)
    dev = outxi.max_abs_diff(xi)
    check(dev <= 1e-12, f"4e noise reconstruction exact: {dev:.2e} <= 1e-12")


def test_criterion_3b_4_anisotropic(fam):
    # criteria 3b and 4 at s=(2,1) on the jet of sin(2 pi u_0) cos(2 pi u_1)
    sc2 = Scaling((2, 1))
    sin_cos = [an.Fn1D(lambda x: np.sin(2 * np.pi * x)), an.Fn1D(lambda x: np.cos(2 * np.pi * x))]
    kern = an.SeparableKernel([(1.0, sin_cos)])
    errs, ratios = {}, []
    for N in (3, 4, 5):
        st, model, f = make_sincos_jet(sc2, fam, N)
        fbar = md.average(f, model)
        out, _ = rc.reconstruct(f, model, 2.0, INF, f_bar=fbar)
        target = mra.analyze_v_coefficients(an.analyze_kernel(kern, fam, sc2, N), fam, sc2, N)
        errs[N] = out.plus(target.scaled(-1.0)).l2() / target.l2()
        dn = md.d_norm(f, model, INF, INF).total
        ratios.append(md.dbar_norm(fbar, model, INF, INF).total / dn)
    order = (math.log2(errs[3]) - math.log2(errs[5])) / 2.0
    check(errs[5] <= 1e-2, f"4a' s=(2,1) sin*cos rel L2 {errs[5]:.2e} <= 1e-2 at N=5")
    check(order >= 2.0, f"4b' s=(2,1) refinement order {order:.2f} >= 2")
    drift = max(ratios) / min(ratios)
    check(drift <= 1.2, f"3b' s=(2,1) norm-ratio drift {drift:.3f} <= 1.2 across N=3..5")


def test_criterion_5_right_inverse(sc, fam):
    N = 10
    pyr = besov.synthesize(
        "smooth",
        sc,
        N,
        fam,
        func=lambda p: np.sin(2 * np.pi * p[..., 0]) + 0.3 * np.cos(6 * np.pi * p[..., 0]),
    )
    for n in (N - 2, N - 1):
        pyr.details[n][:] = 0.0
    f, rep = rc.lift(pyr, 2.5, 2.0, INF, fam, check_roundtrip=True)
    check(
        rep.roundtrip_rel_error <= 1e-6,
        f"5a lift roundtrip {rep.roundtrip_rel_error:.2e} <= 1e-6",
    )
    st, model, fsin = make_sin_lift(sc, fam, 10)
    out, _ = rc.reconstruct(fsin, model, 2.0, INF)
    errs = rc.derivative_check(fsin, out, model)
    worst = max(errs.values())
    check(worst <= 1e-2, f"5b derivative identity k<=2: {worst:.2e} <= 1e-2")


def test_criterion_6_sewing(sc, fam):
    N = 10
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=-0.3, seed=5)
    germ = rc.germ_from_pyramid(xi, fam)
    out, cert = rc.sewing_limit(germ, -0.3, 2.2, 2.0, INF, fam)
    dev = out.max_abs_diff(xi)
    check(dev <= 1e-12, f"6a consistent germ fixed point {dev:.2e} <= 1e-12")
    alpha, gamma = -0.5, 1.5
    rng = np.random.default_rng(7)
    base = mra.all_level_coefficients(
        besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=1), fam
    )
    A = [
        base[n] + 2.0 ** (-n * (gamma + 0.5)) * rng.uniform(-1, 1, 2**n)
        for n in range(N + 1)
    ]
    out, cert = rc.sewing_limit(rc.GermCoefficients(sc, N, A), alpha, gamma, 2.0, INF, fam)
    measured = besov.critical_exponent(out, 2.0)
    check(
        abs(measured - alpha) < 0.1,
        f"6b prescribed-decay germ exponent {measured:.3f} within 0.1 of {alpha}",
    )


def test_criterion_7_embeddings(sc, fam):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = rng.standard_normal(2**n) * rng.uniform(0.1, 10)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 6.0]))
        pt = p + float(rng.uniform(0.0, 4.0))
        delta = float(rng.uniform(0.05, 2.0))
        dt = delta - (1.0 / p - 1.0 / pt) - float(rng.uniform(0.0, 0.5))
        lhs, rhs = em.ell_embed(u, n, sc, p, delta, pt, dt)
        if rhs > 0:
            worst = max(worst, (lhs - rhs) / rhs)
    check(worst <= 1e-12, f"7a sequence inequality violation {worst:.2e} <= 1e-12")
    u = np.zeros(2**5)
    u[7] = 1.0
    lhs, rhs = em.ell_embed(u, 5, sc, 2.0, 0.8, INF, 0.8 - 0.5)
    eq = abs(lhs - rhs) / rhs
    check(eq <= 1e-12, f"7b single-point critical equality {eq:.2e}")
    gamma = 1.3
    from test_embeddings import random_fbar

    ratios = {c: {} for c in (1, 2, 3, 4)}
    for N in (4, 5, 6, 7, 8):
        st, model = rs.polynomial_structure(gamma, sc, fam, N)
        fbar = random_fbar(st, gamma, N, 3)
        cases = {
            1: em.EmbeddingCase(1, gamma, 2.0, 2.0, gamma, 2.0, INF),
            2: em.EmbeddingCase(2, gamma, 2.0, 2.0, gamma - 0.45, 2.0, 2.0),
            3: em.EmbeddingCase(3, gamma, 2.0, 2.0, gamma, 1.0, 2.0),
            4: em.EmbeddingCase(4, gamma, 2.0, INF, gamma - 0.51, INF, INF),
        }
        for c, rep in zip(cases, em.embed_sweep(fbar, model, list(cases.values()))):
            ratios[c][N] = rep.ratio
    for c in (1, 3):
        mx = max(ratios[c].values())
        check(mx <= 1.0, f"7c case-{c} ratio {mx:.3f} <= 1 exactly")
    for c in (2, 4):
        growth = max(ratios[c].values()) / max(
            ratios[c][4], ratios[c][5], ratios[c][6]
        )
        check(growth <= 1.2, f"7d case-{c} ratio growth {growth:.3f} <= 1.2")


def test_criterion_8_schauder(sc, fam):
    sc2 = Scaling((2, 1))
    K2 = sch.decompose_kernel("heat", sc2, r=2)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.9, 0.9, (4000, 2))
    g = sch.s_gauge(sc2, pts)
    keep = (g > 2.0**-8) & (g < 0.9)
    pts = pts[keep]
    rel = np.max(
        np.abs(K2.partial_sum(pts, 8, corrected=False) + K2.tail(pts) - K2.P(pts))
        / np.maximum(np.abs(K2.P(pts)), 1e-12)
    )
    check(rel <= 1e-6, f"8a heat-kernel telescoping {rel:.2e} <= 1e-6")
    mom = max(abs(K2.p0_moment(tuple(m))) for m in sc2.multi_indices_below(2.1))
    check(mom <= 1e-8, f"8b P0 moments {mom:.2e} <= 1e-8")
    alpha, beta, gamma = -0.5, 0.7, 1.25
    K = sch.decompose_kernel("riesz", sc, r=3, beta=beta)
    rels = {}
    for N in (6, 8):
        xi = besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=4)
        stn, nm = rs.noise_structure(alpha, xi, gamma, fam)
        _, emod = sch.extend_structure(stn, nm, K, gamma)
        ptsN = sc.grid_points(N)[..., 0]
        vals = np.zeros((2**N, stn.dim))
        vals[:, stn.index("Xi")] = 1.0
        vals[:, stn.index("1")] = np.sin(2 * np.pi * ptsN)
        vals[:, stn.index("X^1")] = 2 * np.pi * np.cos(2 * np.pi * ptsN)
        f = md.ModelledDistribution(stn, gamma, N, vals)
        rels[N] = sch.convolution_identity_check(f, emod, 2.0, INF)[0]
    order = math.log2(rels[6]) - math.log2(rels[8])
    check(rels[8] <= 1e-3, f"8c convolution identity {rels[8]:.2e} <= 1e-3 at N=8")
    check(order > 0.0, f"8d identity refinement order {order / 2.0:.2f} > 0")
    N = 10
    xi = besov.synthesize("random_besov", sc, N, fam, alpha=alpha, seed=11)
    stn, nm = rs.noise_structure(alpha, xi, gamma, fam)
    _, emod = sch.extend_structure(stn, nm, K, gamma)
    cN = mra.level_coefficients(xi, fam, N)
    conv = mra.forward_transform(an.correlate(cN, emod.w_arrays[(0,)]), fam, sc)
    gain = besov.critical_exponent(conv, 2.0) - besov.critical_exponent(xi, 2.0)
    check(abs(gain - beta) <= 0.2, f"8e Besov gain {gain:.3f} = beta +- 0.2")


def test_criterion_9_stability(sc, fam):
    from test_reconstruction import GammaPerturbed, _rough_md

    N = 9
    xi, st, model, f = _rough_md(sc, fam, N)
    d = besov.make_dictionary(2, scales=range(2, 7))
    bump = mra.analyze_v_coefficients(
        an.analyze_kernel(
            an.SeparableKernel(
                [(1.0, [an.Fn1D(lambda x: np.sin(2 * np.pi * x) ** 2, None)])]
            ),
            fam,
            sc,
            N,
        ),
        fam,
        sc,
        N,
    )
    eps_list = [1e-1, 1e-2, 1e-3]
    ms = []
    for eps in eps_list:
        _, m2 = rs.noise_structure(-0.5, xi.plus(bump.scaled(eps)), f.gamma, fam)
        _, _, normalized, _ = rc.two_model_compare(
            f, model, f, m2, 2.0, INF, d, with_budget=False
        )
        ms.append(lq_aggregate(normalized, INF))
    for i in range(len(ms) - 1):
        e = (math.log(ms[i]) - math.log(ms[i + 1])) / (
            math.log(eps_list[i]) - math.log(eps_list[i + 1])
        )
        check(abs(e - 1.0) <= 0.1, f"9a Pi-perturbation exponent {e:.3f} = 1 +- 0.1")
    ms = [
        md.md_distance(f, model, f, GammaPerturbed(st, fam, xi, -0.5, eps), 2.0, INF).total
        for eps in eps_list
    ]
    for i in range(len(ms) - 1):
        e = (math.log(ms[i]) - math.log(ms[i + 1])) / (
            math.log(eps_list[i]) - math.log(eps_list[i + 1])
        )
        check(abs(e - 1.0) <= 0.1, f"9b Gamma-perturbation exponent {e:.3f} = 1 +- 0.1")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "rsbesov.cli",
                "report",
                "--levels",
                "6",
                "--seed",
                "11",
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    same = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names
    )
    check(same and bool(names), f"10 golden-report byte identity over {len(names)} files")
