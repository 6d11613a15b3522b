import math

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from rsbesov import embeddings as em
from rsbesov import modelled as md
from rsbesov import structures as rs
from rsbesov.scaling import Scaling

INF = math.inf

# frozen from the calibration sweep (seed 3, gamma 1.3): the case-4 ratio at
# the finest tested level
CASE4_GOLDEN_N8 = 0.665421

GAMMA = 1.3


def random_fbar(st, gamma, N, seed):
    sc = st.scaling
    rng = np.random.default_rng(seed)
    levels = []
    prev = None
    for n in range(N + 1):
        if prev is None:
            lv = rng.uniform(-1, 1, (*sc.grid_shape(0), st.dim))
        else:
            up = prev
            for ax, si in enumerate(sc.s):
                up = np.repeat(up, 2**si, axis=ax)
            decay = np.array([2.0 ** (-n * (gamma - s.zeta)) for s in st.symbols])
            lv = up + rng.uniform(-1, 1, (*sc.grid_shape(n), st.dim)) * decay
        levels.append(lv)
        prev = lv
    return md.AveragedMD(st, gamma, N, levels)


def test_single_point_equality_at_critical(sc1):
    # both sides reduce to 2^{n delta} 2^{-n|s|/p} at the critical exponent
    n, p, delta = 5, 2.0, 0.8
    u = np.zeros(2**n)
    u[7] = 3.0
    for pt in (4.0, INF):
        crit = delta - 1.0 * (1.0 / p - (0.0 if math.isinf(pt) else 1.0 / pt))
        lhs, rhs = em.ell_embed(u, n, sc1, p, delta, pt, crit)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_zero_sequence(sc1):
    lhs, rhs = em.ell_embed(np.zeros(2**4), 4, sc1, 2.0, 1.0, 4.0, 0.2)
    assert lhs == 0.0 and rhs == 0.0


def test_inequality_on_ensemble(sc1):
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        u = rng.standard_normal(2**n) * rng.uniform(0.1, 10)
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 6.0]))
        pt = p + float(rng.uniform(0.0, 4.0))
        delta = float(rng.uniform(0.05, 2.0))
        slack = float(rng.uniform(0.0, 0.5))
        dt = delta - (1.0 / p - 1.0 / pt) - slack
        lhs, rhs = em.ell_embed(u, n, sc1, p, delta, pt, dt)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_inequality_anisotropic(sc21):
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        u = rng.standard_normal(sc21.grid_shape(n))
        p, pt = 2.0, 5.0
        delta = 1.0
        dt = delta - sc21.total * (1.0 / p - 1.0 / pt)
        lhs, rhs = em.ell_embed(u, n, sc21, p, delta, pt, dt)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_hypothesis_violation_rejected(sc1):
    with pytest.raises(ValueError):
        em.ell_embed(np.ones(4), 2, sc1, 2.0, 1.0, 4.0, 0.9)
    with pytest.raises(ValueError):
        em.ell_embed(np.ones(4), 2, sc1, 4.0, 1.0, 2.0, 0.1)  # p~ < p
    with pytest.raises(ValueError, match="level-n grid"):
        em.ell_embed(np.ones(5), 2, sc1, 2.0, 1.0, 4.0, 0.2)  # not a level-2 sequence


@given(data=hst.data())
def test_ell_embed_property(data):
    # p <= p~ and delta~ <= delta - |s|(1/p - 1/p~): the level-n inequality
    # holds on random arrays, and a delta~ above that bound is rejected
    sc = Scaling(data.draw(hst.sampled_from([(1,), (2, 1)])))
    n = data.draw(hst.integers(0, 3))
    exponents = hst.one_of(hst.floats(1.0, 8.0), hst.just(INF))
    p, pt = sorted((data.draw(exponents), data.draw(exponents)))
    delta = data.draw(hst.floats(-2.0, 2.0))
    bound = delta - sc.total * (1.0 / p - 1.0 / pt)
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    u = rng.standard_normal(sc.grid_shape(n)) * data.draw(hst.floats(1e-3, 1e3))
    dt = bound - data.draw(hst.floats(0.0, 1.0))
    lhs, rhs = em.ell_embed(u, n, sc, p, delta, pt, dt)
    assert lhs <= rhs * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        em.ell_embed(u, n, sc, p, delta, pt, bound + data.draw(hst.floats(1e-9, 1.0)))


def test_case_constraints():
    with pytest.raises(ValueError):
        em.EmbeddingCase(1, 1.3, 2.0, 2.0, 1.3, 2.0, 1.0)  # q' < q in case 1
    with pytest.raises(ValueError):
        em.EmbeddingCase(4, 1.3, 2.0, 2.0, 1.3, 1.0, 2.0)  # p' < p in case 4
    em.EmbeddingCase(2, 1.3, 2.0, 2.0, 0.9, 2.0, 2.0)


def test_case4_gap_condition(sc1, fam6):
    st, _ = rs.polynomial_structure(GAMMA, sc1, fam6, 4)
    crit = GAMMA - 1.0 * (1.0 / 2.0 - 0.0)
    case = em.EmbeddingCase(4, GAMMA, 2.0, INF, crit, INF, INF)
    # [crit, gamma) contains the homogeneity 1.0: critical target rejected
    with pytest.raises(ValueError):
        case.check_gap(sc1, st.homogeneities)


@pytest.fixture(scope="module")
def embed_setup(sc1, fam6):
    st, model = rs.polynomial_structure(GAMMA, sc1, fam6, 8)
    return st, model


def test_cases_1_and_3_ratios_at_most_one(embed_setup, sc1, fam6):
    st, model = embed_setup
    for N in (4, 6, 8):
        stn, mn = rs.polynomial_structure(GAMMA, sc1, fam6, N)
        fbar = random_fbar(stn, GAMMA, N, 3)
        r1 = em.embed_check(
            fbar, mn, em.EmbeddingCase(1, GAMMA, 2.0, 2.0, GAMMA, 2.0, INF)
        )
        assert r1.ratio <= 1.0
        r3 = em.embed_check(
            fbar, mn, em.EmbeddingCase(3, GAMMA, 2.0, 2.0, GAMMA, 1.0, 2.0)
        )
        assert r3.ratio <= 1.0


def test_cases_2_and_4_bounded_across_refinement(sc1, fam6):
    ratios2, ratios4 = {}, {}
    for N in (4, 5, 6, 7, 8):
        st, model = rs.polynomial_structure(GAMMA, sc1, fam6, N)
        fbar = random_fbar(st, GAMMA, N, 3)
        c2 = em.EmbeddingCase(2, GAMMA, 2.0, 2.0, GAMMA - 0.45, 2.0, 2.0)
        ratios2[N] = em.embed_check(fbar, model, c2).ratio
        c4 = em.EmbeddingCase(4, GAMMA, 2.0, INF, GAMMA - 0.5 - 0.01, INF, INF)
        ratios4[N] = em.embed_check(fbar, model, c4).ratio
    assert max(ratios2.values()) <= 1.2 * max(ratios2[4], ratios2[5], ratios2[6])
    assert max(ratios4.values()) <= 1.2 * max(ratios4[4], ratios4[5], ratios4[6])
    assert ratios4[8] == pytest.approx(CASE4_GOLDEN_N8, rel=1e-3)


def test_case4_ladder_reported(sc1, fam6):
    st, model = rs.polynomial_structure(GAMMA, sc1, fam6, 6)
    fbar = random_fbar(st, GAMMA, 6, 3)
    case = em.EmbeddingCase(4, GAMMA, 2.0, INF, GAMMA - 0.51, INF, INF)
    rep = em.embed_check(fbar, model, case)
    assert len(rep.ladder) == 2
    zetas = [z for z, _, _ in rep.ladder]
    assert zetas == [0.0, 1.0]
    p0 = em.case4_ladder_exponent(sc1, GAMMA, 2.0, 1.0)
    assert rep.ladder[1][1] == pytest.approx(p0)
    assert all(np.isfinite(v) for _, _, v in rep.ladder)


def test_restriction_never_increases_local_terms(sc1, fam6):
    st, model = rs.polynomial_structure(GAMMA, sc1, fam6, 6)
    fbar = random_fbar(st, GAMMA, 6, 5)
    full = md.dbar_norm(fbar, model, 2.0, 2.0)
    restr = md.dbar_norm(fbar.restrict(0.9), model, 2.0, 2.0)
    for z, v in restr.local.items():
        assert v <= full.local[z] + 1e-14


def _sweep_cases(gamma, sc):
    return [
        em.EmbeddingCase(1, gamma, 2.0, 2.0, gamma, 2.0, INF),
        em.EmbeddingCase(2, gamma, 2.0, 2.0, gamma - 0.45, 2.0, 2.0),
        em.EmbeddingCase(3, gamma, 2.0, 2.0, gamma, 1.0, 2.0),
        em.EmbeddingCase(4, gamma, 2.0, INF, gamma - sc.total / 2.0 - 0.01, INF, INF),
    ]


@pytest.mark.parametrize("s, gamma, N", [((1,), GAMMA, 6), ((1,), 2.5, 6), ((2, 1), 2.5, 3)])
def test_sweep_matches_per_case_checks(fam6, s, gamma, N):
    # at gamma 1.3 the case-2 and case-4 targets zero the same symbol and
    # share one transport; at 2.5 case 2 zeroes nothing and reads fbar's
    # own difference stacks
    sc = Scaling(s)
    st, model = rs.polynomial_structure(gamma, sc, fam6, N)
    fbar = random_fbar(st, gamma, N, 3)
    cases = _sweep_cases(gamma, sc)
    for case, rep in zip(cases, em.embed_sweep(fbar, model, cases)):
        one = em.embed_check(fbar, model, case)
        assert (rep.case, rep.source_norm, rep.target_norm) == (case, one.source_norm, one.target_norm)
        assert rep.ladder == one.ladder
        target = fbar.restrict(case.gamma_t) if case.gamma_t < gamma else fbar
        assert rep.source_norm == md.dbar_norm(fbar, model, case.p, case.q).total
        assert rep.target_norm == md.dbar_norm(target, model, case.p_t, case.q_t).total


def test_sweep_checks_every_case_before_transporting(sc1, fam6, monkeypatch):
    # a target order on a homogeneity is refused before any Gamma transport,
    # even when it comes after a valid case
    st, model = rs.polynomial_structure(2.5, sc1, fam6, 5)
    fbar = random_fbar(st, 2.5, 5, 3)
    calls = []
    apply = type(model).gamma_apply_field
    monkeypatch.setattr(
        type(model), "gamma_apply_field", lambda self, *a: calls.append(a) or apply(self, *a)
    )
    good = em.EmbeddingCase(1, 2.5, 2.0, 2.0, 2.5, 2.0, INF)
    on_homogeneity = em.EmbeddingCase(2, 2.5, 2.0, 2.0, 2.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="coincides with a homogeneity"):
        em.embed_sweep(fbar, model, [good, on_homogeneity])
    with pytest.raises(ValueError, match="coincides with a homogeneity"):
        em.embed_check(fbar, model, on_homogeneity)
    assert calls == []
    em.embed_sweep(fbar, model, [good])
    assert len(calls) == len(range(md.TRANSLATION_MIN_LEVEL, 5 + 1))
