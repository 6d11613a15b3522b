"""Verification harness for the four embedding cases and the sequence-space
inequality they rest on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import lpn_norm
from .modelled import AveragedMD, dbar_norm
from .scaling import Scaling
from .structures import Model, sector_abs
from .util import check_exponent, weighted_lp


def ell_embed(
    u: np.ndarray,
    n: int,
    scaling: Scaling,
    p,
    delta: float,
    p_tilde,
    delta_tilde: float,
) -> tuple[float, float]:
    """Both sides of the level-n sequence-space inequality
    ||u / 2^{-n delta~}||_{l^p~_n} <= ||u / 2^{-n delta}||_{l^p_n}.

    Requires p <= p~ and delta~ <= delta - |s| (1/p - 1/p~).
    """
    p = check_exponent(p)
    p_tilde = check_exponent(p_tilde)
    if p_tilde < p:
        raise ValueError("need p <= p~")
    inv = 1.0 / p - 1.0 / p_tilde
    if delta_tilde > delta - scaling.total * inv + 1e-12:
        raise ValueError("exponent hypothesis violated")
    w = 2.0 ** (-n * scaling.total)
    lhs = weighted_lp(np.asarray(u) / 2.0 ** (-n * delta_tilde), w, p_tilde)
    rhs = weighted_lp(np.asarray(u) / 2.0 ** (-n * delta), w, p)
    return lhs, rhs


@dataclass(frozen=True)
class EmbeddingCase:
    """Source (gamma, p, q) -> target (gamma', p', q') under one of the four
    admissible exponent configurations."""

    case: int
    gamma: float
    p: float
    q: float
    gamma_t: float
    p_t: float
    q_t: float

    def __post_init__(self):
        g, p, q = self.gamma, self.p, self.q
        gt, pt, qt = self.gamma_t, self.p_t, self.q_t
        ok = False
        if self.case == 1:
            ok = qt > q and pt == p and gt == g
        elif self.case == 2:
            ok = qt <= q and pt == p and gt < g
        elif self.case == 3:
            ok = qt == q and pt < p and gt == g
        elif self.case == 4:
            ok = qt == q and pt > p and 1.0 / p - 1.0 / pt > 0
        if not ok:
            raise ValueError(f"exponents do not fit case {self.case}")

    def check_gap(self, scaling: Scaling, homogeneities=()) -> None:
        if self.case != 4:
            return
        crit = self.gamma - scaling.total * (1.0 / self.p - 1.0 / self.p_t)
        if self.gamma_t > crit + 1e-12:
            raise ValueError("case-4 target order above the critical line")
        if abs(self.gamma_t - crit) < 1e-12 and any(
            crit <= z < self.gamma for z in homogeneities
        ):
            raise ValueError(
                "critical target order admitted only when no homogeneity "
                "lies in the gap"
            )


@dataclass
class EmbedReport:
    case: EmbeddingCase
    source_norm: float
    target_norm: float
    ladder: list[tuple[float, float, float]]  # (zeta, p_zeta, level-sup)

    @property
    def ratio(self) -> float:
        if self.source_norm == 0.0:
            return 0.0 if self.target_norm == 0.0 else np.inf
        return self.target_norm / self.source_norm


def case4_ladder_exponent(scaling: Scaling, gamma: float, p: float, zeta: float) -> float:
    """p_zeta with zeta = gamma - |s| (1/p - 1/p_zeta), clamped to [p, inf]."""
    rhs = 1.0 / p - (gamma - zeta) / scaling.total
    if rhs <= 0.0:
        return math.inf
    return max(p, 1.0 / rhs)


def embed_check(fbar: AveragedMD, model: Model, case: EmbeddingCase) -> EmbedReport:
    """Source vs target averaged-space norms; the target restricts to
    T_{<gamma'} and, for case 4, the homogeneity ladder is reported."""
    st, sc = fbar.structure, fbar.structure.scaling
    case.check_gap(sc, st.homogeneities)
    if fbar.gamma != case.gamma:
        raise ValueError("averaged distribution order does not match the case")
    src = dbar_norm(fbar, model, case.p, case.q).total
    target_fbar = fbar.restrict(case.gamma_t) if case.gamma_t < case.gamma else fbar
    if case.gamma_t < case.gamma:
        st.check_gamma(case.gamma_t)
    tgt = dbar_norm(target_fbar, model, case.p_t, case.q_t).total
    ladder = []
    if case.case == 4:
        for z in st.sectors_below(case.gamma):
            pz = case4_ladder_exponent(sc, case.gamma, case.p, z)
            sup = max(
                lpn_norm(sector_abs(st, fbar.levels[n], z), n, pz, sc)
                for n in range(fbar.N + 1)
            )
            ladder.append((z, pz, sup))
    return EmbedReport(case, src, tgt, ladder)
