"""Verification harness for the four embedding cases and the sequence-space
inequality they rest on."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .besov import lpn_norm
from .modelled import AveragedMD, _dbar_norms
from .modelled import dbar_norm  # noqa: F401  (perfbench/spans.py traces it here)
from .scaling import Scaling
from .structures import Model, sector_abs
from .util import check_exponent


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
    lhs = lpn_norm(np.asarray(u) / 2.0 ** (-n * delta_tilde), n, p_tilde, scaling)
    rhs = lpn_norm(np.asarray(u) / 2.0 ** (-n * delta), n, p, scaling)
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
    return embed_sweep(fbar, model, [case])[0]


def embed_sweep(fbar: AveragedMD, model: Model, cases) -> list[EmbedReport]:
    """embed_check for every case, with one Gamma transport per level of fbar
    and of each restriction that zeroes a symbol; every source and target
    norm is read from those difference stacks.  All cases are checked before
    the first transport."""
    st, sc = fbar.structure, fbar.structure.scaling
    # one field per set of symbols its restriction zeroes: Gamma mixes the
    # sectors, so such a restriction is transported on its own; sides holds
    # each case's source and target as (field key, (gamma, p, q))
    fields, sides = {}, []
    for case in cases:
        case.check_gap(sc, st.homogeneities)
        if fbar.gamma != case.gamma:
            raise ValueError("averaged distribution order does not match the case")
        zeroed = ()
        if case.gamma_t < case.gamma:
            st.check_gamma(case.gamma_t)
            zeroed = tuple(st.at_or_above(case.gamma_t))
        fields[()] = fbar
        if zeroed not in fields:
            fields[zeroed] = fbar.restrict(case.gamma_t)
        sides += [((), (case.gamma, case.p, case.q)), (zeroed, (case.gamma_t, case.p_t, case.q_t))]
    total = {}
    for key, field in fields.items():
        norms = list(dict.fromkeys(norm for k, norm in sides if k == key))
        for norm, rep in zip(norms, _dbar_norms(field, model, norms)):
            total[key, norm] = rep.total
    reports = []
    for case, src, tgt in zip(cases, sides[::2], sides[1::2]):
        ladder = []
        if case.case == 4:
            for z in st.sectors_below(case.gamma):
                pz = case4_ladder_exponent(sc, case.gamma, case.p, z)
                sup = max(
                    lpn_norm(sector_abs(st, fbar.levels[n], z), n, pz, sc)
                    for n in range(fbar.N + 1)
                )
                ladder.append((z, pz, sup))
        reports.append(EmbedReport(case, total[src], total[tgt], ladder))
    return reports
