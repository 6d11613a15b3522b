"""Modelled distributions, their grid-averaged counterparts, and both norms.

The continuum translation integral over h in B(0,1) is discretized into the
dyadic shells E_n = B(0, 2^-n) cap Lambda_n \\ {0}; on the unit torus the
shells start at n = 2 so that translated balls stay embedded (|h|_s <= 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .analysis import subsample
from .scaling import Scaling, translation_offsets
from .structures import Model, RegularityStructure, sector_abs
from .util import fit_log2_slope, lq_aggregate, weighted_lp

TRANSLATION_MIN_LEVEL = 2
ROUNDOFF_REL = 1e-12  # increments below this share of the field are round-off


@dataclass
class ModelledDistribution:
    """Map from the finest grid into T_{<gamma}: values[..., sym]."""

    structure: RegularityStructure
    gamma: float
    N: int
    values: np.ndarray

    def __post_init__(self):
        sc = self.structure.scaling
        if self.values.shape != (*sc.grid_shape(self.N), self.structure.dim):
            raise ValueError("value array shape mismatch")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        self.structure.check_gamma(self.gamma)
        for i, s in enumerate(self.structure.symbols):
            if s.zeta >= self.gamma and np.any(self.values[..., i]):
                raise ValueError("coefficients above gamma must vanish")

    def copy(self) -> "ModelledDistribution":
        return ModelledDistribution(self.structure, self.gamma, self.N, self.values.copy())

    def scaled(self, c: float) -> "ModelledDistribution":
        return ModelledDistribution(self.structure, self.gamma, self.N, c * self.values)

    def plus(self, other: "ModelledDistribution") -> "ModelledDistribution":
        return ModelledDistribution(
            self.structure, self.gamma, self.N, self.values + other.values
        )

    def restrict(self, gamma_prime: float) -> "ModelledDistribution":
        """Projection to T_{<gamma'}; gamma' must avoid the homogeneities."""
        vals = self.values.copy()
        for i, s in enumerate(self.structure.symbols):
            if s.zeta >= gamma_prime:
                vals[..., i] = 0.0
        return ModelledDistribution(self.structure, gamma_prime, self.N, vals)


@dataclass
class AveragedMD:
    """Per-level maps fbar^(n): Lambda_n -> T_{<gamma}, n = 0..N."""

    structure: RegularityStructure
    gamma: float
    N: int
    levels: list[np.ndarray]

    def __post_init__(self):
        sc = self.structure.scaling
        if len(self.levels) != self.N + 1:
            raise ValueError("need one map per level 0..N")
        for n, lv in enumerate(self.levels):
            if lv.shape != (*sc.grid_shape(n), self.structure.dim):
                raise ValueError(f"level {n} shape mismatch")

    def restrict(self, gamma_prime: float) -> "AveragedMD":
        levels = [lv.copy() for lv in self.levels]
        for i, s in enumerate(self.structure.symbols):
            if s.zeta >= gamma_prime:
                for lv in levels:
                    lv[..., i] = 0.0
        return AveragedMD(self.structure, gamma_prime, self.N, levels)


@dataclass
class DNormReport:
    """Per-sector local bounds, per-(sector, level) translation terms, and,
    for averaged distributions, consistency terms; aggregate is their sum."""

    gamma: float
    p: float
    q: float
    local: dict[float, float]
    translation: dict[float, np.ndarray]
    trans_levels: np.ndarray
    consistency: dict[float, np.ndarray] = field(default_factory=dict)
    combined: dict[float, np.ndarray] = field(default_factory=dict)

    @property
    def total(self) -> float:
        tot = sum(self.local.values())
        for arr in self.translation.values():
            tot += lq_aggregate(arr, self.q)
        for arr in self.consistency.values():
            tot += lq_aggregate(arr, self.q)
        return tot

    def raw_numerators(self, zeta: float) -> np.ndarray:
        """Translation numerators with the 2^{-n(gamma-zeta)} weight undone."""
        return self.translation[zeta] * 2.0 ** (
            -self.trans_levels * (self.gamma - zeta)
        )

    def translation_slope(self, zeta: float, last: int = 5) -> float:
        """Fitted decay exponent of the raw numerator against the level."""
        vals = self.raw_numerators(zeta)
        ns = self.trans_levels
        lo = max(0, len(ns) - last)
        return -fit_log2_slope(ns[lo:], vals[lo:])

    def rows(self):
        for z, v in sorted(self.local.items()):
            yield (z, -1, "local", v)
        for z, arr in sorted(self.translation.items()):
            for n, v in zip(self.trans_levels, arr):
                yield (z, int(n), "translation", v)
        for z, arr in sorted(self.consistency.items()):
            for n, v in enumerate(arr):
                yield (z, n, "consistency", v)


def _lp_grid(arr: np.ndarray, n: int, p, scaling: Scaling) -> float:
    return weighted_lp(arr, 2.0 ** (-n * scaling.total), p)


def shift_plus(values: np.ndarray, steps: tuple[int, ...]) -> np.ndarray:
    """out[idx] = values[idx + steps] (periodic), steps in grid units."""
    out = values
    for ax, st in enumerate(steps):
        if st:
            out = np.roll(out, -st, axis=ax)
    return out


def _level_index(sc: Scaling, n: int, N: int):
    """ix_-style fine-grid indices of the Lambda_n points."""
    return np.ix_(
        *[
            np.arange(2 ** (n * si)) * 2 ** ((N - n) * si)
            for si in sc.s
        ]
    )


def _shell_lq(st: RegularityStructure, zetas, diffs, n: int, weight, p, q) -> dict[float, float]:
    """Per sector zeta: the l^q over a shell's offsets of the L^p_n norms of
    its difference arrays, each divided by weight(zeta)."""
    acc = {z: [] for z in zetas}
    for diff in diffs:
        for z in zetas:
            acc[z].append(_lp_grid(sector_abs(st, diff, z), n, p, st.scaling) / weight(z))
    return {z: lq_aggregate(acc[z], q) for z in zetas}


def _level_table(zetas, levels, per_level) -> dict[float, np.ndarray]:
    """Per sector: the values of per_level(n) stacked over the levels."""
    rows = [per_level(n) for n in levels]
    return {z: np.array([r[z] for r in rows], dtype=float) for z in zetas}


def _fine_norm(f: ModelledDistribution, local_values: np.ndarray, difference, p, q) -> DNormReport:
    """Local L^p bounds of local_values plus the translation bound on Lambda_N,
    where difference(steps, delta) is the difference translated by -h for an
    h in E_n, given as fine-grid shifts and as a real displacement."""
    st, sc = f.structure, f.structure.scaling
    N = f.N
    zetas = st.sectors_below(f.gamma)
    local = {z: _lp_grid(sector_abs(st, local_values, z), N, p, sc) for z in zetas}
    levels = np.arange(TRANSLATION_MIN_LEVEL, N + 1)

    def shell(n):
        hnorm = 2.0 ** (-n)
        # D[y] = f(y) - Gamma_{y, y-h} f(y-h), same l^p as the x+h form
        diffs = (
            difference(
                tuple(-hi * 2 ** ((N - n) * si) for hi, si in zip(h, sc.s)),
                np.array([-hi * 2.0 ** (-n * si) for hi, si in zip(h, sc.s)]),
            )
            for h in translation_offsets(sc, n)
        )
        return _shell_lq(st, zetas, diffs, N, lambda z: hnorm ** (f.gamma - z), p, q)

    return DNormReport(f.gamma, p, q, local, _level_table(zetas, levels, shell), levels)


def d_norm(f: ModelledDistribution, model: Model, p, q) -> DNormReport:
    """The modelled-distribution norm: local L^p bounds plus the dyadic-shell
    discretization of the translation bound."""

    def difference(steps, delta):
        return f.values - model.gamma_apply_field(shift_plus(f.values, steps), delta)

    return _fine_norm(f, f.values, difference, p, q)


def dbar_norm(fbar: AveragedMD, model: Model, p, q) -> DNormReport:
    """The three bounds of the averaged space plus the combined-shell term."""
    st, sc = fbar.structure, fbar.structure.scaling
    N, gamma, lv = fbar.N, fbar.gamma, fbar.levels
    zetas = st.sectors_below(gamma)
    local = {z: _lp_grid(sector_abs(st, lv[0], z), 0, p, sc) for z in zetas}

    def translation(n):
        x_index = _level_index(sc, n, N)
        diffs = (
            lv[n]
            - model.gamma_apply_field(
                shift_plus(lv[n], tuple(-hi for hi in h)),
                np.array([-hi * 2.0 ** (-n * si) for hi, si in zip(h, sc.s)]),
                x_index,
            )
            for h in translation_offsets(sc, n)
        )
        return _shell_lq(st, zetas, diffs, n, lambda z: 2.0 ** (-n * (gamma - z)), p, q)

    def consistency(n):
        diff = lv[n] - subsample(lv[n + 1], sc, n + 1, n)
        return {
            z: _lp_grid(sector_abs(st, diff, z), n, p, sc) / 2.0 ** (-n * (gamma - z))
            for z in zetas
        }

    def combined(n):
        # fbar^(n)(x) - Gamma_{x,x+h} fbar^(n+1)(x+h) with h over E_{n+1}
        # plus h = 0 (the consistency term itself)
        x_index = _level_index(sc, n, N)
        diffs = (
            lv[n]
            - model.gamma_apply_field(
                subsample(shift_plus(lv[n + 1], h), sc, n + 1, n),
                np.array([hi * 2.0 ** (-(n + 1) * si) for hi, si in zip(h, sc.s)]),
                x_index,
            )
            for h in [(0,) * sc.d] + translation_offsets(sc, n + 1)
        )
        return _shell_lq(st, zetas, diffs, n, lambda z: 2.0 ** (-n * (gamma - z)), p, q)

    levels, cons_levels = np.arange(TRANSLATION_MIN_LEVEL, N + 1), np.arange(0, N)
    trans = _level_table(zetas, levels, translation)
    cons = _level_table(zetas, cons_levels, consistency)
    comb = _level_table(zetas, cons_levels, combined)
    return DNormReport(gamma, p, q, local, trans, levels, cons, comb)


def average(f: ModelledDistribution, model: Model) -> AveragedMD:
    """Ball averages of Gamma_{x,y} f(y) over y in the closed grid ball
    B(x, 2^-n), uniform weights; the level-N map is f itself."""
    st, sc = f.structure, f.structure.scaling
    N = f.N
    levels: list[np.ndarray] = [None] * (N + 1)
    levels[N] = f.values.copy()
    size = sc.grid_shape(N)
    for n in range(N):
        shape_n = sc.grid_shape(n)
        radii = [2 ** ((N - n) * si) for si in sc.s]
        x_index = _level_index(sc, n, N)
        acc = np.zeros((*shape_n, st.dim))
        count = 0
        for off in product(*[range(-r, r + 1) for r in radii]):
            idx = tuple((x_index[i] + off[i]) % size[i] for i in range(sc.d))
            vals = f.values[idx]
            delta = np.array([off[i] * 2.0 ** (-N * sc.s[i]) for i in range(sc.d)])
            acc += model.gamma_apply_field(vals, delta, x_index)
            count += 1
        levels[n] = acc / count
    return AveragedMD(st, f.gamma, N, levels)


@dataclass
class UnaverageReport:
    increments: dict[float, np.ndarray]  # ||f_{n+1} - f_n||_{L^p} per sector
    slopes: dict[float, float]


def unaverage(
    fbar: AveragedMD, model: Model, p=2.0, fit_last: int = 4
) -> tuple[ModelledDistribution, UnaverageReport]:
    """Transport the averages back to the finest grid: f_n(x) =
    Gamma_{x, x_n} fbar^(n)(x_n); returns f_N and the convergence report."""
    st, sc = fbar.structure, fbar.structure.scaling
    N = fbar.N
    zetas = st.sectors_below(fbar.gamma)
    prev = None
    increments = {z: np.zeros(N) for z in zetas}
    f_n = None
    for n in range(N + 1):
        f_n = _transport_to_fine(fbar, model, n)
        if prev is not None:
            diff = f_n - prev
            for z in zetas:
                increments[z][n - 1] = _lp_grid(sector_abs(st, diff, z), N, p, sc)
        prev = f_n
    # increments at round-off of the field carry no rate: NaN, not a slope
    field_lp = max((_lp_grid(sector_abs(st, f_n, z), N, p, sc) for z in zetas), default=0.0)
    floor = ROUNDOFF_REL * field_lp
    slopes = {}
    for z in zetas:
        ns = np.arange(N)
        lo = max(0, N - fit_last)
        inc = increments[z][lo:]
        if float(inc.max(initial=0.0)) <= floor:
            slopes[z] = float("nan")
        else:
            slopes[z] = -fit_log2_slope(ns[lo:], inc)
    return ModelledDistribution(st, fbar.gamma, N, f_n), UnaverageReport(
        increments, slopes
    )


def _transport_to_fine(fbar: AveragedMD, model: Model, n: int) -> np.ndarray:
    """f_n on Lambda_N: Gamma_{x, x_n} fbar^(n)(x_n), x_n nearest in Lambda_n."""
    st, sc = fbar.structure, fbar.structure.scaling
    N = fbar.N
    out = np.zeros((*sc.grid_shape(N), st.dim))
    strides = [2 ** ((N - n) * si) for si in sc.s]
    shape_n = sc.grid_shape(n)
    size = sc.grid_shape(N)
    for rem in product(*[range(s) for s in strides]):
        near = [int(np.floor(rem[i] / strides[i] + 0.5)) for i in range(sc.d)]
        # delta = x_n - x in real coordinates (source minus target)
        delta = np.array(
            [(near[i] * strides[i] - rem[i]) * 2.0 ** (-N * sc.s[i]) for i in range(sc.d)]
        )
        src_idx = np.ix_(
            *[(np.arange(shape_n[i]) + near[i]) % shape_n[i] for i in range(sc.d)]
        )
        vals = fbar.levels[n][src_idx]
        x_index = np.ix_(
            *[
                (np.arange(shape_n[i]) * strides[i] + rem[i]) % size[i]
                for i in range(sc.d)
            ]
        )
        moved = model.gamma_apply_field(vals, delta, x_index)
        sl = tuple(slice(rem[i], None, strides[i]) for i in range(sc.d))
        out[sl] = moved
    return out


def md_distance(
    f: ModelledDistribution,
    model: Model,
    f2: ModelledDistribution,
    model2: Model,
    p,
    q,
) -> DNormReport:
    """Two-model distance: local difference plus the mixed translation bound
    with each distribution transported by its own model."""
    if f2.structure.dim != f.structure.dim:
        raise ValueError("structure mismatch")
    if f2.gamma != f.gamma or f2.N != f.N:
        raise ValueError("order or resolution mismatch")

    def difference(steps, delta):
        return (
            f.values
            - f2.values
            - model.gamma_apply_field(shift_plus(f.values, steps), delta)
            + model2.gamma_apply_field(shift_plus(f2.values, steps), delta)
        )

    return _fine_norm(f, f.values - f2.values, difference, p, q)


@dataclass
class PropagationReport:
    sup_levels: dict[float, float]
    local0: dict[float, float]
    combined: dict[float, float]
    required_K: dict[float, float]

    def max_K(self) -> float:
        return max(self.required_K.values(), default=0.0)


def check_local_propagation(fbar: AveragedMD, model: Model, p, q) -> PropagationReport:
    """Verify sup_n ||fbar^(n)|_zeta||_{l^p_n} <= level-0 bound + K * combined."""
    st, sc = fbar.structure, fbar.structure.scaling
    rep = dbar_norm(fbar, model, p, q)
    zetas = st.sectors_below(fbar.gamma)
    sup_lv = {
        z: max(
            _lp_grid(sector_abs(st, fbar.levels[n], z), n, p, sc)
            for n in range(fbar.N + 1)
        )
        for z in zetas
    }
    combined = {z: lq_aggregate(rep.combined[z], q) for z in zetas}
    K = {}
    for z in zetas:
        excess = sup_lv[z] - rep.local[z]
        if excess <= 0:
            K[z] = 0.0
        else:
            K[z] = np.inf if combined[z] == 0 else excess / combined[z]
    return PropagationReport(sup_lv, rep.local, combined, K)
