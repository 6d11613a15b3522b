"""Modelled distributions, their grid-averaged counterparts, and both norms.

The continuum translation integral over h in B(0,1) is discretized into the
dyadic shells E_n = B(0, 2^-n) cap Lambda_n \\ {0}; on the unit torus the
shells start at n = 2 so that translated balls stay embedded (|h|_s <= 1/4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import subsample
from .besov import lpn_norm
from .scaling import Scaling, translation_offsets
from .structures import Model, RegularityStructure, sector_abs
from .util import lq_aggregate, tail_slope

TRANSLATION_MIN_LEVEL = 2
ROUNDOFF_REL = 1e-12  # increments below this share of the field are round-off


def _check_values(structure: RegularityStructure, gamma: float, arrays) -> None:
    """Finite values, gamma off the homogeneities, and every coefficient of a
    symbol at or above gamma zero."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("values must be finite")
    structure.check_gamma(gamma)
    for i, s in enumerate(structure.symbols):
        if s.zeta >= gamma and any(np.any(a[..., i]) for a in arrays):
            raise ValueError("coefficients above gamma must vanish")


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
        _check_values(self.structure, self.gamma, [self.values])

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
        _check_values(self.structure, self.gamma, self.levels)

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

    def translation_slope(self, zeta: float) -> float:
        """Fitted decay exponent of the raw numerator against the last five
        levels."""
        return -tail_slope(self.raw_numerators(zeta), 5, first=TRANSLATION_MIN_LEVEL)

    def rows(self):
        for z, v in sorted(self.local.items()):
            yield (z, -1, "local", v)
        for z, arr in sorted(self.translation.items()):
            for n, v in zip(self.trans_levels, arr):
                yield (z, int(n), "translation", v)
        for z, arr in sorted(self.consistency.items()):
            for n, v in enumerate(arr):
                yield (z, n, "consistency", v)


def _level_index(sc: Scaling, n: int, N: int):
    """ix_-style fine-grid indices of the Lambda_n points."""
    return np.ix_(*[np.arange(2 ** (n * si)) * 2 ** ((N - n) * si) for si in sc.s])


def _shell_steps(sc: Scaling, n: int, N: int) -> np.ndarray:
    """The offsets of E_n in fine-grid cells, shape (3^d - 1, d)."""
    return np.array(translation_offsets(sc, n)) * 2 ** ((N - n) * np.array(sc.s))


def _moved(model: Model, g: np.ndarray, m: int, N: int, x_index, steps) -> np.ndarray:
    """Gamma_{x,x+h} g(x+h) at the fine-grid targets x_index for every h in
    the stack steps (shape (*B, d), in fine cells), where g is a Lambda_m
    array and every x + h lies on Lambda_m; returns shape (*B, *P, dim)."""
    if N != model.N:
        raise ValueError(f"target level {N} differs from the model's level {model.N}")
    sc = model.scaling
    steps = np.asarray(steps)
    lead = steps.shape[:-1] + (1,) * sc.d
    src = tuple(
        ((xi + steps[..., i].reshape(lead)) % 2 ** (N * si)) // 2 ** ((N - m) * si)
        for i, (xi, si) in enumerate(zip(x_index, sc.s))
    )
    return model.gamma_apply_field(g[src], steps * 2.0 ** (-N * np.array(sc.s)), x_index)


def _moduli(st: RegularityStructure, zetas, a: np.ndarray) -> dict[float, np.ndarray]:
    """Per sector zeta: |a|_zeta, taken once for every reader of a."""
    return {z: sector_abs(st, a, z) for z in zetas}


def _shell_lq(sc: Scaling, moduli, n: int, weight, p, q) -> dict[float, float]:
    """Per sector zeta: the l^q over a shell's offsets of the L^p_n norms of
    the difference moduli[zeta] (offsets on the first axis, one row-wise
    reduction), each divided by weight(zeta)."""
    return {z: lq_aggregate(lpn_norm(m, n, p, sc) / weight(z), q) for z, m in moduli.items()}


def _level_table(zetas, rows) -> dict[float, np.ndarray]:
    """Per sector: the per-level values of rows (one dict per level) stacked."""
    return {z: np.array([r[z] for r in rows], dtype=float) for z in zetas}


def _fine_norm(f: ModelledDistribution, local_values: np.ndarray, difference, p, q) -> DNormReport:
    """Local L^p bounds of local_values plus the translation bound on Lambda_N,
    where difference(steps) stacks the differences translated by -h for the
    h in E_n, given in fine-grid cells."""
    st, sc = f.structure, f.structure.scaling
    N = f.N
    zetas = st.sectors_below(f.gamma)
    local = {z: lpn_norm(sector_abs(st, local_values, z), N, p, sc) for z in zetas}
    levels = np.arange(TRANSLATION_MIN_LEVEL, N + 1)

    def shell(n):
        hnorm = 2.0 ** (-n)
        # D[y] = f(y) - Gamma_{y, y-h} f(y-h), same l^p as the x+h form
        diffs = difference(-_shell_steps(sc, n, N))
        return _shell_lq(sc, _moduli(st, zetas, diffs), N, lambda z: hnorm ** (f.gamma - z), p, q)

    return DNormReport(f.gamma, p, q, local, _level_table(zetas, [shell(n) for n in levels]), levels)


def d_norm(f: ModelledDistribution, model: Model, p, q) -> DNormReport:
    """The modelled-distribution norm: local L^p bounds plus the dyadic-shell
    discretization of the translation bound."""
    f.structure.check_same(model.structure)
    fine = _level_index(f.structure.scaling, f.N, f.N)

    def difference(steps):
        return f.values - _moved(model, f.values, f.N, f.N, fine, steps)

    return _fine_norm(f, f.values, difference, p, q)


def dbar_norm(fbar: AveragedMD, model: Model, p, q) -> DNormReport:
    """The three bounds of the averaged space: the level-0 local bound, the
    translation terms and the consistency terms."""
    return _dbar_norms(fbar, model, [(fbar.gamma, p, q)])[0]


def _dbar_norms(fbar: AveragedMD, model: Model, norms) -> list[DNormReport]:
    """dbar_norm of fbar's levels read at every order and exponents (gamma,
    p, q) of norms: one Gamma transport per level, every norm's shell sums
    taken from the same difference stack."""
    fbar.structure.check_same(model.structure)
    st, sc = fbar.structure, fbar.structure.scaling
    N, lv = fbar.N, fbar.levels
    specs = [(st.sectors_below(g), g, p, q) for g, p, q in norms]
    sectors = sorted({z for zetas, *_ in specs for z in zetas})
    trans, cons = [[] for _ in specs], [[] for _ in specs]
    for n in np.arange(N + 1):
        if n < N:
            mod = _moduli(st, sectors, lv[n] - subsample(lv[n + 1], sc, n + 1, n))
            for rows, (zetas, g, p, _) in zip(cons, specs):
                rows.append({z: lpn_norm(mod[z], n, p, sc) / 2.0 ** (-n * (g - z)) for z in zetas})
        if n >= TRANSLATION_MIN_LEVEL:
            steps = -_shell_steps(sc, n, N)
            diffs = lv[n] - _moved(model, lv[n], n, N, _level_index(sc, n, N), steps)
            mod = _moduli(st, sectors, diffs)
            for rows, (zetas, g, p, q) in zip(trans, specs):
                shells = {z: mod[z] for z in zetas}
                rows.append(_shell_lq(sc, shells, n, lambda z: 2.0 ** (-n * (g - z)), p, q))
    levels = np.arange(TRANSLATION_MIN_LEVEL, N + 1)
    return [
        DNormReport(
            g,
            p,
            q,
            {z: lpn_norm(sector_abs(st, lv[0], z), 0, p, sc) for z in zetas},
            _level_table(zetas, t),
            levels,
            _level_table(zetas, c),
        )
        for (zetas, g, p, q), t, c in zip(specs, trans, cons)
    ]


def average(f: ModelledDistribution, model: Model) -> AveragedMD:
    """Ball averages of Gamma_{x,y} f(y) over y in the closed grid ball
    B(x, 2^-n): the mean over its 2^{(N-n)s_i+1} + 1 offsets per axis.  Where
    the radius reaches half the period an offset wraps onto a torus point
    again, which then weighs more (at n = 0 each point counts twice and x
    itself three times); the level-N map is f itself."""
    f.structure.check_same(model.structure)
    st, sc = f.structure, f.structure.scaling
    N = f.N
    levels: list[np.ndarray] = [None] * (N + 1)
    levels[N] = f.values.copy()
    for n in range(N):
        radii = np.array([2 ** ((N - n) * si) for si in sc.s])
        offsets = np.indices(2 * radii + 1).reshape(sc.d, -1).T - radii
        moved = _moved(model, f.values, N, N, _level_index(sc, n, N), offsets)
        levels[n] = moved.sum(axis=0) / len(offsets)
    return AveragedMD(st, f.gamma, N, levels)


@dataclass
class UnaverageReport:
    increments: dict[float, np.ndarray]  # ||f_{n+1} - f_n||_{L^p} per sector
    slopes: dict[float, float]


def unaverage(
    fbar: AveragedMD, model: Model, p=2.0
) -> tuple[ModelledDistribution, UnaverageReport]:
    """Transport the averages back to the finest grid: f_n(x) =
    Gamma_{x, x_n} fbar^(n)(x_n); returns f_N and the convergence report,
    whose slopes are fitted over the last four increments."""
    fbar.structure.check_same(model.structure)
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
                increments[z][n - 1] = lpn_norm(sector_abs(st, diff, z), N, p, sc)
        prev = f_n
    # increments at round-off of the field carry no rate: NaN, not a slope
    field_lp = max((lpn_norm(sector_abs(st, f_n, z), N, p, sc) for z in zetas), default=0.0)
    floor = ROUNDOFF_REL * field_lp
    slopes = {z: -tail_slope(increments[z], 4, floor=floor) for z in zetas}
    return ModelledDistribution(st, fbar.gamma, N, f_n), UnaverageReport(
        increments, slopes
    )


def _transport_to_fine(fbar: AveragedMD, model: Model, n: int) -> np.ndarray:
    """f_n on Lambda_N: Gamma_{x, x_n} fbar^(n)(x_n), x_n nearest in Lambda_n."""
    st, sc = fbar.structure, fbar.structure.scaling
    N = fbar.N
    strides = [2 ** ((N - n) * si) for si in sc.s]
    # residue classes r of the fine points x = j * stride + r, shape (*strides, d)
    rem = np.moveaxis(np.indices(strides), 0, -1)
    # step = x_n - x in fine cells (source minus target), half-up ties
    step = np.floor(rem / strides + 0.5).astype(int) * strides - rem
    lead = (*strides, *(1,) * sc.d)
    x_index = tuple(
        xi + rem[..., i].reshape(lead) for i, xi in enumerate(_level_index(sc, n, N))
    )
    moved = _moved(model, fbar.levels[n], n, N, x_index, step)  # (*strides, *Lambda_n, dim)
    # interleave: fine axis i is (level-n index, residue) with the residue fastest
    d = sc.d
    order = [ax for i in range(d) for ax in (d + i, i)] + [2 * d]
    return moved.transpose(order).reshape(*sc.grid_shape(N), st.dim)


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
    f.structure.check_same(model.structure, f2.structure, model2.structure)
    if f2.gamma != f.gamma or f2.N != f.N:
        raise ValueError("order or resolution mismatch")

    fine = _level_index(f.structure.scaling, f.N, f.N)

    def difference(steps):
        return (
            f.values
            - f2.values
            - _moved(model, f.values, f.N, f.N, fine, steps)
            + _moved(model2, f2.values, f.N, f.N, fine, steps)
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
    """Verify sup_n ||fbar^(n)|_zeta||_{l^p_n} <= level-0 bound + K * combined,
    where the combined-shell term compares fbar^(n)(x) with Gamma_{x,x+h}
    fbar^(n+1)(x+h) for h = 0 and h over E_{n+1}."""
    fbar.structure.check_same(model.structure)
    st, sc = fbar.structure, fbar.structure.scaling
    N, gamma, lv = fbar.N, fbar.gamma, fbar.levels
    zetas = st.sectors_below(gamma)
    local = {z: lpn_norm(sector_abs(st, lv[0], z), 0, p, sc) for z in zetas}
    sup_lv = {
        z: max(
            lpn_norm(sector_abs(st, fbar.levels[n], z), n, p, sc)
            for n in range(fbar.N + 1)
        )
        for z in zetas
    }

    def shell(n):
        steps = np.concatenate([np.zeros((1, sc.d), int), _shell_steps(sc, n + 1, N)])
        diffs = lv[n] - _moved(model, lv[n + 1], n + 1, N, _level_index(sc, n, N), steps)
        return _shell_lq(sc, _moduli(st, zetas, diffs), n, lambda z: 2.0 ** (-n * (gamma - z)), p, q)

    table = _level_table(zetas, [shell(n) for n in np.arange(N)])
    combined = {z: lq_aggregate(table[z], q) for z in zetas}
    K = {}
    for z in zetas:
        excess = sup_lv[z] - local[z]
        if excess <= 0:
            K[z] = 0.0
        else:
            K[z] = np.inf if combined[z] == 0 else excess / combined[z]
    return PropagationReport(sup_lv, local, combined, K)
