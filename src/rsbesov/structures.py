"""Regularity structures and models.

A structure is a graded basis of symbols; a model realises symbols as
distributions (Pi) and re-expands coefficients between base points (Gamma,
stored as dense lower-triangular matrices in the homogeneity grading).
Polynomial pairings are computed exactly from scaling-function moments;
abstract symbols are backed by coefficient pyramids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import mra
# profile_kernel is unused here but stays bound: perfbench/spans.py traces it
from .besov import Profile, TestDictionary, profile_kernel  # noqa: F401
from .pyramid import CoeffPyramid
from .scaling import Scaling, wrap_displacement
from .util import multi_binom


# How close an order parameter may come to a homogeneity (`check_gamma`).
HOMOGENEITY_TOL = 1e-9


@dataclass(frozen=True)
class Symbol:
    name: str
    zeta: float
    kind: str  # "poly" | "abstract"
    k: tuple[int, ...] | None = None


class RegularityStructure:
    """Ordered graded basis with homogeneities bounded below.

    The polynomial sector contributes every natural number to the
    homogeneities, whatever the truncation, so an order parameter must stay
    HOMOGENEITY_TOL away from every natural number and from every symbol's
    homogeneity (`check_gamma`).
    """

    def __init__(self, symbols: list[Symbol], scaling: Scaling):
        self.scaling = scaling
        self.symbols = sorted(symbols, key=lambda s: (s.zeta, s.kind, s.name))
        self.dim = len(self.symbols)
        self.homogeneities = sorted({s.zeta for s in self.symbols})
        self._by_name = {s.name: i for i, s in enumerate(self.symbols)}
        if len(self._by_name) != self.dim:
            raise ValueError("duplicate symbol names")

    def index(self, name: str) -> int:
        return self._by_name[name]

    def sector(self, zeta: float) -> list[int]:
        return [i for i, s in enumerate(self.symbols) if s.zeta == zeta]

    def sectors_below(self, gamma: float) -> list[float]:
        return [z for z in self.homogeneities if z < gamma]

    def poly_indices(self) -> list[int]:
        return [i for i, s in enumerate(self.symbols) if s.kind == "poly"]

    def check_gamma(self, gamma: float) -> None:
        if not math.isfinite(gamma):
            raise ValueError(f"gamma={gamma} must be finite")
        natural = max(0.0, float(round(gamma)))
        if any(abs(gamma - z) < HOMOGENEITY_TOL for z in [natural, *self.homogeneities]):
            raise ValueError(f"gamma={gamma} coincides with a homogeneity")

    def check_same(self, *others: "RegularityStructure") -> None:
        """Data and models must share one structure: the same symbols and
        scaling, compared by value."""
        if any(o.symbols != self.symbols or o.scaling != self.scaling for o in others):
            raise ValueError("data and model live on different regularity structures")


def poly_name(k) -> str:
    """Symbol name of the monomial X^k."""
    return "1" if not any(k) else "X^" + ",".join(map(str, k))


def polynomial_symbols(scaling: Scaling, gamma: float) -> list[Symbol]:
    return [
        Symbol(poly_name(k), float(scaling.scaled_degree(k)), "poly", tuple(k))
        for k in scaling.multi_indices_below(gamma)
    ]


class Model:
    """Base model: Gamma from nearest-image displacements, Pi per symbol."""

    def __init__(self, structure: RegularityStructure, fam: mra.WaveletFamily, N: int):
        self.structure = structure
        self.scaling = structure.scaling
        self.fam = fam
        self.N = N
        self._profile_cache: dict = {}

    # -- Gamma ------------------------------------------------------------
    def gamma(self, x, y) -> np.ndarray:
        """Gamma_{x,y}: re-expansion from base point y to base point x, the
        field action on the identity basis at x."""
        x = np.asarray(x, dtype=float)
        dim = self.structure.dim
        x_index = tuple(
            np.full(dim, i) for i in self.scaling.nearest_grid_index(x, self.N)
        )
        return self.gamma_apply_field(np.eye(dim), np.asarray(y) - x, x_index).T

    def gamma_apply_field(self, vals: np.ndarray, delta, x_index) -> np.ndarray:
        """Apply Gamma_{x, x+delta} to vals, where vals[b, idx] = f(x_idx + delta[b]).

        delta has shape (*B, d), one displacement (source - target) per
        leading index b of vals, shape (*B, *P, dim); idx runs over the
        target points P.  x_index (per-axis fine-grid indices, broadcasting
        against (*B, *P)) only matters for position-dependent models;
        translation-invariant models apply one matrix per displacement.
        """
        delta = np.asarray(delta, dtype=float)
        M = self._gamma_matrix(wrap_displacement(-delta))
        B, dim = delta.shape[:-1], self.structure.dim
        return (vals.reshape(*B, -1, dim) @ np.swapaxes(M, -1, -2)).reshape(vals.shape)

    def _gamma_matrix(self, delta: np.ndarray) -> np.ndarray:
        """Identity plus Gamma X^k = sum_{l<=k} binom(k,l) delta^{k-l} X^l,
        one matrix per leading index of delta (shape (*B, d))."""
        st = self.structure
        delta = np.asarray(delta)
        M = np.broadcast_to(np.eye(st.dim), (*delta.shape[:-1], st.dim, st.dim)).copy()
        for kidx in st.poly_indices():
            k = st.symbols[kidx].k
            for lidx in st.poly_indices():
                l = st.symbols[lidx].k
                if all(a <= b for a, b in zip(l, k)):
                    diff = tuple(b - a for a, b in zip(l, k))
                    M[..., lidx, kidx] = multi_binom(k, l) * np.prod(
                        delta ** np.asarray(diff), axis=-1
                    )
        return M

    # -- Pi ---------------------------------------------------------------
    def poly_father_pairing(self, k: tuple[int, ...], n: int, delta):
        """<(. - x)^k, phi^n_z> on the cover, delta = z - x (coordinates on
        the last axis).

        Exact via father moments: per dimension
        2^{-n s (k+1/2)} sum_b binom(k,b) (2^{n s} delta)^(k-b) M_b.
        """
        fam, sc = self.fam, self.scaling
        out = 1.0
        for i, si in enumerate(sc.s):
            ki = k[i]
            scale = 2.0 ** (n * si)
            di = np.asarray(delta)[..., i]
            acc = 0.0
            for b in range(ki + 1):
                acc += (
                    math.comb(ki, b)
                    * (scale * di) ** (ki - b)
                    * fam.father_moments[b]
                )
            out = out * (2.0 ** (-n * si * (ki + 0.5)) * acc)
        return out

    def pi_center_weights(self, n: int) -> list:
        """Per symbol: <Pi_x tau, phi^n_x> as a Lambda_n array, the father
        pairing at the centre z = x."""
        pts = self.scaling.grid_points(n)
        idx = tuple(np.indices(self.scaling.grid_shape(n)))
        return [self.pi_father_point(i, n, pts, pts, idx) for i in range(self.structure.dim)]

    def pi_father_point(self, sym: int, n: int, x, z, z_idx):
        """<Pi_x tau, phi^n_z> at Lambda_n points z (indices z_idx), with x and
        z points or arrays of points (last axis the coordinates)."""
        delta = wrap_displacement(np.asarray(z) - np.asarray(x))
        return self.poly_father_pairing(self.structure.symbols[sym].k, n, delta)

    def pi_profile_table(self, sym: int, scale_n: int, profile: Profile) -> np.ndarray | float:
        """<Pi_x tau, eta^lambda_x> for all x on Lambda_N (or a scalar)."""
        return self.poly_profile_moment(self.structure.symbols[sym].k, scale_n, profile)

    def _profile_corr(self, cN: np.ndarray, scale_n: int, profile: Profile, tag) -> np.ndarray:
        key = (tag, scale_n, profile.name)
        if key not in self._profile_cache:
            k = profile.kernel_coeffs(self.fam, self.scaling, scale_n, self.N)
            self._profile_cache[key] = an.correlate(cN, k)
        return self._profile_cache[key]

    def poly_profile_moment(self, k: tuple[int, ...], scale_n: int, profile: Profile) -> float:
        """<(. - x)^k, eta^lambda_x> = lambda^{|k|_s} * prod moments."""
        lam = 2.0 ** (-scale_n)
        out = lam ** self.scaling.scaled_degree(k)
        for ki in k:
            out *= profile.moment(ki)
        return out


class PolynomialModel(Model):
    """Pi_x X^k = (. - x)^k, Gamma the translation action."""


class NoiseModel(Model):
    """One abstract symbol Xi realised by a fixed coefficient pyramid."""

    def __init__(self, structure, fam, xi: CoeffPyramid, alpha: float):
        super().__init__(structure, fam, xi.N)
        self.alpha = alpha
        self.xi = xi
        self.xi_levels = mra.all_level_coefficients(xi, fam)
        self.xi_index = structure.index("Xi")

    def pi_father_point(self, sym, n, x, z, z_idx):
        if sym == self.xi_index:
            return self.xi_levels[n][z_idx]
        return super().pi_father_point(sym, n, x, z, z_idx)

    def pi_profile_table(self, sym, scale_n, profile):
        if sym == self.xi_index:
            return self._profile_corr(self.xi_levels[self.N], scale_n, profile, "xi")
        return super().pi_profile_table(sym, scale_n, profile)


def build_structure(
    gamma: float, scaling: Scaling, alpha: float | None = None, beta: float | None = None
) -> RegularityStructure:
    """The polynomial symbols below gamma; with alpha, one noise symbol Xi at
    alpha < 0 <= gamma; with beta as well, its integral IXi at alpha + beta.
    gamma must avoid the homogeneities (`check_gamma`)."""
    if alpha is None and gamma <= 0:
        raise ValueError("gamma must be positive")
    if alpha is not None and not (alpha < 0 <= gamma):
        raise ValueError("need alpha < 0 <= gamma")
    abstract = [] if alpha is None else [Symbol("Xi", alpha, "abstract")]
    if beta is not None:
        abstract.append(Symbol("IXi", alpha + beta, "abstract"))
    # checked before the polynomial symbols are listed, which needs a finite
    # gamma; their homogeneities are natural numbers, which check_gamma covers
    RegularityStructure(abstract, scaling).check_gamma(gamma)
    return RegularityStructure(polynomial_symbols(scaling, gamma) + abstract, scaling)


def polynomial_structure(
    gamma: float, scaling: Scaling, fam: mra.WaveletFamily, N: int
):
    """The polynomial structure up to order gamma with its canonical model."""
    st = build_structure(gamma, scaling)
    return st, PolynomialModel(st, fam, N)


def noise_structure(
    alpha: float, xi: CoeffPyramid, gamma: float, fam: mra.WaveletFamily
):
    """Polynomial symbols plus one noise symbol Xi at homogeneity alpha < 0."""
    st = build_structure(gamma, xi.scaling, alpha)
    return st, NoiseModel(st, fam, xi, alpha)


# ---------------------------------------------------------------------------
# norms and validation


@dataclass
class ModelNorms:
    pi: float
    gamma: float
    pi_table: list = field(default_factory=list)


def sector_abs(structure: RegularityStructure, vec: np.ndarray, zeta: float) -> np.ndarray:
    """|tau|_zeta: max modulus of the coefficients in the zeta sector."""
    idx = structure.sector(zeta)
    return np.max(np.abs(vec[..., idx]), axis=-1)


def _gamma_sweep(model: Model, gamma: float, bases, matrix) -> float:
    """sup |matrix(x, y) tau|_beta / ||x-y||^{zeta-beta} over beta < zeta,
    the base points x and the grid displacements x - y of levels 1 to 3."""
    st = model.structure
    sc = model.scaling
    worst = 0.0
    zs = st.sectors_below(gamma)
    for m in range(1, min(3, model.N) + 1):
        pts = sc.grid_points(m).reshape(-1, sc.d)
        for delta in pts:
            dn = sc.snorm(delta)
            if dn == 0.0 or dn > 0.5:
                continue
            for x in bases:
                y = (x - wrap_displacement(delta)) % 1.0
                M = matrix(x, y)
                for zi, z in enumerate(zs):
                    for tau in st.sector(z):
                        col = M[:, tau]
                        for b in zs[:zi]:
                            v = float(np.max(np.abs(col[st.sector(b)])))
                            worst = max(worst, v / dn ** (z - b))
    return worst


def gamma_norm(model: Model, gamma: float) -> float:
    """||Gamma|| over grid pairs.

    Shipped models are translation-invariant up to the extension corrections,
    so three base points (0 and two seeded grid points) suffice alongside the
    displacement sweep.
    """
    sc = model.scaling
    rng = np.random.default_rng(0)
    shape = sc.grid_shape(model.N)
    bases = [np.zeros(sc.d)] + [
        np.array([rng.integers(0, shape[i]) / shape[i] for i in range(sc.d)])
        for _ in range(2)
    ]
    return _gamma_sweep(model, gamma, bases, model.gamma)


def _pi_sweep(model: Model, gamma: float, dictionary: TestDictionary, table) -> tuple[float, list]:
    """sup |table(sym, n, profile)| / lambda^zeta over the dictionary scales
    n <= N - 2, its profiles and the symbols below gamma, with the table."""
    worst = 0.0
    rows = []
    for n in dictionary.scales:
        if n > model.N - 2:
            continue
        lam = 2.0 ** (-n)
        for prof in dictionary.profiles:
            for i, s in enumerate(model.structure.symbols):
                if s.zeta >= gamma:
                    continue
                ratio = float(np.max(np.abs(table(i, n, prof)))) / lam**s.zeta
                rows.append((n, prof.name, s.name, ratio))
                worst = max(worst, ratio)
    return worst, rows


def model_norms(model: Model, gamma: float, dictionary: TestDictionary) -> ModelNorms:
    """Finite-dictionary, dyadic-scale evaluation of ||Pi|| and ||Gamma||."""
    pi, rows = _pi_sweep(model, gamma, dictionary, model.pi_profile_table)
    return ModelNorms(pi, gamma_norm(model, gamma), rows)


def model_distance(
    model: Model, model2: Model, gamma: float, dictionary: TestDictionary
) -> ModelNorms:
    """||Pi - Pi'|| and ||Gamma - Gamma'||, swept like `model_norms` (Gamma
    from the base point 0 only)."""

    def pi_diff(i, n, prof):
        return model.pi_profile_table(i, n, prof) - model2.pi_profile_table(i, n, prof)

    def gamma_diff(x, y):
        return model.gamma(x, y) - model2.gamma(x, y)

    pi, rows = _pi_sweep(model, gamma, dictionary, pi_diff)
    return ModelNorms(pi, _gamma_sweep(model, gamma, [np.zeros(model.scaling.d)], gamma_diff), rows)


@dataclass
class ValidationReport:
    triangularity: float
    group_law: float
    identity: float
    compatibility: float

    @property
    def max_violation(self) -> float:
        return max(self.triangularity, self.group_law, self.identity, self.compatibility)

    def valid(self, tol: float = 1e-8) -> bool:
        return self.max_violation <= tol


def validate_model(
    model: Model,
    gamma: float,
    n_samples: int = 200,
) -> ValidationReport:
    """Check triangularity, the group laws, and Pi_x Gamma_{x,y} = Pi_y on
    seeded nearby triples (displacements within the s-radius 1/8)."""
    st, sc = model.structure, model.scaling
    rng = np.random.default_rng(0)
    N = model.N
    zetas = [s.zeta for s in st.symbols]

    tri = 0.0
    grp = 0.0
    idm = 0.0
    compat = 0.0
    shape = sc.grid_shape(N)

    def rand_point():
        return np.array([rng.integers(0, shape[i]) / shape[i] for i in range(sc.d)])

    def rand_disp():
        lim = [max(1, int((1.0 / 8.0) ** sc.s[i] * shape[i])) for i in range(sc.d)]
        return np.array(
            [rng.integers(-lim[i], lim[i] + 1) / shape[i] for i in range(sc.d)]
        )

    for _ in range(n_samples):
        x = rand_point()
        y = (x + rand_disp()) % 1.0
        z = (y + rand_disp()) % 1.0
        Mxy, Myz, Mxz = model.gamma(x, y), model.gamma(y, z), model.gamma(x, z)
        grp = max(grp, float(np.max(np.abs(Mxy @ Myz - Mxz))))
        idm = max(idm, float(np.max(np.abs(model.gamma(x, x) - np.eye(st.dim)))))
        for j in range(st.dim):
            for i in range(st.dim):
                want = 1.0 if i == j else 0.0
                if zetas[i] > zetas[j] or (zetas[i] == zetas[j] and i != j) or i == j:
                    tri = max(tri, abs(Mxy[i, j] - want))

    # Pi compatibility on father pairings: base points and test centres on
    # the level grid so that abstract-symbol pairings are exact lookups.
    # Levels >= 3 keep the sampled triples inside a quarter period, where
    # nearest-image displacements are additive.
    levels = sorted({min(3, N), min(5, N)})
    for n in levels:
        shape_n = sc.grid_shape(n)
        for _ in range(n_samples // 4 + 1):
            xi_idx = tuple(rng.integers(0, shape_n[i]) for i in range(sc.d))
            off_y = tuple(int(rng.integers(-1, 2)) for _ in range(sc.d))
            off_z = tuple(int(rng.integers(-1, 2)) for _ in range(sc.d))
            x = np.array([xi_idx[i] / shape_n[i] for i in range(sc.d)])
            y = np.array(
                [((xi_idx[i] + off_y[i]) % shape_n[i]) / shape_n[i] for i in range(sc.d)]
            )
            z_idx = tuple((xi_idx[i] + off_z[i]) % shape_n[i] for i in range(sc.d))
            z = np.array([z_idx[i] / shape_n[i] for i in range(sc.d)])
            Mxy = model.gamma(x, y)
            for j in range(st.dim):
                acc = 0.0
                for i in range(st.dim):
                    if Mxy[i, j] != 0.0:
                        acc += Mxy[i, j] * model.pi_father_point(i, n, x, z, z_idx)
                rhs = model.pi_father_point(j, n, y, z, z_idx)
                compat = max(compat, float(abs(acc - rhs)))
    return ValidationReport(tri, grp, idm, compat)

