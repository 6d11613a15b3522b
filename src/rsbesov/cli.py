"""Config-driven experiment runner.

Subcommands synthesize inputs, run the pipelines, and write reproducible
plot-data tables.  Exit codes: 0 ok, 2 usage or configuration error, and
1 for a certificate failure, which no subcommand raises yet (reconstruct
reports its sewing certificate without enforcing it).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis as an, besov, embeddings, mra, modelled, reconstruction as rc
from . import schauder, structures
from .filters import min_order_for
from .pyramid import save_rsbf
from .reports import write_rows
from .scaling import Scaling
from .util import check_exponent

SUBCOMMANDS = (
    "synthesize", "besov", "dnorm", "reconstruct", "roundtrip", "lift", "embed", "schauder",
    "report",
)
# The subcommands `report` runs, in its order.
REPORT_SUBCOMMANDS = (
    "synthesize", "besov", "dnorm", "reconstruct", "roundtrip", "embed", "lift", "schauder"
)

# The level sweeps of reconstruct and embed start here; besov, roundtrip,
# lift and schauder fit slopes over levels and need as many (so does report).
MIN_SWEEP_LEVEL = 4
SWEEP_SUBCOMMANDS = frozenset(
    {"besov", "reconstruct", "roundtrip", "lift", "embed", "schauder", "report"}
)
# These decompose a kernel: the Riesz kernel at d=1, whose I Xi extends the
# noise structure, and the heat kernel at d >= 2.
SCHAUDER_SUBCOMMANDS = frozenset({"schauder", "report"})
# Written into every report's meta: the generator behind every seed.
RNG_ALGORITHM = "numpy-PCG64"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One run's settings; the config file keys are these field names."""

    s: tuple[int, ...] = (1,)
    levels: int = 8
    wavelet_order: int = 6
    structure: str = field(default="polynomial", metadata={"choices": ("polynomial", "noise")})
    gamma: float = 2.5
    p: float = 2.0
    q: float = math.inf
    alpha: float = -0.5
    beta: float = 0.7
    seed: int = 0
    out: str = "out"
    format: str = field(default="csv", metadata={"choices": ("csv", "jsonl")})

    @property
    def schauder_gamma(self) -> float:
        """The order of the modelled distribution that cmd_schauder extends."""
        return self.gamma if self.structure == "noise" else 1.25

    def validate(self, subcommand: str) -> None:
        """Reject the config for subcommand before it writes anything."""
        sc = Scaling(self.s)
        if self.levels < 2:
            raise ConfigError("need at least two levels")
        if subcommand in SWEEP_SUBCOMMANDS and self.levels < MIN_SWEEP_LEVEL:
            raise ConfigError(f"level sweeps and slope fits need --levels >= {MIN_SWEEP_LEVEL}")
        for f in fields(self):
            choices = f.metadata.get("choices")
            if choices and getattr(self, f.name) not in choices:
                raise ConfigError(f"{f.name} must be one of {', '.join(choices)}")
        check_exponent(self.p)
        check_exponent(self.q)
        structures.build_structure(
            self.gamma, sc, self.alpha if self.structure == "noise" else None
        )
        if subcommand in SCHAUDER_SUBCOMMANDS:
            if sc.d == 1:
                schauder.check_extension(self.alpha, self.beta, self.schauder_gamma, sc)
            else:
                schauder.heat_kernel(sc)  # raises for a scaling without one
            schauder.check_moment_rule(sc)

    def meta(self) -> dict:
        m = asdict(self)
        m["s"] = "x".join(map(str, self.s))
        m["d"] = len(self.s)
        m["rng_algorithm"] = RNG_ALGORITHM
        m["version"] = __version__
        del m["out"]  # run location is not part of the reproducible payload
        return m


def _option_fields():
    """Fields set by a flag or a config key of the same name; s comes from
    the config file only."""
    return [f for f in fields(ExperimentConfig) if f.name != "s"]


def load_config(path: str | None) -> ExperimentConfig:
    """The defaults, overridden by the file's one [experiment] section; any
    other section, a key that is not a field, or a malformed file is a
    ConfigError."""
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        if parser.sections() != ["experiment"] or parser.defaults():
            raise ConfigError(f"config file {path} must hold one [experiment] section only")
        sec = dict(parser["experiment"])
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    unknown = sorted(set(sec) - {f.name for f in fields(cfg)})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name, value in sec.items():
        if name == "s":
            cfg.s = tuple(int(v) for v in value.split(","))
        else:
            setattr(cfg, name, type(getattr(cfg, name))(value))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rsbesov",
        description="wavelet Besov norms, modelled distributions, reconstruction,"
        " embeddings, and singular-kernel convolution on periodic dyadic grids",
    )
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", type=str, default=None)
    for f in _option_fields():
        ap.add_argument(
            "--" + f.name.replace("_", "-"),
            type=type(f.default),
            default=None,
            choices=f.metadata.get("choices"),
        )
    return ap


def resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    for f in _option_fields():
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate(args.subcommand)
    return cfg


def _family(cfg: ExperimentConfig):
    r = min(max(2, math.ceil(cfg.gamma)), 3)  # validated: gamma > 0, not an integer
    order = max(cfg.wavelet_order, 2)
    r_eff = r
    while min_order_for(r_eff) > order:
        r_eff -= 1
    if r_eff < 1:
        raise ConfigError("wavelet order too small for any regularity budget")
    return mra.build_wavelet(order, r_eff), r_eff


@dataclass(frozen=True)
class Run:
    """What every subcommand of one invocation shares: the resolved config,
    its scaling, and the wavelet family with its regularity budget r."""

    cfg: ExperimentConfig
    sc: Scaling
    fam: mra.WaveletFamily
    r: int

    def write(self, name: str, header, rows, extra: dict | None = None) -> None:
        """One table `<out>/<name>.<format>` carrying the config meta plus `extra`."""
        cfg = self.cfg
        path = Path(cfg.out) / f"{name}.{cfg.format}"
        write_rows(path, header, rows, cfg.format, cfg.meta() | (extra or {}))


def _input(run: Run, N: int, gamma: float | None = None, noise: bool | None = None):
    """(model, f, xi) at level N: the lift of sin(2 pi x_0) on the polynomial
    structure (xi None), or the constant Xi on the noise structure of a
    random Besov field xi.  gamma and the kind default to the config's."""
    cfg, sc = run.cfg, run.sc
    gamma = cfg.gamma if gamma is None else gamma
    if noise is None:
        noise = cfg.structure != "polynomial"
    if noise:
        xi = besov.synthesize_random_besov(sc, N, cfg.alpha, cfg.seed)
        st, model = structures.noise_structure(cfg.alpha, xi, gamma, run.fam)
        vals = np.zeros((*sc.grid_shape(N), st.dim))
        vals[..., st.index("Xi")] = 1.0
    else:
        xi = None
        st, model = structures.polynomial_structure(gamma, sc, run.fam, N)
        vals = np.zeros((*sc.grid_shape(N), st.dim))
        x0 = sc.grid_points(N)[..., 0]
        for i, sym in enumerate(st.symbols):
            k = sym.k[0]
            if not any(sym.k[1:]):
                deriv = np.sin(2 * np.pi * x0 + k * np.pi / 2.0) * (2 * np.pi) ** k
                vals[..., i] = deriv / math.factorial(k)
    return model, modelled.ModelledDistribution(st, gamma, N, vals), xi


def cmd_synthesize(run: Run) -> int:
    cfg = run.cfg
    pyr = besov.synthesize_random_besov(run.sc, cfg.levels, cfg.alpha, cfg.seed)
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    save_rsbf(Path(cfg.out) / "field.rsbf", pyr)
    params = besov.BesovParams(cfg.alpha, cfg.p, cfg.q, max(run.r, int(abs(cfg.alpha)) + 1))
    rep = besov.besov_norm_wavelet(pyr, params)
    run.write("synthesize", ["level", "psi_index", "value"], list(rep.rows()), {"norm": rep.value})
    run.write("synthesize_plot", ["level", "value"], list(enumerate(rep.level_max())))
    return 0


def cmd_besov(run: Run) -> int:
    sc = run.sc
    pyr = besov.synthesize_dirac(sc, run.cfg.levels, run.fam, np.full(sc.d, 0.5))
    rows = []
    for p in (1.0, 2.0, math.inf):
        meas = besov.critical_exponent(pyr, p)
        want = -sc.total + sc.total / p
        rows.append((p, meas, want, abs(meas - want)))
    run.write("besov", ["p", "measured_alpha", "predicted_alpha", "abs_error"], rows)
    return 0


def cmd_dnorm(run: Run) -> int:
    model, f, _ = _input(run, run.cfg.levels)
    rep = modelled.d_norm(f, model, run.cfg.p, run.cfg.q)
    run.write("dnorm", ["zeta", "n", "term_kind", "value"], list(rep.rows()), {"total": rep.total})
    return 0


def cmd_reconstruct(run: Run) -> int:
    cfg, sc, fam = run.cfg, run.sc, run.fam
    rows = []
    for N in range(max(MIN_SWEEP_LEVEL, cfg.levels - 4), cfg.levels + 1):
        model, f, xi = _input(run, N)
        # the polynomial input tables the bound at the finest level
        d = None
        if xi is None and N == cfg.levels:
            d = besov.make_dictionary(max(run.r, 2), range(2, N - 1))
        out, cert = rc.reconstruct(f, model, cfg.p, cfg.q, dictionary=d)
        if xi is not None:
            rows.append((N, out.max_abs_diff(xi)))
            continue
        an_target = mra.analyze_v_coefficients(_exact_sin_coeffs(fam, sc, N), fam, sc, N)
        rows.append((N, out.plus(an_target.scaled(-1.0)).l2() / an_target.l2()))
    run.write("reconstruct", ["levels", "rel_error"], rows)
    if cert.bound_scales is not None:
        bound = zip(cert.bound_scales.tolist(), cert.bound_raw, cert.bound_normalized)
        run.write("reconstruct_bound", ["scale", "raw", "normalized"], list(bound))
    run.write("reconstruct_certificate", ["scale", "term", "value"], list(cert.sewing.rows()))
    return 0


def _exact_sin_coeffs(fam, sc, N):
    kern = an.SeparableKernel(
        [
            (
                1.0,
                [an.Fn1D(lambda x: np.sin(2 * np.pi * x), None)]
                + [an.Fn1D(lambda x: np.ones_like(x), None) for _ in range(sc.d - 1)],
            )
        ]
    )
    return an.analyze_kernel(kern, fam, sc, N)


def cmd_roundtrip(run: Run) -> int:
    p = run.cfg.p
    model, f, _ = _input(run, run.cfg.levels)
    fbar = modelled.average(f, model)
    f2, rep = modelled.unaverage(fbar, model, p=p if not math.isinf(p) else 2.0)
    rows = [(z, n, v) for z, arr in sorted(rep.increments.items()) for n, v in enumerate(arr)]
    meta = {f"slope_zeta_{z}": s for z, s in sorted(rep.slopes.items())}
    meta["exact_at_finest"] = float(np.max(np.abs(f2.values - f.values)))
    run.write("roundtrip", ["zeta", "n", "increment_lp"], rows, meta)
    return 0


def cmd_lift(run: Run) -> int:
    cfg, N = run.cfg, run.cfg.levels
    pyr = besov.synthesize_smooth(run.sc, N, run.fam, lambda pts: np.sin(2 * np.pi * pts[..., 0]))
    for n in (N - 2, N - 1):
        pyr.details[n][:] = 0.0
    f, rep = rc.lift(pyr, cfg.gamma, cfg.p, cfg.q, run.fam, check_roundtrip=True)
    rows = [("roundtrip_rel_error", rep.roundtrip_rel_error)]
    for z, s in sorted(rep.unaverage.slopes.items()):
        rows.append((f"unaverage_slope_zeta_{z}", s))
    rows.append(("besov_norm", rep.besov_report.value))
    run.write("lift", ["quantity", "value"], rows)
    return 0


def cmd_embed(run: Run) -> int:
    cfg, sc = run.cfg, run.sc
    gamma = cfg.gamma if cfg.structure == "polynomial" else 1.3
    rows = []
    for N in range(MIN_SWEEP_LEVEL, cfg.levels + 1):
        st, model = structures.polynomial_structure(gamma, sc, run.fam, N)
        fbar = _random_fbar(st, gamma, N, cfg.seed)
        cases = [
            embeddings.EmbeddingCase(1, gamma, 2.0, 2.0, gamma, 2.0, math.inf),
            embeddings.EmbeddingCase(2, gamma, 2.0, 2.0, gamma - 0.45, 2.0, 2.0),
            embeddings.EmbeddingCase(3, gamma, 2.0, 2.0, gamma, 1.0, 2.0),
            embeddings.EmbeddingCase(
                4, gamma, 2.0, math.inf, gamma - sc.total / 2.0 - 0.01, math.inf, math.inf
            ),
        ]
        for case, rep in zip(cases, embeddings.embed_sweep(fbar, model, cases)):
            rows.append(
                (case.case, case.gamma, case.p, case.q, case.gamma_t, case.p_t, case.q_t, N, rep.ratio)
            )
    run.write("embed", ["case", "gamma", "p", "q", "gamma_t", "p_t", "q_t", "N", "ratio"], rows)
    return 0


def _random_fbar(st, gamma, N, seed):
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
            noise = rng.uniform(-1, 1, (*sc.grid_shape(n), st.dim))
            decay = np.array([2.0 ** (-n * (gamma - s.zeta)) for s in st.symbols])
            lv = up + noise * decay
        levels.append(lv)
        prev = lv
    return modelled.AveragedMD(st, gamma, N, levels)


def cmd_schauder(run: Run) -> int:
    cfg, sc, N = run.cfg, run.sc, run.cfg.levels
    rows = []
    if sc.d >= 2:
        K = schauder.decompose_kernel("heat", sc, r=2)
        rows.append(("kernel", "heat"))
    else:
        K = schauder.decompose_kernel("riesz", sc, r=3, beta=cfg.beta)
        rows.append(("kernel", "riesz"))
    for m in sc.multi_indices_below(2.1):
        label = "p0_moment_" + "_".join(map(str, m))
        rows.append((label, K.p0_moment(tuple(m))))
    rng = np.random.default_rng(cfg.seed)
    pts = rng.uniform(-0.9, 0.9, (2000, sc.d))
    g = schauder.s_gauge(sc, pts)
    keep = (g > 2.0 ** (-min(N, 8))) & (g < 0.9)
    pts = pts[keep]
    approx = K.partial_sum(pts, min(N, 8), corrected=False) + K.tail(pts)
    truth = K.P(pts)
    rel = float(
        np.max(np.abs(approx - truth) / np.maximum(np.abs(truth), 1e-12))
    )
    rows.append(("telescoping_rel_error", rel))
    if sc.d == 1:
        gamma = cfg.schauder_gamma
        nm, fXi, xi = _input(run, N, gamma, noise=True)
        _, em_model = schauder.extend_structure(fXi.structure, nm, K, gamma)
        rel_id, _ = schauder.convolution_identity_check(fXi, em_model, cfg.p, cfg.q)
        rows.append(("convolution_identity_rel_error", rel_id))
        conv = em_model.conv_pyramid
        gain = besov.critical_exponent(conv, 2.0) - besov.critical_exponent(xi, 2.0)
        rows.append(("besov_gain", gain))
        rows.append(("beta", K.beta))
    run.write("schauder", ["quantity", "value"], rows)
    return 0


def cmd_report(run: Run) -> int:
    # looked up at call time, so that a rebound cmd_* is the one that runs
    return max([globals()[f"cmd_{sub}"](run) for sub in REPORT_SUBCOMMANDS])


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    if not argv:
        ap.print_usage(sys.stderr)
        return 2
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = resolve_config(args)
        run = Run(cfg, Scaling(cfg.s), *_family(cfg))
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # looked up at call time, so that a rebound cmd_* is the one that runs
    runner = globals()[f"cmd_{args.subcommand}"]
    try:
        return runner(run)
    except rc.CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
