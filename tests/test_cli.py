import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rsbesov import reports
from rsbesov.cli import main
from rsbesov.pyramid import load_rsbf


def run_cli(args):
    return main(list(args))


def test_empty_invocation_usage(capsys):
    assert main([]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_config_errors(tmp_path):
    assert main(["besov", "--levels", "1", "--out", str(tmp_path)]) == 2
    assert main(["dnorm", "--structure", "wrong", "--out", str(tmp_path)]) == 2
    assert main(["dnorm", "--config", str(tmp_path / "nope.ini")]) == 2
    # gamma on a homogeneity
    assert main(["dnorm", "--gamma", "2.0", "--out", str(tmp_path)]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nlevels = 6\ngamma = 2.5\nseed = 5\nq = inf\n")
    out = tmp_path / "run"
    rcode = main(
        ["synthesize", "--config", str(cfg), "--levels", "5", "--out", str(out)]
    )
    assert rcode == 0
    pyr = load_rsbf(out / "field.rsbf")
    assert pyr.N == 5  # the flag overrides the file value
    text = (out / "synthesize.csv").read_text()
    assert "# levels = 5" in text and "# seed = 5" in text
    assert "# version =" in text


def test_config_sets_every_key_and_flags_override(tmp_path):
    from rsbesov.cli import ExperimentConfig, build_parser, resolve_config

    cfg = tmp_path / "all.ini"
    cfg.write_text(
        "[experiment]\nd = 1\ns = 2,1\nlevels = 5\nwavelet_order = 8\n"
        "structure = noise\ngamma = 1.25\np = 1.5\nq = 3\nalpha = -0.4\n"
        "beta = 0.6\nseed = 9\nout = somewhere\nformat = jsonl\n"
    )
    args = build_parser().parse_args(
        ["dnorm", "--config", str(cfg), "--levels", "6", "--q", "Infinity",
         "--wavelet-order", "4", "--format", "csv", "--seed", "3"]
    )
    want = ExperimentConfig(
        d=2, s=(2, 1), levels=6, wavelet_order=4, structure="noise", gamma=1.25,
        p=1.5, q=math.inf, alpha=-0.4, beta=0.6, seed=3, out="somewhere", format="csv",
    )
    assert resolve_config(args) == want


def test_parabolic_lift_reports_no_slope_for_a_round_off_sector(tmp_path):
    # at s=(2,1) the X^(0,1) sector of the lifted sin field is zero up to
    # round-off (increments 3e-16..3e-14): its fitted slope must be NaN
    cfg = tmp_path / "lift21.ini"
    cfg.write_text("[experiment]\nd = 2\ns = 2,1\nlevels = 4\n")
    assert main(["lift", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rows = dict(
        line.split(",") for line in (tmp_path / "lift.csv").read_text().splitlines()
        if not line.startswith("#")
    )
    assert rows["unaverage_slope_zeta_1.0"] == "nan"
    for z in ("0.0", "2.0"):  # the live sectors keep their fitted rates
        assert math.isfinite(float(rows[f"unaverage_slope_zeta_{z}"]))


def test_bad_exponent_exits_2(tmp_path):
    assert main(["besov", "--q", "often", "--out", str(tmp_path)]) == 2
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\np = often\n")
    assert main(["besov", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_besov_subcommand_critical_table(tmp_path):
    assert main(["besov", "--levels", "10", "--out", str(tmp_path)]) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "besov.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("p,")
    ]
    assert len(rows) == 3
    for row in rows:
        assert float(row[3]) < 0.1  # measured vs predicted critical exponent


def test_reconstruct_subcommand(tmp_path):
    assert main(["reconstruct", "--levels", "8", "--out", str(tmp_path)]) == 0
    lines = [
        line
        for line in (tmp_path / "reconstruct.csv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
    assert table[8] < 1e-4 and table[8] < table[6] < table[4]
    assert (tmp_path / "reconstruct_bound.csv").exists()


def test_jsonl_format(tmp_path):
    assert main(
        ["besov", "--levels", "8", "--out", str(tmp_path), "--format", "jsonl"]
    ) == 0
    import json

    lines = (tmp_path / "besov.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    assert "meta" in meta and meta["meta"]["levels"] == 8
    row = json.loads(lines[1])
    assert "measured_alpha" in row


def _strict_json(line):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(line, parse_constant=reject)


def test_jsonl_lines_are_strict_json(tmp_path):
    assert main(["embed", "--levels", "5", "--out", str(tmp_path), "--format", "jsonl"]) == 0
    records = [_strict_json(line) for line in (tmp_path / "embed.jsonl").read_text().splitlines()]
    assert records[0]["meta"]["q"] == "inf"
    assert len(records) > 1


def test_jsonl_non_finite_spelled_like_csv(tmp_path):
    inf, nan = float("inf"), float("nan")
    reports.write_rows(
        tmp_path / "t.jsonl", ["a", "b", "c", "d"], [(inf, -inf, nan, 1.5)], "jsonl", {"q": inf}
    )
    meta, row = map(_strict_json, (tmp_path / "t.jsonl").read_text().splitlines())
    assert meta == {"meta": {"q": "inf"}}
    assert row == {"a": "inf", "b": "-inf", "c": "nan", "d": 1.5}
    with pytest.raises(ValueError):  # non-finite values the writer does not spell out
        reports.write_rows(tmp_path / "u.jsonl", ["a"], [([nan],)], "jsonl")


def test_schauder_subcommand(tmp_path):
    assert main(["schauder", "--levels", "7", "--gamma", "1.25", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "schauder.csv").read_text()
    vals = dict(
        line.split(",")
        for line in text.splitlines()
        if line and not line.startswith("#") and not line.startswith("quantity")
    )
    assert float(vals["telescoping_rel_error"]) < 1e-6
    assert abs(float(vals["besov_gain"]) - float(vals["beta"])) < 0.25


GOLDEN = Path(__file__).parent / "golden" / "report_l6_s7"


def _same_token(got: str, want: str) -> bool:
    """Text and integers exactly, floats within rtol 1e-10 / atol 1e-14."""
    if got == want:
        return True
    if re.fullmatch(r"-?\d+", want):
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-14 + 1e-10 * abs(b)


def _assert_matches_golden(out: Path) -> None:
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in GOLDEN.iterdir())
    for ref in sorted(GOLDEN.iterdir()):
        got = out / ref.name
        if ref.suffix == ".rsbf":
            a, b = load_rsbf(got), load_rsbf(ref)
            assert (a.N, a.scaling.s) == (b.N, b.scaling.s)
            for x, y in zip([a.base, *a.details], [b.base, *b.details], strict=True):
                assert x.shape == y.shape
                np.testing.assert_allclose(x, y, rtol=1e-10, atol=1e-14)
            continue
        got_lines = got.read_text().splitlines()
        ref_lines = ref.read_text().splitlines()
        assert len(got_lines) == len(ref_lines), ref.name
        for g, w in zip(got_lines, ref_lines):
            gt, wt = re.split(r"(,| = )", g), re.split(r"(,| = )", w)
            assert len(gt) == len(wt) and all(map(_same_token, gt, wt)), (ref.name, g, w)


def test_determinism_byte_identity(tmp_path):
    # identical (config, seed) twice: byte-identical report payloads that
    # also match the committed golden report (regenerate it with
    # `rsbesov report --levels 6 --seed 7 --out tests/golden/report_l6_s7`
    # only when a change of the numbers is intended)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = subprocess.run(
            [
                sys.executable,
                "-m",
                "rsbesov.cli",
                "report",
                "--levels",
                "6",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
            capture_output=True,
        )
        assert code.returncode == 0, code.stderr.decode()
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _assert_matches_golden(outs[0])


@pytest.mark.parametrize(
    "sub, levels",
    [
        ("reconstruct", 2),
        ("reconstruct", 3),
        ("embed", 3),
        ("report", 3),
        ("roundtrip", 2),
        ("lift", 2),
        ("besov", 3),
        ("schauder", 3),
    ],
)
def test_level_sweeps_need_four_levels(sub, levels, tmp_path, capsys):
    assert main([sub, "--levels", str(levels), "--out", str(tmp_path)]) == 2
    assert "--levels >= 4" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # failed before writing any table


def test_perfbench_span_targets_resolve():
    # the traced benchmark wraps these bindings; a rename must fail here too
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("rsbesov_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, attr in spans.TARGETS:
        owner, leaf = spans._resolve(importlib.import_module(f"rsbesov.{mod}"), attr)
        assert callable(owner.__dict__.get(leaf)), f"rsbesov.{mod}.{attr}"
    for mod, name, src in spans.BY_VALUE:
        bound = getattr(importlib.import_module(f"rsbesov.{mod}"), name)
        assert bound is getattr(importlib.import_module(f"rsbesov.{src}"), name), f"rsbesov.{mod}.{name}"
