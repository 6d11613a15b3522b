import math
import struct

import numpy as np
import pytest

from rsbesov import io
from rsbesov.pyramid import CoeffPyramid, load_rsbf, save_rsbf
from conftest import make_sin_lift


def test_md_file_roundtrip(tmp_path, sc1, fam6):
    st, model, f = make_sin_lift(sc1, fam6, 6)
    path = tmp_path / "f.rsmd"
    io.save_md(path, f)
    back = io.load_md(path, st)
    assert back.gamma == f.gamma and back.N == f.N
    np.testing.assert_array_equal(back.values, f.values)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_md_file_with_non_finite_gamma_rejected(tmp_path, sc1, fam6, bad):
    st, model, f = make_sin_lift(sc1, fam6, 4)
    path = tmp_path / "f.rsmd"
    io.save_md(path, f)
    raw = bytearray(path.read_bytes())
    at = 4 + 4 * (2 + sc1.d) + 8  # magic, version, d, s, N, nsym, then gamma
    assert raw[at : at + 8] == struct.pack("<d", f.gamma)
    raw[at : at + 8] = struct.pack("<d", bad)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="finite"):
        io.load_md(path, st)


@pytest.fixture(scope="module")
def binary_files(tmp_path_factory, sc1, fam6):
    """One valid file per binary format, with the loader that reads it."""
    root = tmp_path_factory.mktemp("binary")
    st, _, f = make_sin_lift(sc1, fam6, 4)
    io.save_md(root / "f.rsmd", f)
    save_rsbf(root / "p.rsbf", CoeffPyramid.zeros(sc1, 3))
    return {
        "RSBF": (root / "p.rsbf", load_rsbf),
        "RSMD": (root / "f.rsmd", lambda p: io.load_md(p, st)),
    }


@pytest.mark.parametrize("fmt", ["RSBF", "RSMD"])
@pytest.mark.parametrize(
    "damage, match",
    [
        (lambda raw: raw[:-3], "truncated {fmt} file"),
        (lambda raw: raw[:10], "truncated {fmt} file"),
        (lambda raw: raw + b"\0", "trailing bytes after the {fmt} payload"),
        (lambda raw: raw[:4] + struct.pack("<I", 7) + raw[8:], "unsupported {fmt} version 7"),
        (lambda raw: b"XXXX" + raw[4:], "not an {fmt} file"),
        (lambda raw: raw[:-8] + struct.pack("<d", math.nan), "finite"),
    ],
    ids=[
        "truncated-payload", "truncated-header", "trailing-bytes", "bad-version", "bad-magic",
        "nan-payload",
    ],
)
def test_binary_loader_rejects_damaged_file(binary_files, tmp_path, fmt, damage, match):
    path, load = binary_files[fmt]
    load(path)  # the undamaged file reads back
    bad = tmp_path / path.name
    bad.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ValueError, match=match.format(fmt=fmt)):
        load(bad)
