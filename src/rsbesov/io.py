"""File formats beyond the coefficient pyramid: modelled-distribution blocks,
model manifests, and sampled kernel profiles."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .modelled import ModelledDistribution
from .pyramid import expect_end, read_f8, read_header, save_rsbf, write_header
from .scaling import Scaling
from .schauder import _box_axis
from .structures import Model, RegularityStructure, Symbol

MD_MAGIC = b"RSMD"


def save_md(path, f: ModelledDistribution) -> None:
    """The shared header with tail (N, nsym, gamma), then one lexicographic
    sample block per symbol."""
    with open(path, "wb") as fh:
        write_header(fh, MD_MAGIC, f.structure.scaling, "<IId", f.N, f.structure.dim, f.gamma)
        for i in range(f.structure.dim):
            fh.write(np.ascontiguousarray(f.values[..., i], dtype="<f8").tobytes())


def load_md(path, structure: RegularityStructure) -> ModelledDistribution:
    with open(path, "rb") as fh:
        sc, (N, nsym, gamma) = read_header(fh, MD_MAGIC, "<IId")
        if nsym != structure.dim or sc != structure.scaling:
            raise ValueError("file does not match the given structure")
        vals = np.zeros((*sc.grid_shape(N), nsym))
        for i in range(nsym):
            vals[..., i] = read_f8(fh, sc.grid_size(N), "RSMD").reshape(sc.grid_shape(N))
        expect_end(fh, "RSMD")
        return ModelledDistribution(structure, gamma, N, vals)


def save_model_manifest(prefix, model: Model) -> list[str]:
    """Text manifest of the structure plus one RSBF table per abstract symbol.

    Returns the written file names (manifest first)."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    st = model.structure
    lines = ["format: rsbesov-model/1"]
    lines.append("scaling: " + ",".join(map(str, st.scaling.s)))
    lines.append("levels: " + str(model.N))
    lines.append(
        "homogeneities: " + ",".join(format(z, ".17g") for z in st.homogeneities)
    )
    written = [str(prefix) + ".manifest"]
    for sym in st.symbols:
        tag = f"symbol: {sym.name} zeta={format(sym.zeta, '.17g')} kind={sym.kind}"
        if sym.k is not None:
            tag += " k=" + ",".join(map(str, sym.k))
        lines.append(tag)
    xi = getattr(model, "xi", None)
    if xi is not None:
        name = str(prefix) + ".Xi.rsbf"
        save_rsbf(name, xi)
        lines.append("table: Xi " + Path(name).name)
        written.append(name)
    with open(written[0], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return written


def load_model_manifest(path) -> tuple[list[Symbol], Scaling, int, dict]:
    """Parse a manifest back into symbols, scaling, levels, and table names."""
    symbols = []
    tables = {}
    scaling = None
    levels = None
    for line in Path(path).read_text().splitlines():
        if line.startswith("scaling:"):
            scaling = Scaling(tuple(int(x) for x in line.split(":")[1].split(",")))
        elif line.startswith("levels:"):
            levels = int(line.split(":")[1])
        elif line.startswith("symbol:"):
            parts = line.split()
            name = parts[1]
            fields = dict(p.split("=", 1) for p in parts[2:])
            k = (
                tuple(int(x) for x in fields["k"].split(","))
                if "k" in fields
                else None
            )
            symbols.append(Symbol(name, float(fields["zeta"]), fields["kind"], k))
        elif line.startswith("table:"):
            _, name, fname = line.split()
            tables[name] = fname
    if scaling is None or levels is None:
        raise ValueError("incomplete manifest")
    return symbols, scaling, levels, tables


KERNEL_MAGIC = b"RSKP"


def save_kernel_profile(path, kernel, resolution_bits: int = 9) -> None:
    """The shared header with tail (beta, r, resolution), then the sampled
    base piece."""
    sc = kernel.scaling
    with open(path, "wb") as fh:
        write_header(fh, KERNEL_MAGIC, sc, "<dII", kernel.beta, kernel.r, resolution_bits)
        x, _ = _box_axis(resolution_bits)
        mesh = np.meshgrid(*[x] * sc.d, indexing="ij")
        pts = np.stack(mesh, axis=-1)
        fh.write(np.ascontiguousarray(kernel.p0(pts), dtype="<f8").tobytes())


def load_kernel_profile(path):
    """Header fields and the raw sample block of a stored base piece."""
    with open(path, "rb") as fh:
        sc, (beta, r, bits) = read_header(fh, KERNEL_MAGIC, "<dII")
        n = 2**bits
        vals = read_f8(fh, n**sc.d, "RSKP").reshape((n,) * sc.d)
        expect_end(fh, "RSKP")
        if not np.all(np.isfinite(vals)):
            raise ValueError("RSKP samples must be finite")
        return {"s": sc.s, "beta": beta, "r": r, "resolution_bits": bits}, vals
