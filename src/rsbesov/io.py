"""File formats beyond the coefficient pyramid: modelled-distribution blocks."""

from __future__ import annotations

import numpy as np

from .modelled import ModelledDistribution
from .pyramid import expect_end, read_f8, read_header, write_header
from .pyramid import save_rsbf  # noqa: F401  (perfbench/spans.py traces it here)
from .structures import RegularityStructure

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

