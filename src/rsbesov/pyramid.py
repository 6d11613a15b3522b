"""Coefficient pyramids (base + per-level details) and the RSBF binary format."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .scaling import Scaling

RSBF_MAGIC = b"RSBF"
RSBF_VERSION = 1


@dataclass
class CoeffPyramid:
    """A distribution represented by V_0 coefficients plus detail levels.

    base has shape `scaling.grid_shape(0)`; details[n] has shape
    (2^|s| - 1, *scaling.grid_shape(n)) for 0 <= n < N.
    """

    scaling: Scaling
    N: int
    base: np.ndarray
    details: list[np.ndarray]

    def __post_init__(self):
        if self.N < 0 or len(self.details) != self.N:
            raise ValueError("pyramid needs one detail block per level below N")
        npsi = 2**self.scaling.total - 1
        if self.base.shape != self.scaling.grid_shape(0):
            raise ValueError("base block has the wrong shape")
        for n, d in enumerate(self.details):
            if d.shape != (npsi, *self.scaling.grid_shape(n)):
                raise ValueError(f"detail block {n} has the wrong shape")
        if not all(np.all(np.isfinite(b)) for b in [self.base, *self.details]):
            raise ValueError("pyramid coefficients must be finite")

    @property
    def n_psi(self) -> int:
        return 2**self.scaling.total - 1

    @classmethod
    def zeros(cls, scaling: Scaling, N: int) -> "CoeffPyramid":
        npsi = 2**scaling.total - 1
        return cls(
            scaling,
            N,
            np.zeros(scaling.grid_shape(0)),
            [np.zeros((npsi, *scaling.grid_shape(n))) for n in range(N)],
        )

    def copy(self) -> "CoeffPyramid":
        return CoeffPyramid(
            self.scaling, self.N, self.base.copy(), [d.copy() for d in self.details]
        )

    def scaled(self, c: float) -> "CoeffPyramid":
        return CoeffPyramid(
            self.scaling, self.N, c * self.base, [c * d for d in self.details]
        )

    def plus(self, other: "CoeffPyramid") -> "CoeffPyramid":
        if other.scaling != self.scaling or other.N != self.N:
            raise ValueError("pyramid shape mismatch")
        return CoeffPyramid(
            self.scaling,
            self.N,
            self.base + other.base,
            [a + b for a, b in zip(self.details, other.details)],
        )

    def l2(self) -> float:
        tot = float(np.sum(self.base**2))
        for d in self.details:
            tot += float(np.sum(d**2))
        return tot**0.5

    def max_abs_diff(self, other: "CoeffPyramid") -> float:
        if other.scaling != self.scaling or other.N != self.N:
            raise ValueError("pyramid shape mismatch")
        pairs = zip([self.base, *self.details], [other.base, *other.details])
        return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def write_header(fh, magic: bytes, scaling: Scaling, tail_layout: str, *tail) -> None:
    """The shared binary header: magic, then u32-LE version, d and the s
    entries, then the format's own tail fields packed with tail_layout."""
    fh.write(magic)
    fh.write(struct.pack(f"<II{scaling.d}I", RSBF_VERSION, scaling.d, *scaling.s))
    fh.write(struct.pack(tail_layout, *tail))


def save_rsbf(path, pyr: CoeffPyramid) -> None:
    """Write a pyramid: the shared header with tail N, then coefficients.

    Coefficients are little-endian float64, base first, then details in
    (n, psi-index, lexicographic x) order.
    """
    with open(path, "wb") as fh:
        write_header(fh, RSBF_MAGIC, pyr.scaling, "<I", pyr.N)
        fh.write(np.ascontiguousarray(pyr.base, dtype="<f8").tobytes())
        for d in pyr.details:
            fh.write(np.ascontiguousarray(d, dtype="<f8").tobytes())


def read_exact(fh, nbytes: int, fmt_name: str) -> bytes:
    """The next nbytes of fh; checked against the file size first, so a
    corrupt length neither allocates nor reads past the end."""
    if nbytes > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"truncated {fmt_name} file")
    return fh.read(nbytes)


def read_struct(fh, layout: str, fmt_name: str) -> tuple:
    return struct.unpack(layout, read_exact(fh, struct.calcsize(layout), fmt_name))


def read_f8(fh, count: int, fmt_name: str) -> np.ndarray:
    return np.frombuffer(read_exact(fh, 8 * count, fmt_name), dtype="<f8")


def expect_end(fh, fmt_name: str) -> None:
    if fh.read(1):
        raise ValueError(f"trailing bytes after the {fmt_name} payload")


def read_header(fh, magic: bytes, tail_layout: str) -> tuple[Scaling, tuple]:
    """Inverse of write_header: the scaling and the unpacked tail fields.
    The magic bytes name the format in every error."""
    fmt_name = magic.decode()
    if fh.read(len(magic)) != magic:
        raise ValueError(f"not an {fmt_name} file")
    version, d = read_struct(fh, "<II", fmt_name)
    if version != RSBF_VERSION:
        raise ValueError(f"unsupported {fmt_name} version {version}")
    s = read_struct(fh, f"<{d}I", fmt_name)
    return Scaling(s), read_struct(fh, tail_layout, fmt_name)


def load_rsbf(path) -> CoeffPyramid:
    with open(path, "rb") as fh:
        scaling, (N,) = read_header(fh, RSBF_MAGIC, "<I")
        npsi = 2**scaling.total - 1
        base = read_f8(fh, scaling.grid_size(0), "RSBF").reshape(scaling.grid_shape(0))
        details = []
        for n in range(N):
            arr = read_f8(fh, npsi * scaling.grid_size(n), "RSBF")
            details.append(arr.reshape((npsi, *scaling.grid_shape(n))).copy())
        expect_end(fh, "RSBF")
        return CoeffPyramid(scaling, N, base.copy(), details)
