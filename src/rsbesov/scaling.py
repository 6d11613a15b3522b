"""Anisotropic scaling, scaled degrees, and periodic dyadic grids."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class Scaling:
    """Per-dimension integer scaling exponents on the unit torus.

    The scaled norm is ||x||_s = max_i |x_i|^(1/s_i); level-n grids have
    per-dimension mesh 2^(-n*s_i) and 2^(n*|s|) points in total.
    """

    s: tuple[int, ...]

    def __post_init__(self):
        if len(self.s) < 1 or not all(
            isinstance(si, (int, np.integer)) and not isinstance(si, bool) and si >= 1
            for si in self.s
        ):
            raise ValueError(f"scaling needs d >= 1 entries, all integers >= 1, got {self.s}")
        object.__setattr__(self, "s", tuple(int(si) for si in self.s))

    @property
    def d(self) -> int:
        return len(self.s)

    @property
    def total(self) -> int:
        return int(sum(self.s))

    def snorm(self, x) -> float:
        """||x||_s of a single displacement (nearest-image on the torus)."""
        x = wrap_displacement(x)
        return float(np.max(np.abs(x) ** (1.0 / np.array(self.s, dtype=float))))

    def scaled_degree(self, k) -> int:
        """|k|_s = sum_i s_i k_i of a multi-index."""
        return int(sum(si * int(ki) for si, ki in zip(self.s, k)))

    def grid_shape(self, n: int) -> tuple[int, ...]:
        return tuple(2 ** (n * si) for si in self.s)

    def grid_size(self, n: int) -> int:
        return 2 ** (n * self.total)

    def stride(self, n: int, N: int) -> np.ndarray:
        """Per-axis spacing of Lambda_n in Lambda_N cells: the grids nest for 0 <= n <= N."""
        if not 0 <= n <= N:
            raise ValueError(f"level {n} is not nested in level {N}")
        return np.array(self.grid_shape(N)) // self.grid_shape(n)

    def level_index(self, n: int, N: int):
        """ix_-style indices of the Lambda_n points inside a Lambda_N array."""
        return np.ix_(*[np.arange(m) * t for m, t in zip(self.grid_shape(n), self.stride(n, N))])

    def shell_steps(self, n: int, N: int) -> np.ndarray:
        """The offsets h of E_n, 2^(n s_i) h_i in {-1, 0, 1} and h != 0, in
        Lambda_N cells: shape (3^d - 1, d)."""
        cands = [h for h in product((-1, 0, 1), repeat=self.d) if any(h)]
        return np.array(cands) * self.stride(n, N)

    def grid_points(self, n: int) -> np.ndarray:
        """All points of Lambda_n, shape (*grid_shape, d), lexicographic."""
        axes = [np.arange(2 ** (n * si)) * 2.0 ** (-n * si) for si in self.s]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def multi_indices_below(self, gamma: float) -> list[tuple[int, ...]]:
        """All k in N^d with |k|_s < gamma, ordered by (|k|_s, k)."""
        if gamma <= 0:
            return []
        ranges = [range(int(np.ceil(gamma / si)) + 1) for si in self.s]
        ks = [k for k in product(*ranges) if self.scaled_degree(k) < gamma]
        ks.sort(key=lambda k: (self.scaled_degree(k), k))
        return ks

    def nearest_grid_index(self, x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
        """Index of the nearest Lambda_n point (half-up ties), idempotent on Lambda_n."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("grid points must be finite")
        return tuple(
            np.floor(x[..., i] * m + 0.5).astype(int) % m for i, m in enumerate(self.grid_shape(n))
        )


def wrap_displacement(x: np.ndarray) -> np.ndarray:
    """Nearest-image representative of a displacement, in [-1/2, 1/2)^d."""
    return (np.asarray(x, dtype=float) + 0.5) % 1.0 - 0.5

