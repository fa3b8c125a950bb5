"""Reproducible space-filling and grid designs.

All randomness in this package flows through ``numpy.random.default_rng``
seeded explicitly; the same seed always yields the same design bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Design", "lhs_sample", "uniform_grid"]


@dataclass(frozen=True)
class Design:
    """An n x d point set together with the ranges and seed that produced it."""

    points: np.ndarray
    ranges: tuple[tuple[float, float], ...]
    seed: int = field(default=0)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty n x d matrix")
        if pts.shape[1] != len(self.ranges):
            raise ValueError("ranges length must match point dimension")
        for j, (lo, hi) in enumerate(self.ranges):
            col = pts[:, j]
            if np.any(col < lo) or np.any(col > hi):
                raise ValueError(f"point outside range in dimension {j}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def _check_ranges(ranges) -> tuple[tuple[float, float], ...]:
    out = []
    for lo, hi in ranges:
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise ValueError(f"invalid range ({lo}, {hi}): need lo < hi")
        out.append((lo, hi))
    return tuple(out)


def lhs_sample(n: int, ranges, seed: int) -> Design:
    """Latin hypercube design: one point per stratum per dimension.

    Points are generated on the unit cube (random permutation of strata,
    uniform placement inside each stratum) and then mapped affinely onto the
    requested ranges, so designs over different boxes with the same seed are
    affine images of each other.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranges = _check_ranges(ranges)
    d = len(ranges)
    rng = np.random.default_rng(seed)
    unit = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        u = rng.random(n)
        unit[:, j] = (perm + u) / n
    pts = np.empty_like(unit)
    for j, (lo, hi) in enumerate(ranges):
        pts[:, j] = lo + (hi - lo) * unit[:, j]
    return Design(points=pts, ranges=ranges, seed=seed)


def uniform_grid(n: int, range_: tuple[float, float]) -> np.ndarray:
    """n equally spaced values over [lo, hi], endpoints included."""
    if n < 2:
        raise ValueError("n must be >= 2")
    (lo, hi), = _check_ranges([range_])
    return np.linspace(lo, hi, n)
