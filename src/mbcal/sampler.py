"""Reproducible space-filling and grid designs.

All randomness in this package flows through ``numpy.random.default_rng``
seeded explicitly; the same seed always yields the same design bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lhs_sample", "uniform_grid"]


def _check_ranges(ranges) -> tuple[tuple[float, float], ...]:
    out = []
    for lo, hi in ranges:
        lo, hi = float(lo), float(hi)
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
            raise ValueError(f"invalid range ({lo}, {hi}): need lo < hi")
        out.append((lo, hi))
    return tuple(out)


def lhs_sample(n: int, ranges, seed: int) -> np.ndarray:
    """Latin hypercube design, (n, d): one point per stratum per dimension.

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
    return pts


def uniform_grid(n: int, range_: tuple[float, float]) -> np.ndarray:
    """n equally spaced values over [lo, hi], endpoints included."""
    if n < 2:
        raise ValueError("n must be >= 2")
    (lo, hi), = _check_ranges([range_])
    return np.linspace(lo, hi, n)
