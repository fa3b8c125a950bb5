"""Parameter screening (one-at-a-time sweeps) and Sobol sensitivity indices."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sampler import uniform_grid

__all__ = ["ScreeningResult", "SobolResult", "oat_screen", "sobol_indices"]


@dataclass(frozen=True)
class ScreeningResult:
    names: tuple[str, ...]
    variances: np.ndarray      # (d, m) population variance per parameter/output
    selected: tuple[str, ...]  # names whose max-over-outputs variance > threshold


@dataclass(frozen=True)
class SobolResult:
    first_order: np.ndarray  # (d, m)
    total: np.ndarray        # (d, m)


def oat_screen(runner, x_fixed, ranges, n: int, threshold: float, names=None) -> ScreeningResult:
    """Sweep each parameter over a uniform grid with the others held at 1.0.

    runner(X, Theta) -> (n, m) outputs, with X the boundary conditions
    x_fixed repeated on every row; one call per parameter sweep. Records the
    population (1/n) variance of every output per parameter; a parameter is
    selected when its max-over-outputs variance exceeds the threshold.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not threshold > 0:
        raise ValueError("threshold must be > 0")
    d = len(ranges)
    names = tuple(names) if names else tuple(f"p{i + 1}" for i in range(d))
    x = np.broadcast_to(np.asarray(x_fixed, dtype=float), (n, len(x_fixed)))
    variances = []
    for i in range(d):
        theta = np.ones((n, d))
        theta[:, i] = uniform_grid(n, ranges[i])
        try:
            out = np.asarray(runner(x, theta), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"runner failed for parameter {i} ({names[i]})") from exc
        if out.ndim != 2 or out.shape[0] != n:
            raise RuntimeError(f"runner returned shape {out.shape}, expected ({n}, m)")
        variances.append(out.var(axis=0))  # population variance
    variances = np.array(variances)
    selected = tuple(
        names[i] for i in range(d) if variances[i].max() > threshold
    )
    return ScreeningResult(names=names, variances=variances, selected=selected)


def sobol_indices(runner, ranges, n_base: int, seed: int) -> SobolResult:
    """First-order (Saltelli 2010) and total (Jansen) Sobol indices.

    runner(Theta) -> (n, m) or (n,) outputs for an (n, d) matrix of rows.
    Cost: n_base * (d + 2) evaluations in d + 2 runner calls.
    """
    if n_base < 64 or (n_base & (n_base - 1)) != 0:
        raise ValueError("n_base must be a power of two >= 64")
    d = len(ranges)
    rng = np.random.default_rng(seed)
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    a = lo + (hi - lo) * rng.random((n_base, d))
    b = lo + (hi - lo) * rng.random((n_base, d))

    def run(mat):
        out = np.asarray(runner(mat), dtype=float)
        if out.ndim not in (1, 2) or out.shape[0] != mat.shape[0]:
            raise ValueError(f"runner returned shape {out.shape} for {mat.shape[0]} rows")
        return out.reshape(mat.shape[0], -1)

    fa = run(a)   # (n, m)
    fb = run(b)
    m = fa.shape[1]
    allf = np.concatenate([fa, fb])
    var = allf.var(axis=0)  # (m,)

    first = np.zeros((d, m))
    total = np.zeros((d, m))
    if np.all(var == 0):
        warnings.warn("zero total variance: all Sobol indices set to 0")
        return SobolResult(first, total)

    safe_var = np.where(var > 0, var, 1.0)
    for i in range(d):
        abi = a.copy()
        abi[:, i] = b[:, i]
        fabi = run(abi)
        first[i] = np.mean(fb * (fabi - fa), axis=0) / safe_var
        total[i] = np.mean((fa - fabi) ** 2, axis=0) / (2.0 * safe_var)
    first[:, var == 0] = 0.0
    total[:, var == 0] = 0.0
    return SobolResult(first_order=first, total=total)
