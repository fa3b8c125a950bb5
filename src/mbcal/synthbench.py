"""Synthetic void-fraction benchmark: a fast stand-in for the real code/data.

A smooth parametric model maps normalized boundary conditions and four
multiplicative factors to void fractions at three elevations, an injected
discrepancy under-corrects the upper location, and a generator emits datasets
in the standard case schema. Constants are fixed so tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    BoundaryConditions,
    ExperimentCase,
    MeasurementModel,
    ParameterVector,
    VoidMeasurement,
)
from .sampler import lhs_sample

__all__ = [
    "SynthConfig",
    "ELEVATIONS",
    "THETA_TRUE",
    "code_model_arrays",
    "true_discrepancy",
    "generate_dataset",
]

# measurement elevations as fractions of the heated length
ELEVATIONS = np.array([0.606, 0.738, 0.868])

THETA_TRUE = ParameterVector((1.2, 0.9, 1.15, 0.85))

BC_BOX = (0.05, 0.95)


@dataclass(frozen=True)
class SynthConfig:
    theta_true: ParameterVector = THETA_TRUE
    discrepancy_on: bool = True
    sigma_exp: float = 0.04
    n_cases: int = 74
    seed: int = 0

    def __post_init__(self):
        if self.sigma_exp < 0:
            raise ValueError("sigma_exp must be >= 0")
        if self.n_cases < 8:
            raise ValueError("n_cases must be >= 8")


def code_model_arrays(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Void fractions at the three elevations for raw arrays.

    x: (..., 4) normalized boundary conditions [pressure, T_in, flow, power];
    theta: (..., 4) positive multiplicative factors. Returns (..., 3).
    """
    x = np.asarray(x, dtype=float)
    theta = np.asarray(theta, dtype=float)
    xp, xt, xg, xq = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    t1, t2, t3, t4 = theta[..., 0], theta[..., 1], theta[..., 2], theta[..., 3]
    s = 0.35 * (1.0 - xt) * (0.5 + 0.5 * xp)
    b = xq * (1.2 - 0.7 * xg)
    z = ELEVATIONS
    c = (
        0.45 * t1[..., None] * b[..., None] * z
        + 0.25 * t2[..., None] * b[..., None] * z**2
        - s[..., None]
    )
    d = 0.08 + 0.12 * t3 + 0.10 * t4 * (1.2 - xp)
    return np.maximum(0.0, np.tanh(c / d[..., None]))


def true_discrepancy(x: np.ndarray) -> np.ndarray:
    """Injected code-vs-truth bias at (..., 4) boundary conditions, (..., 3):
    grows with power, largest at the top."""
    return 0.06 * ELEVATIONS**2 * np.asarray(x, dtype=float)[..., 3, None]


def generate_dataset(config: SynthConfig) -> list[ExperimentCase]:
    """Draw boundary conditions by LHS and synthesize noisy measurements.

    Cases whose true void fractions are all below 0.01 are redrawn (up to 10
    attempts each) so the dataset carries information about theta. RNG
    consumption order is fixed (per case: redraws, then noise), so a given
    seed always yields an identical dataset.
    """
    design = lhs_sample(config.n_cases, [BC_BOX] * 4, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    theta = config.theta_true.as_array()
    cases = []
    for i in range(config.n_cases):
        xv = design[i]
        alpha = code_model_arrays(xv, theta)
        attempts = 0
        while np.all(alpha < 0.01):
            if attempts >= 10:
                raise RuntimeError(f"case {i + 1}: no informative draw in 10 attempts")
            xv = rng.uniform(BC_BOX[0], BC_BOX[1], 4)
            alpha = code_model_arrays(xv, theta)
            attempts += 1
        y = alpha.copy()
        if config.discrepancy_on:
            y = y + true_discrepancy(xv)
        if config.sigma_exp > 0:
            y = y + rng.normal(0.0, config.sigma_exp, 3)
        else:
            rng.normal(0.0, 1.0, 3)  # keep the stream aligned across sigma settings
        y = np.clip(y, 0.0, 1.0)
        cases.append(
            ExperimentCase(
                case_id=i + 1,
                x=BoundaryConditions(*xv),
                y_exp=VoidMeasurement(*y),
                meas=MeasurementModel(sigma_exp=config.sigma_exp),
            )
        )
    return cases
