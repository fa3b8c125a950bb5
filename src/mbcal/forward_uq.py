"""Forward propagation of posterior draws and validation scoring."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PredictiveSummary", "ValidationReport", "propagate", "rmse_report"]


@dataclass
class PredictiveSummary:
    case_ids: list[int]
    mean: np.ndarray   # (n_cases, 3)
    std: np.ndarray
    p025: np.ndarray
    p975: np.ndarray
    n_use: int


@dataclass
class ValidationReport:
    rmse_prior: float
    rmse_posterior: float
    covered: np.ndarray  # (n_cases, 3) bool: y_exp inside the widened 95% band

    @property
    def coverage_95(self) -> float:
        return float(self.covered.mean())


def propagate(runner, cases, draws: np.ndarray, n_use: int) -> PredictiveSummary:
    """Monte Carlo predictive summary: run evenly thinned posterior draws
    through the raw model at every case, one runner call per case."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    if n_use < 1:
        raise ValueError("empty draw set (n_use must be >= 1)")
    if n_use > draws.shape[0]:
        raise ValueError("n_use exceeds the number of available draws")
    idx = np.unique(np.linspace(0, draws.shape[0] - 1, n_use).astype(int))
    thinned = draws[idx]

    samples = np.empty((len(cases), thinned.shape[0], 3))
    for i, case in enumerate(cases):
        x = np.broadcast_to(case.x.as_array(), thinned.shape)
        try:
            y = np.asarray(runner(x, thinned), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"runner failed on case {case.case_id}") from exc
        if y.shape != samples.shape[1:]:
            raise RuntimeError(
                f"runner returned shape {y.shape} on case {case.case_id}, "
                f"expected {samples.shape[1:]}"
            )
        samples[i] = y
    p = np.percentile(samples, [2.5, 97.5], axis=1)
    return PredictiveSummary(
        case_ids=[c.case_id for c in cases],
        mean=samples.mean(axis=1),
        std=samples.std(axis=1),
        p025=p[0],
        p975=p[1],
        n_use=thinned.shape[0],
    )


def rmse_report(summary: PredictiveSummary, prior_outputs: np.ndarray, cases) -> ValidationReport:
    """RMSE of posterior-mean and prior-nominal predictions over all
    case x location residuals, plus which measurements lie inside the 95%
    band widened by +-2 sigma_exp per case (the one coverage rule)."""
    ids = [c.case_id for c in cases]
    if ids != summary.case_ids:
        raise ValueError("misaligned case ids between summary and cases")
    y = np.array([c.y_exp.as_array() for c in cases])
    prior_outputs = np.asarray(prior_outputs, dtype=float)
    if prior_outputs.shape != y.shape:
        raise ValueError("prior_outputs shape must be (n_cases, 3)")

    r_post = y - summary.mean
    r_prior = y - prior_outputs
    sig = np.array([c.meas.sigma_exp for c in cases])[:, None]
    covered = (y >= summary.p025 - 2 * sig) & (y <= summary.p975 + 2 * sig)
    return ValidationReport(
        rmse_prior=float(np.sqrt(np.mean(r_prior**2))),
        rmse_posterior=float(np.sqrt(np.mean(r_post**2))),
        covered=covered,
    )
