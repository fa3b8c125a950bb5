"""Modular Bayesian calibration: emulator + discrepancy GP + posterior sampling.

The code emulator (inputs x + theta) is trained on the calibration cases
only; the discrepancy GP (inputs x) is trained on validation-case residuals
at the nominal theta. The two boundary-condition training sets must be
disjoint, otherwise exact GP interpolation would cancel the code out of the
likelihood. GP hyperparameters stay fixed at their MLE values while theta is
sampled (the "modular" part).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial.distance import cdist

from . import gp
from .domain import PARAMETER_NAMES, Partition
from .mcmc import PosteriorChain, adaptive_mh, diagnostics
from .sampler import lhs_sample

__all__ = [
    "CalibrationMode",
    "PriorSpec",
    "SurrogatePair",
    "LogPosterior",
    "build_gp_cc",
    "build_gp_md",
    "calibrate",
    "summarize",
    "CalibrationResult",
]

THETA_DIM = 4
BC_DIM = 4


class CalibrationMode(Enum):
    WithDiscrepancy = "with_discrepancy"
    NoDiscrepancy = "no_discrepancy"


@dataclass(frozen=True)
class PriorSpec:
    """Uniform box prior on the four multiplicative factors."""

    lo: float = 0.05
    hi: float = 5.0

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError("prior needs 0 <= lo < hi")

    @property
    def ranges(self):
        return [(self.lo, self.hi)] * THETA_DIM

    @property
    def log_density(self) -> float:
        return -THETA_DIM * np.log(self.hi - self.lo)


@dataclass
class SurrogatePair:
    gp_cc: gp.GpModel
    gp_md: gp.GpModel | None = None

    def __post_init__(self):
        if self.gp_md is None:
            return
        # boundary conditions live in the first BC_DIM emulator input columns
        cc_x = np.unique(np.round(self.gp_cc.raw_inputs()[:, :BC_DIM], 12), axis=0)
        md_x = self.gp_md.raw_inputs()
        if np.min(cdist(cc_x, md_x)) < 1e-12:
            raise ValueError(
                "emulator and discrepancy GP share a boundary-condition point; "
                "their training sets must be disjoint"
            )


def _sorted_cases(cases, ids):
    by_id = {c.case_id: c for c in cases}
    return [by_id[i] for i in sorted(ids)]


def build_gp_cc(
    partition: Partition,
    cases,
    runner,
    theta_design_size: int,
    prior: PriorSpec,
    seed: int,
    restarts: int = 8,
) -> gp.GpModel:
    """Emulator of the code: inputs x + theta, outputs the 3 void fractions.

    Per calibration case, theta_design_size LHS draws over the prior box are
    evaluated in one runner call; one GP is fit on the pooled rows, with one
    kernel shared by the three standardized outputs. Its rows, one group of
    theta_design_size per case in case-id order, are the one layout that
    gp.SplitPredictor (built by LogPosterior at these cases) accepts.
    """
    if theta_design_size < 20:
        raise ValueError("theta_design_size must be >= 20")
    cal_cases = _sorted_cases(cases, partition.calibration_ids)
    case_seeds = np.random.SeedSequence(seed).generate_state(len(cal_cases))
    rows_x, rows_y = [], []
    for case, cseed in zip(cal_cases, case_seeds):
        design = lhs_sample(theta_design_size, prior.ranges, seed=int(cseed))
        x = np.broadcast_to(case.x.as_array(), design.shape)
        try:
            y = np.asarray(runner(x, design), dtype=float)
        except Exception as exc:
            raise RuntimeError(f"runner failed on case {case.case_id}") from exc
        rows_x.append(np.hstack([x, design]))
        rows_y.append(y)
    return gp.fit(np.vstack(rows_x), np.vstack(rows_y), restarts=restarts, seed=seed,
                  shared=True)


def build_gp_md(
    partition: Partition,
    cases,
    runner,
    restarts: int = 8,
    seed: int = 0,
) -> gp.GpModel:
    """Discrepancy GP: validation-case boundary conditions -> residuals at
    the nominal theta (all ones), with one kernel per output."""
    val_cases = _sorted_cases(cases, partition.validation_ids)
    if len(val_cases) < BC_DIM + 1:
        raise ValueError(f"need at least {BC_DIM + 1} validation cases")
    xs = np.array([c.x.as_array() for c in val_cases])
    y_exp = np.array([c.y_exp.as_array() for c in val_cases])
    pred = np.asarray(runner(xs, np.ones_like(xs)), dtype=float)
    return gp.fit(xs, y_exp - pred, restarts=restarts, seed=seed)


class LogPosterior:
    """Callable log-posterior of theta for a fixed surrogate pair and data.

    Discrepancy mean/variance at the calibration boundary conditions (zero
    without pair.gp_md) do not depend on theta and are precomputed. So is
    every theta-free part of the emulator prediction: GP_CC's inputs are
    [x, theta] (BC_DIM boundary conditions first), so gp.SplitPredictor
    fixes the x columns at the calibration cases and a call evaluates only
    the theta columns. The Gaussian likelihood is evaluated in GP_CC's
    standardized output units, with y_exp - delta - out_mean, sigma2_exp +
    sigma2_delta and the normalizing constant folded once, at construction;
    the unfolded inputs stay readable as attributes. A call evaluates K
    theta rows at once, so a lockstep MH step over K chains is one call.
    """

    def __init__(self, pair: SurrogatePair, cases, partition: Partition, prior: PriorSpec):
        cal_cases = _sorted_cases(cases, partition.calibration_ids)
        self.x_cal = np.array([c.x.as_array() for c in cal_cases])
        self.prior = prior
        self.y_exp = np.array([c.y_exp.as_array() for c in cal_cases])
        self.sigma2_exp = np.array([c.meas.sigma_exp**2 for c in cal_cases])[:, None]
        if np.any(self.sigma2_exp <= 0):
            raise ValueError("nonpositive measurement sigma in calibration set")
        self._gp_cc = gp.SplitPredictor(pair.gp_cc, self.x_cal)
        if pair.gp_md is not None:
            self.delta, self.sigma2_delta = gp.predict(pair.gp_md, self.x_cal)
        else:
            self.delta = np.zeros_like(self.y_exp)
            self.sigma2_delta = np.zeros_like(self.y_exp)
        # standardized (m, q) residual offset and variance floor, and the
        # normalizer: -0.5 sum log(2 pi out_std^2) plus the prior density
        std = self._gp_cc.model.out_std[:, None]
        mean = self._gp_cc.model.out_mean[:, None]
        self._r0 = (self.y_exp.T - self.delta.T - mean) / std
        self._v0 = (self.sigma2_exp.T + self.sigma2_delta.T) / std**2
        self._norm = (-0.5 * self._r0.shape[1] * np.sum(np.log(2.0 * np.pi * std**2))
                      + prior.log_density)
        self._lo, self._hi = prior.lo, prior.hi

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Log posterior (K,) of the K rows of a (K, 4) theta array; a row
        outside the prior box or holding NaN is -inf and is not evaluated."""
        theta = np.asarray(theta, dtype=float)
        # one test for the prior box and NaN: every comparison with NaN fails
        if self._lo <= theta.min() and theta.max() <= self._hi:
            return self._in_box(theta)
        inside = ((theta >= self._lo) & (theta <= self._hi)).all(axis=1)
        out = np.full(theta.shape[0], -np.inf)
        if inside.any():
            out[inside] = self._in_box(theta[inside])
        return out

    def _in_box(self, theta: np.ndarray) -> np.ndarray:
        mu, s2 = self._gp_cc.standardized(theta)
        v = self._v0 + s2[:, None, :]
        r = self._r0 - mu
        r *= r
        r /= v
        np.log(v, out=v)
        r += v
        return self._norm - 0.5 * r.sum(axis=(1, 2))


@dataclass
class CalibrationResult:
    chain: PosteriorChain    # the run's K chains
    diagnostics: dict
    summary: dict            # per-parameter stats over pooled post-burn draws
    correlation: np.ndarray  # (4, 4)
    converged: bool


def summarize(chain: PosteriorChain) -> CalibrationResult:
    """Diagnostics and pooled post-burn-in statistics of finished chains.
    Converged means every R-hat < 1.1."""
    diag = diagnostics(chain)
    pooled = chain.pooled
    summary = {}
    for j, name in enumerate(PARAMETER_NAMES):
        col = pooled[:, j]
        p = np.percentile(col, [2.5, 50.0, 97.5])
        summary[name] = {
            "mean": float(col.mean()),
            "std": float(col.std(ddof=1)),
            "p2.5": float(p[0]),
            "p50": float(p[1]),
            "p97.5": float(p[2]),
        }
    return CalibrationResult(
        chain=chain, diagnostics=diag, summary=summary,
        correlation=np.corrcoef(pooled.T), converged=bool(np.all(diag["rhat"] < 1.1)),
    )


def calibrate(
    pair: SurrogatePair,
    cases,
    partition: Partition,
    prior: PriorSpec,
    n_samples: int,
    n_burn: int,
    n_chains: int,
    seed: int,
) -> CalibrationResult:
    """Modular-Bayesian calibration with fixed surrogates; delta iff pair.gp_md is given.

    Runs n_chains adaptive-MH chains, confined to the prior box and stepped
    in lockstep, so each MH step is one LogPosterior call over every chain's
    proposal, and summarizes them. Chain 1 starts at theta = 1 and the others
    at 1 + 0.1 N(0, I), clipped to the box; the proposal covariance starts at
    (0.05 (hi - lo))^2 I. The 2 n_chains streams of SeedSequence(seed) give
    chain k its start (stream 2k) and its MH generator (stream 2k + 1).
    Non-convergence (any R-hat >= 1.1) is reported in the result and warned
    about, not raised.
    """
    if n_chains < 2:
        raise ValueError("need at least 2 chains for diagnostics")
    log_post = LogPosterior(pair, cases, partition, prior)
    streams = np.random.SeedSequence(seed).generate_state(2 * n_chains)
    inits = np.ones((n_chains, THETA_DIM))
    for k in range(1, n_chains):
        inits[k] += 0.1 * np.random.default_rng(int(streams[2 * k])).standard_normal(THETA_DIM)
    box = (np.full(THETA_DIM, prior.lo), np.full(THETA_DIM, prior.hi))
    proposal_cov = np.eye(THETA_DIM) * (0.05 * (prior.hi - prior.lo)) ** 2
    chain = adaptive_mh(log_post, np.clip(inits, *box), proposal_cov, n_samples, n_burn,
                        [int(s) for s in streams[1::2]], support=box)

    result = summarize(chain)
    if not result.converged:
        warnings.warn(
            f"MCMC not converged: max R-hat = {np.max(result.diagnostics['rhat']):.3f}"
        )
    return result
