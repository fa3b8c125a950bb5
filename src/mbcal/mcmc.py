"""Adaptive random-walk Metropolis-Hastings with global proposal scaling,
plus split-R-hat / effective-sample-size convergence diagnostics.

Adaptation (scale and proposal covariance) runs only during burn-in and is
frozen afterwards, so the retained samples come from a fixed-kernel chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["McmcConfig", "PosteriorChain", "adaptive_mh", "diagnostics"]

TARGET_ACCEPTANCE = 0.234  # burn-in steers the acceptance rate toward this
ADAPT_INTERVAL = 50        # burn-in steps between adaptations


@dataclass(frozen=True)
class McmcConfig:
    init: np.ndarray
    initial_proposal_cov: np.ndarray
    n_samples: int = 20000
    n_burn: int = 4000
    seed: int = 0
    support: tuple[np.ndarray, np.ndarray] | None = None  # (lo, hi) box or None

    def __post_init__(self):
        init = np.asarray(self.init, dtype=float).ravel()
        object.__setattr__(self, "init", init)
        cov = np.atleast_2d(np.asarray(self.initial_proposal_cov, dtype=float))
        object.__setattr__(self, "initial_proposal_cov", cov)
        if self.n_burn >= self.n_samples:
            raise ValueError("n_burn must be < n_samples")
        d = init.size
        if cov.shape != (d, d):
            raise ValueError("proposal covariance shape must match init dimension")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("initial proposal covariance must be SPD") from None
        if self.support is not None:
            lo, hi = (np.asarray(v, dtype=float).ravel() for v in self.support)
            object.__setattr__(self, "support", (lo, hi))
            if np.any(init < lo) or np.any(init > hi):
                raise ValueError("init outside prior support")


@dataclass
class PosteriorChain:
    draws: np.ndarray                 # (n_samples, d)
    log_posterior_values: np.ndarray  # (n_samples,)
    accepted: np.ndarray              # (n_samples,) bool
    acceptance_rate: float            # post-burn-in fraction
    scale_history: list[tuple[int, float]]
    n_burn: int

    @property
    def post_burn(self) -> np.ndarray:
        return self.draws[self.n_burn:]

    def to_csv(self, path, param_names=None, header_extra: str | None = None) -> None:
        n, d = self.draws.shape
        names = param_names or [f"theta{j + 1}" for j in range(d)]
        # one %-format over the whole table: %.17g round-trips every float,
        # and %d prints the float step and accepted columns as integers
        table = np.column_stack([np.arange(n), self.draws, self.log_posterior_values,
                                 self.accepted])
        row = "%d," + "%.17g," * (d + 1) + "%d\n"
        with open(path, "w") as fh:
            if header_extra:
                fh.write(header_extra)
            fh.write("step," + ",".join(names) + ",log_post,accepted\n")
            fh.write(row * n % tuple(table.ravel().tolist()))


def adaptive_mh(log_post, config: McmcConfig) -> PosteriorChain:
    """Random-walk MH with proposal N(theta, s^2 C), adapting s and C in burn-in.

    Every ADAPT_INTERVAL steps of burn-in the global scale follows
    s <- s * exp(acc_window - TARGET_ACCEPTANCE), and C is refreshed to the
    empirical covariance of the draws so far (plus 1e-8 I) once 10*d draws
    exist.
    Proposals outside the support box are rejected without a density call.
    """
    cfg = config
    d = cfg.init.size
    rng = np.random.default_rng(cfg.seed)
    cur = cfg.init.copy()
    cur_lp = float(log_post(cur))
    if not np.isfinite(cur_lp):
        raise ValueError("log_post(init) is not finite")

    s = 2.38 / np.sqrt(d)
    chol = np.linalg.cholesky(cfg.initial_proposal_cov)
    draws = np.empty((cfg.n_samples, d))
    lps = np.empty(cfg.n_samples)
    acc = np.zeros(cfg.n_samples, dtype=bool)
    scale_history = [(0, s)]

    for t in range(cfg.n_samples):
        prop = cur + s * (chol @ rng.standard_normal(d))
        in_support = True
        if cfg.support is not None:
            lo, hi = cfg.support
            in_support = bool((prop >= lo).all() and (prop <= hi).all())
        if in_support:
            lp = float(log_post(prop))
            if np.log(rng.random()) < lp - cur_lp:
                cur, cur_lp = prop, lp
                acc[t] = True
        draws[t] = cur
        lps[t] = cur_lp

        if t < cfg.n_burn and (t + 1) % ADAPT_INTERVAL == 0:
            window = acc[t + 1 - ADAPT_INTERVAL: t + 1].mean()
            s *= np.exp(window - TARGET_ACCEPTANCE)
            if t + 1 >= 10 * d:
                cov = np.cov(draws[: t + 1].T, ddof=1)
                cov = np.atleast_2d(cov) + 1e-8 * np.eye(d)
                chol = np.linalg.cholesky(cov)
            scale_history.append((t + 1, s))

    post_acc = float(acc[cfg.n_burn:].mean())
    if post_acc == 0.0:
        warnings.warn("all post-burn-in proposals rejected: chain did not move")
    return PosteriorChain(
        draws=draws,
        log_posterior_values=lps,
        accepted=acc,
        acceptance_rate=post_acc,
        scale_history=scale_history,
        n_burn=cfg.n_burn,
    )


def _ess_one(x: np.ndarray) -> float:
    """Geyer initial-positive-sequence ESS for one chain segment."""
    n = x.size
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return float("nan")
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n] / n
    rho = acov / acov[0]
    tau = 1.0
    for k in range(1, n // 2):
        pair = rho[2 * k - 1] + rho[2 * k]
        if pair < 0:
            break
        tau += 2.0 * pair
    return n / tau


def diagnostics(chains) -> dict:
    """Split-R-hat and ESS per coordinate over >= 2 chains' post-burn-in draws."""
    if len(chains) < 2:
        raise ValueError("need at least 2 chains")
    d = chains[0].draws.shape[1]
    n = chains[0].draws.shape[0]
    for c in chains[1:]:
        if c.draws.shape != (n, d):
            raise ValueError("chains must share dimensions and n_samples")

    segments = []
    for c in chains:
        post = c.post_burn
        half = post.shape[0] // 2
        segments.append(post[:half])
        segments.append(post[half: 2 * half])
    seg = np.array(segments)  # (2K, half, d)

    rhat = np.empty(d)
    ess = np.empty(d)
    m, length = seg.shape[0], seg.shape[1]
    for j in range(d):
        means = seg[:, :, j].mean(axis=1)
        vars_ = seg[:, :, j].var(axis=1, ddof=1)
        w = vars_.mean()
        b = length * means.var(ddof=1)
        if w == 0:
            rhat[j] = 1.0 if b == 0 else float("inf")
        else:
            var_plus = (length - 1) / length * w + b / length
            rhat[j] = float(np.sqrt(var_plus / w))
        ess_j = sum(_ess_one(seg[k, :, j]) for k in range(m))
        ess[j] = float(ess_j)
    return {
        "rhat": rhat,
        "ess": ess,
        "acceptance": [c.acceptance_rate for c in chains],
    }
