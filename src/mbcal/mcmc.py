"""Adaptive random-walk Metropolis-Hastings with global proposal scaling,
plus split-R-hat / effective-sample-size convergence diagnostics.

The K chains of one run step in lockstep: each step proposes a move for
every chain, evaluates the log density of all in-support proposals in one
(K, d) -> (K,) call, and accepts or rejects each chain on its own. The
chains share the run's length, burn-in, starting proposal covariance and
box; each keeps its own start, generator, scale and adapted covariance, so
chain k is draw for draw the chain that a run of its start alone would give.

Adaptation (scale and proposal covariance) runs only during burn-in and is
frozen afterwards, so the retained samples come from a fixed-kernel chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["PosteriorChain", "LockstepChains", "adaptive_mh", "diagnostics"]

TARGET_ACCEPTANCE = 0.234  # burn-in steers the acceptance rate toward this
ADAPT_INTERVAL = 50        # burn-in steps between adaptations


@dataclass
class PosteriorChain:
    draws: np.ndarray                 # (n_samples, d)
    log_posterior_values: np.ndarray  # (n_samples,)
    accepted: np.ndarray              # (n_samples,) bool
    scale_history: list[tuple[int, float]]
    n_burn: int

    @property
    def post_burn(self) -> np.ndarray:
        return self.draws[self.n_burn:]

    @property
    def acceptance_rate(self) -> float:
        """The post-burn-in fraction of accepted proposals."""
        return float(self.accepted[self.n_burn:].mean())

    def to_csv(self, path, header_extra: str | None = None) -> None:
        n, d = self.draws.shape
        names = [f"theta{j + 1}" for j in range(d)]
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


@dataclass
class LockstepChains:
    """The K chains of one lockstep run, in the order of their starts."""

    chains: list[PosteriorChain]

    @property
    def draws(self) -> np.ndarray:
        """(n_samples, K, d): every chain's state after each step."""
        return np.stack([c.draws for c in self.chains], axis=1)


def adaptive_mh(log_post, inits, proposal_cov, n_samples: int, n_burn: int, seeds,
                support=None) -> LockstepChains:
    """Random-walk MH with proposal N(theta, s^2 C), adapting s and C in burn-in,
    for K chains stepped in lockstep from the K rows of inits (K, d), chain k
    drawing from the generator seeded with seeds[k].

    log_post maps a (k, d) array of proposals to their (k,) log densities.
    Every chain starts from C = proposal_cov (d, d, SPD). Every ADAPT_INTERVAL
    steps of burn-in each chain's global scale follows
    s <- s * exp(acc_window - TARGET_ACCEPTANCE), and its C is refreshed to
    the empirical covariance of its draws so far (plus 1e-8 I) once 10*d
    draws exist.
    support is a (lo, hi) box or None; a proposal outside it is rejected
    without a density evaluation or a uniform draw.
    """
    cur = np.array(inits, dtype=float, ndmin=2)
    n_chains, d = cur.shape
    cov = np.atleast_2d(np.asarray(proposal_cov, dtype=float))
    if n_burn >= n_samples:
        raise ValueError("n_burn must be < n_samples")
    if cov.shape != (d, d):
        raise ValueError("proposal covariance shape must match init dimension")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("initial proposal covariance must be SPD") from None
    if len(seeds) != n_chains:
        raise ValueError("need one seed per chain start")
    lo, hi = (-np.inf, np.inf) if support is None else (np.asarray(v, float) for v in support)
    if np.any(cur < lo) or np.any(cur > hi):
        raise ValueError("init outside prior support")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    cur_lp = np.array(log_post(cur), dtype=float)
    if not np.isfinite(cur_lp).all():
        raise ValueError("log_post(init) is not finite")

    s = np.full(n_chains, 2.38 / np.sqrt(d))
    chol = np.repeat(chol[None], n_chains, axis=0)  # (K, d, d), one per chain once adapted
    draws = np.empty((n_chains, n_samples, d))
    lps = np.empty((n_chains, n_samples))
    acc = np.zeros((n_chains, n_samples), dtype=bool)
    scale_history = [[(0, s[k])] for k in range(n_chains)]

    z = np.empty((n_chains, d))
    for t in range(n_samples):
        for rng, z_k in zip(rngs, z):
            rng.standard_normal(out=z_k)
        prop = cur + s[:, None] * np.matmul(chol, z[:, :, None])[:, :, 0]
        ins = np.flatnonzero(((prop >= lo) & (prop <= hi)).all(axis=1))
        if ins.size:
            lp = log_post(prop[ins])
            for i, k in enumerate(ins.tolist()):
                if np.log(rngs[k].random()) < lp[i] - cur_lp[k]:
                    cur[k], cur_lp[k], acc[k, t] = prop[k], lp[i], True
        draws[:, t] = cur
        lps[:, t] = cur_lp

        if t < n_burn and (t + 1) % ADAPT_INTERVAL == 0:
            window = acc[:, t + 1 - ADAPT_INTERVAL: t + 1].mean(axis=1)
            s *= np.exp(window - TARGET_ACCEPTANCE)
            for k in range(n_chains):
                if t + 1 >= 10 * d:
                    cov = np.cov(draws[k, : t + 1].T, ddof=1)
                    cov = np.atleast_2d(cov) + 1e-8 * np.eye(d)
                    chol[k] = np.linalg.cholesky(cov)
                scale_history[k].append((t + 1, s[k]))

    chains = []
    for k in range(n_chains):
        chain = PosteriorChain(
            draws=draws[k],
            log_posterior_values=lps[k],
            accepted=acc[k],
            scale_history=scale_history[k],
            n_burn=n_burn,
        )
        if chain.acceptance_rate == 0.0:
            warnings.warn("all post-burn-in proposals rejected: chain did not move")
        chains.append(chain)
    return LockstepChains(chains)


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
