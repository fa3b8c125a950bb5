"""Adaptive random-walk Metropolis-Hastings with global proposal scaling,
plus split-R-hat / effective-sample-size convergence diagnostics.

The K chains of one run step in lockstep and form one PosteriorChain: each
step proposes a move for every chain, evaluates the log density of all
in-support proposals in one (K, d) -> (K,) call, and accepts or rejects each
chain on its own. The chains share the run's length, burn-in, starting
proposal covariance and box; each keeps its own start, generator, scale and
adapted covariance, so chain k is draw for draw a run of its start alone.

Adaptation (scale and proposal covariance) runs only during burn-in and is
frozen afterwards, so the retained samples come from a fixed-kernel chain.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["PosteriorChain", "adaptive_mh", "diagnostics"]

TARGET_ACCEPTANCE = 0.234  # burn-in steers the acceptance rate toward this
ADAPT_INTERVAL = 50        # burn-in steps between adaptations


@dataclass
class PosteriorChain:
    """The K chains of one run, in the order of their starts."""

    draws: np.ndarray                 # (n_samples, K, d)
    log_posterior_values: np.ndarray  # (n_samples, K)
    accepted: np.ndarray              # (n_samples, K) bool
    scale_history: list[list[tuple[int, float]]]  # per chain
    n_burn: int

    @property
    def post_burn(self) -> np.ndarray:
        return self.draws[self.n_burn:]

    @property
    def pooled(self) -> np.ndarray:
        """(K (n_samples - n_burn), d): the post-burn-in draws, chain after chain."""
        return self.post_burn.transpose(1, 0, 2).reshape(-1, self.draws.shape[2])

    @property
    def acceptance_rate(self) -> np.ndarray:
        """(K,): each chain's post-burn-in fraction of accepted proposals."""
        return self.accepted[self.n_burn:].mean(axis=0)

    def to_csv(self, path, k: int, header_extra: str | None = None) -> None:
        """Write chain k: step, theta1..thetad, log_post, accepted per row."""
        n, _, d = self.draws.shape
        names = [f"theta{j + 1}" for j in range(d)]
        # one %-format over the whole table: %.17g round-trips every float,
        # and %d prints the float step and accepted columns as integers
        table = np.column_stack([np.arange(n), self.draws[:, k],
                                 self.log_posterior_values[:, k], self.accepted[:, k]])
        row = "%d," + "%.17g," * (d + 1) + "%d\n"
        with open(path, "w") as fh:
            if header_extra:
                fh.write(header_extra)
            fh.write("step," + ",".join(names) + ",log_post,accepted\n")
            fh.write(row * n % tuple(table.ravel().tolist()))

    @classmethod
    def read_csv(cls, paths, n_burn: int) -> PosteriorChain:
        """Chain k from the file to_csv(paths[k], k, header_extra) wrote (one
        header_extra line); the scale histories are not in the files."""
        arr = np.stack([np.loadtxt(p, delimiter=",", skiprows=2, ndmin=2) for p in paths], 1)
        return cls(arr[:, :, 1:-2], arr[:, :, -2], arr[:, :, -1].astype(bool),
                   [[] for _ in paths], n_burn)


def adaptive_mh(log_post, inits, proposal_cov, n_samples: int, n_burn: int, seeds,
                support=None) -> PosteriorChain:
    """Random-walk MH with proposal N(theta, s^2 C), adapting s and C in burn-in,
    for K chains stepped in lockstep from the K rows of inits (K, d), chain k
    drawing from the generator seeded with seeds[k], as one PosteriorChain.

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
    draws = np.empty((n_samples, n_chains, d))
    lps = np.empty((n_samples, n_chains))
    acc = np.zeros((n_samples, n_chains), dtype=bool)
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
                    cur[k], cur_lp[k], acc[t, k] = prop[k], lp[i], True
        draws[t] = cur
        lps[t] = cur_lp

        if t < n_burn and (t + 1) % ADAPT_INTERVAL == 0:
            window = acc[t + 1 - ADAPT_INTERVAL: t + 1].mean(axis=0)
            s *= np.exp(window - TARGET_ACCEPTANCE)
            for k in range(n_chains):
                if t + 1 >= 10 * d:
                    cov = np.cov(draws[: t + 1, k].T, ddof=1)
                    cov = np.atleast_2d(cov) + 1e-8 * np.eye(d)
                    chol[k] = np.linalg.cholesky(cov)
                scale_history[k].append((t + 1, s[k]))

    chain = PosteriorChain(draws=draws, log_posterior_values=lps, accepted=acc,
                           scale_history=scale_history, n_burn=n_burn)
    if np.any(chain.acceptance_rate == 0.0):
        warnings.warn("all post-burn-in proposals rejected: a chain did not move")
    return chain


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


def diagnostics(chain: PosteriorChain) -> dict:
    """Split-R-hat and ESS per coordinate over >= 2 chains' post-burn-in draws,
    each chain split into halves of >= 2 draws."""
    post = chain.post_burn
    length, n_chains, d = post.shape[0] // 2, post.shape[1], post.shape[2]
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    if length < 2:
        raise ValueError("need at least 4 post-burn-in draws per chain")
    # (2K, length, d): chain k's first half at 2k, its second at 2k + 1
    seg = post[:2 * length].reshape(2, length, n_chains, d).transpose(2, 0, 1, 3)
    seg = seg.reshape(2 * n_chains, length, d)

    rhat = np.empty(d)
    ess = np.empty(d)
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
        ess[j] = sum(_ess_one(seg[k, :, j]) for k in range(2 * n_chains))
    return {
        "rhat": rhat,
        "ess": ess,
        "acceptance": chain.acceptance_rate.tolist(),
    }
