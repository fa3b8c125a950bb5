from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from mbcal.cli import _hash_of
from mbcal.mcmc import PosteriorChain, adaptive_mh, diagnostics


def std_normal(theta):
    return -0.5 * theta[:, 0] ** 2


def chain_k(chain, k):
    """Chain k of a run, with its own (n_samples, d) and (n_samples,) arrays."""
    return SimpleNamespace(
        draws=chain.draws[:, k], log_posterior_values=chain.log_posterior_values[:, k],
        accepted=chain.accepted[:, k], scale_history=chain.scale_history[k],
        post_burn=chain.post_burn[:, k], acceptance_rate=float(chain.acceptance_rate[k]),
    )


def one_chain(log_post, config):
    return chain_k(adaptive_mh(log_post, **config), 0)


def run(init, proposal_cov, n_samples, n_burn, seed, support=None):
    """adaptive_mh's arguments for one chain from init."""
    return dict(inits=np.atleast_2d(init), proposal_cov=proposal_cov, n_samples=n_samples,
                n_burn=n_burn, seeds=[seed], support=support)


def config_1d(*seeds, **kw):
    """adaptive_mh's arguments for one chain per seed, each from 0 in 1-D."""
    kw.setdefault("n_samples", 20000)
    kw.setdefault("n_burn", 4000)
    return dict(inits=np.zeros((len(seeds), 1)), proposal_cov=np.eye(1),
                seeds=list(seeds), **kw)


def test_standard_normal_moments():
    chain = one_chain(std_normal, config_1d(1))
    post = chain.post_burn[:, 0]
    assert abs(post.mean()) < 0.05
    assert abs(post.var() - 1.0) < 0.10
    assert 0.10 <= chain.acceptance_rate <= 0.45


def test_correlated_gaussian():
    cov = np.array([[1.0, -0.7], [-0.7, 1.0]])
    prec = np.linalg.inv(cov)
    chain = one_chain(
        lambda th: -0.5 * np.einsum("ki,ij,kj->k", th, prec, th),
        run(np.zeros(2), 0.5 * np.eye(2), n_samples=20000, n_burn=4000, seed=2),
    )
    corr = np.corrcoef(chain.post_burn.T)[0, 1]
    assert abs(corr + 0.7) < 0.05
    assert 0.10 <= chain.acceptance_rate <= 0.45


def test_reproducible_bit_identical():
    a = one_chain(std_normal, config_1d(3))
    b = one_chain(std_normal, config_1d(3))
    np.testing.assert_array_equal(a.draws, b.draws)
    np.testing.assert_array_equal(a.log_posterior_values, b.log_posterior_values)


def test_zero_proposal_scale_rejected():
    with pytest.raises(ValueError):
        one_chain(std_normal, run(np.zeros(1), np.zeros((1, 1)), 20000, 4000, 0))


def test_config_validation():
    with pytest.raises(ValueError):
        one_chain(std_normal, run(np.zeros(1), np.eye(1), n_samples=100, n_burn=100, seed=0))
    with pytest.raises(ValueError):
        one_chain(std_normal, run(np.zeros(2), np.eye(1), 20000, 4000, 0))
    with pytest.raises(ValueError, match="SPD"):
        one_chain(std_normal, run(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                                  20000, 4000, 0))
    with pytest.raises(ValueError, match="support"):
        one_chain(std_normal, run(np.zeros(1), np.eye(1), 20000, 4000, 0,
                                  support=(np.array([1.0]), np.array([2.0]))))
    with pytest.raises(ValueError, match="seed"):
        adaptive_mh(std_normal, **config_1d(0, 1) | {"seeds": [0]})


def test_nonfinite_init_rejected():
    with pytest.raises(ValueError, match="finite"):
        one_chain(lambda th: np.full(len(th), -np.inf), config_1d(0))


def test_draws_stay_in_support():
    lo, hi = np.array([0.05]), np.array([5.0])
    cfg = run(np.ones(1), np.eye(1), n_samples=5000, n_burn=1000, seed=4, support=(lo, hi))
    chain = one_chain(lambda th: np.zeros(len(th)), cfg)
    assert np.all(chain.draws >= lo) and np.all(chain.draws <= hi)


def test_adaptation_frozen_after_burn_in():
    chain = one_chain(std_normal, config_1d(5))
    assert max(step for step, _ in chain.scale_history) <= 4000


def test_double_well_matches_quadrature():
    # detailed-balance smoke test on a bimodal target, checked against
    # deterministic quadrature of the normalized density
    logp = lambda th: -((th[:, 0] ** 2 - 1.5) ** 2)
    dens = lambda v: np.exp(-((v**2 - 1.5) ** 2))
    z, _ = quad(dens, -6, 6)
    edges = np.linspace(-3, 3, 25)
    probs = np.array([quad(dens, a, b)[0] / z for a, b in zip(edges, edges[1:])])

    cfg = run(np.zeros(1), np.eye(1), n_samples=100000, n_burn=10000, seed=6)
    chain = one_chain(logp, cfg)
    counts, _ = np.histogram(chain.post_burn[:, 0], bins=edges)
    emp = counts / counts.sum()
    tv = 0.5 * np.abs(emp - probs / probs.sum()).sum()
    assert tv < 0.05


def _reference_chain(log_post, cfg):
    """Reference: one chain stepped alone with a one-row density, in the
    order of draws that the lockstep sampler keeps for each chain."""
    init, n_samples = cfg["inits"][0], cfg["n_samples"]
    d = init.size
    rng = np.random.default_rng(cfg["seeds"][0])
    cur, cur_lp = init.copy(), log_post(init[None])[0]
    s, chol = 2.38 / np.sqrt(d), np.linalg.cholesky(cfg["proposal_cov"])
    lo, hi = cfg["support"]
    draws, acc = np.empty((n_samples, d)), np.zeros(n_samples, dtype=bool)
    for t in range(n_samples):
        prop = cur + s * (chol @ rng.standard_normal(d))
        if (prop >= lo).all() and (prop <= hi).all():
            lp = log_post(prop[None])[0]
            if np.log(rng.random()) < lp - cur_lp:
                cur, cur_lp, acc[t] = prop, lp, True
        draws[t] = cur
        if t < cfg["n_burn"] and (t + 1) % 50 == 0:
            s *= np.exp(acc[t - 49: t + 1].mean() - 0.234)
            if t + 1 >= 10 * d:
                chol = np.linalg.cholesky(np.cov(draws[: t + 1].T, ddof=1) + 1e-8 * np.eye(d))
    return draws, acc


def test_lockstep_chains_equal_single_chain_runs():
    # K chains stepped together are, draw for draw, the K chains run alone.
    # The box is tight enough that some proposals fall outside it, where a
    # chain makes no density evaluation and draws no uniform.
    rows = []

    def logp(th):
        rows.append(len(th))
        return -0.5 * np.einsum("kd,kd->k", th, th)

    box = (np.full(2, -0.8), np.full(2, 0.8))
    inits = np.array([np.full(2, 0.15 * k) for k in range(4)])
    lockstep = adaptive_mh(logp, inits, 2 * np.eye(2), n_samples=600, n_burn=200,
                           seeds=[20 + k for k in range(4)], support=box)
    assert lockstep.draws.shape == (600, 4, 2)
    assert sum(rows) - 4 < 4 * 600  # the initial call is not a proposal
    assert lockstep.pooled.tobytes() == np.concatenate(
        [chain_k(lockstep, k).post_burn for k in range(4)]).tobytes()
    for k in range(4):
        cfg = run(inits[k], 2 * np.eye(2), n_samples=600, n_burn=200, seed=20 + k, support=box)
        alone, got = one_chain(logp, cfg), chain_k(lockstep, k)
        for name in ("draws", "log_posterior_values", "accepted"):
            assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
        assert got.scale_history == alone.scale_history
        assert lockstep.draws[:, k].tobytes() == alone.draws.tobytes()
        ref_draws, ref_acc = _reference_chain(logp, cfg)
        assert got.draws.tobytes() == ref_draws.tobytes()
        assert got.accepted.tobytes() == ref_acc.tobytes()
        assert 0 < got.accepted.sum() < 600


def test_diagnostics_well_mixed():
    d = diagnostics(adaptive_mh(std_normal, **config_1d(*range(4))))
    assert d["rhat"][0] < 1.05
    assert d["ess"][0] > 100
    assert len(d["acceptance"]) == 4


def test_diagnostics_frozen_chains_infinite_rhat():
    base = adaptive_mh(std_normal, **config_1d(7, 8, n_samples=200, n_burn=50))
    # chain 1 frozen at 0, chain 2 at 1
    frozen = PosteriorChain(
        draws=np.zeros_like(base.draws) + [[0.0], [1.0]],
        log_posterior_values=base.log_posterior_values,
        accepted=np.zeros_like(base.accepted), scale_history=[[], []], n_burn=50,
    )
    d = diagnostics(frozen)
    assert np.isinf(d["rhat"][0])
    assert d["acceptance"] == [0.0, 0.0]


def test_diagnostics_needs_two_chains():
    chain = adaptive_mh(std_normal, **config_1d(8, n_samples=200, n_burn=50))
    with pytest.raises(ValueError, match="2 chains"):
        diagnostics(chain)


def test_diagnostics_needs_four_post_burn_draws():
    # split R-hat halves each chain's post-burn-in draws; a half of fewer than
    # 2 draws has no sample variance
    for n_samples in (201, 203):
        chain = adaptive_mh(std_normal, **config_1d(8, 9, n_samples=n_samples, n_burn=200))
        with pytest.raises(ValueError, match="4 post-burn-in draws"):
            diagnostics(chain)
    chain = adaptive_mh(std_normal, **config_1d(8, 9, n_samples=204, n_burn=200))
    assert np.isfinite(diagnostics(chain)["rhat"]).all()


def test_chain_csv_roundtrip(tmp_path):
    chain = adaptive_mh(std_normal, **config_1d(9, n_samples=300, n_burn=100))
    path = tmp_path / "chain.csv"
    chain.to_csv(path, 0)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,theta1,log_post,accepted"
    assert len(lines) == 301


def _to_csv_per_row(chain, path, header_extra=None):
    """Reference: the chain writer as one f-string per row."""
    d = chain.draws.shape[1]
    names = [f"theta{j + 1}" for j in range(d)]
    with open(path, "w") as fh:
        if header_extra:
            fh.write(header_extra)
        fh.write("step," + ",".join(names) + ",log_post,accepted\n")
        for t in range(chain.draws.shape[0]):
            vals = ",".join(f"{v:.17g}" for v in chain.draws[t])
            fh.write(f"{t},{vals},{chain.log_posterior_values[t]:.17g},"
                     f"{int(chain.accepted[t])}\n")


def _chain(draws, lps, acc, n_burn=0):
    """One chain from its (n_samples, d), (n_samples,) and (n_samples,) arrays."""
    return PosteriorChain(draws=draws[:, None], log_posterior_values=lps[:, None],
                          accepted=acc[:, None], scale_history=[[]], n_burn=n_burn)


def test_chain_csv_matches_per_row_writer_and_reads_back(tmp_path):
    rng = np.random.default_rng(3)
    logp = lambda th: -0.5 * np.einsum("kd,kd->k", th, th)
    mh = adaptive_mh(logp, **run(np.ones(4), np.eye(4), n_samples=400, n_burn=100, seed=4))
    mh3 = adaptive_mh(logp, inits=np.ones((3, 4)) + [[0.0], [0.1], [-0.1]],
                      proposal_cov=np.eye(4), n_samples=400, n_burn=100, seeds=[4, 5, 6])
    awkward = np.array([[0.1, -0.0, 1e-300, 5.0], [1 / 3, 2.0**-1074, 1e17, -2.5e-8]])
    cases = [
        (mh, {}),
        (mh, {"header_extra": "# config_hash=abc\n"}),
        (_chain(awkward, np.array([-1e-12, -123456.789]), np.array([False, True])), {}),
        (_chain(rng.random((1, 3)), np.array([-7.25]), np.array([True])),
         {"header_extra": "# config_hash=one-row\n"}),
        (mh3, {"header_extra": "# config_hash=three\n"}),
    ]
    for i, (chain, kw) in enumerate(cases):
        paths = []
        for k in range(chain.draws.shape[1]):
            got, ref = tmp_path / f"fast_{i}_{k}.csv", tmp_path / f"ref_{i}_{k}.csv"
            chain.to_csv(got, k, **kw)
            _to_csv_per_row(chain_k(chain, k), ref, **kw)
            assert got.read_bytes() == ref.read_bytes()
            paths.append(got)
        if "header_extra" not in kw:
            continue
        for got in paths:
            with open(got, "rb") as fh:
                assert _hash_of(fh) == kw["header_extra"].strip().removeprefix("# config_hash=")
        back = PosteriorChain.read_csv(paths, chain.n_burn)
        for name in ("draws", "log_posterior_values", "accepted"):
            a, b = getattr(back, name), getattr(chain, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
