from dataclasses import replace

import numpy as np
import pytest

import mbcal.gp as gp
from mbcal.calibration import (
    CalibrationMode,
    LogPosterior,
    PriorSpec,
    SurrogatePair,
    build_gp_cc,
    build_gp_md,
    calibrate,
)
from mbcal.domain import ParameterVector, partition_dataset, suggest_calibration_ids
from mbcal.mcmc import adaptive_mh
from mbcal.sampler import lhs_sample
from mbcal.synthbench import SynthConfig, code_model_arrays, generate_dataset


runner = code_model_arrays


@pytest.fixture(scope="module")
def setup():
    cases = generate_dataset(SynthConfig(n_cases=40, seed=11))
    ids = suggest_calibration_ids(cases, 10)
    part = partition_dataset(cases, ids)
    return cases, part


@pytest.fixture(scope="module")
def pair(setup):
    cases, part = setup
    gp_cc = build_gp_cc(part, cases, runner, theta_design_size=20,
                        prior=PriorSpec(), seed=0, restarts=3)
    gp_md = build_gp_md(part, cases, runner, restarts=3, seed=1)
    return SurrogatePair(gp_cc=gp_cc, gp_md=gp_md)


def _pair_for(pair, mode):
    """The surrogates a calibration mode uses: GP_MD only with discrepancy."""
    return pair if mode is CalibrationMode.WithDiscrepancy else SurrogatePair(gp_cc=pair.gp_cc)


def test_gp_cc_shape(setup, pair):
    cases, part = setup
    assert pair.gp_cc.n == 10 * 20
    assert pair.gp_cc.d == 8
    assert pair.gp_cc.m == 3


def test_gp_cc_targets_equal_per_row_runs(setup, monkeypatch):
    cases, part = setup
    seen = {}

    def capture(inputs, outputs, **kwargs):  # the fit itself is not under test
        seen["x"], seen["y"] = inputs, outputs

    monkeypatch.setattr(gp, "fit", capture)
    build_gp_cc(part, cases, runner, theta_design_size=20, prior=PriorSpec(), seed=0)
    # the per-(case, theta) loop the batched calls replaced, rows in the same order
    cal = sorted((c for c in cases if c.case_id in part.calibration_ids),
                 key=lambda c: c.case_id)
    seeds = np.random.SeedSequence(0).generate_state(len(cal))
    rows_x, rows_y = [], []
    for case, cseed in zip(cal, seeds):
        for th in lhs_sample(20, PriorSpec().ranges, seed=int(cseed)):
            rows_x.append(np.concatenate([case.x.as_array(), th]))
            rows_y.append(runner(case.x.as_array(), th))
    np.testing.assert_array_equal(seen["x"], np.array(rows_x))
    np.testing.assert_array_equal(seen["y"], np.array(rows_y))


def test_gp_cc_names_failing_case(setup):
    cases, part = setup
    first = min(part.calibration_ids)

    def failing(x, theta):
        raise OSError("solver crashed")

    with pytest.raises(RuntimeError, match=f"case {first}"):
        build_gp_cc(part, cases, failing, theta_design_size=20, prior=PriorSpec(), seed=0)


def test_gp_cc_loo_quality(pair):
    metrics = gp.loo_cv(pair.gp_cc)
    for m in metrics:
        assert m["coefficient_of_determination"] > 0.98


def test_gp_cc_small_design_rejected(setup):
    cases, part = setup
    with pytest.raises(ValueError):
        build_gp_cc(part, cases, runner, theta_design_size=1,
                    prior=PriorSpec(), seed=0)


def test_gp_md_learns_injected_discrepancy(setup, pair):
    from mbcal.synthbench import THETA_TRUE, true_discrepancy

    cases, part = setup
    val = [c for c in cases if c.case_id in part.validation_ids]
    xs = np.array([c.x.as_array() for c in val])
    mean, _ = gp.predict(pair.gp_md, xs)
    delta_true = true_discrepancy(xs)
    # residuals include the theta_true-vs-nominal signal, so compare against
    # the full true residual y - code(x, 1) minus noise
    ones = np.ones(4)
    full = np.array([
        code_model_arrays(c.x.as_array(), THETA_TRUE.as_array())
        + true_discrepancy(c.x.as_array())
        - code_model_arrays(c.x.as_array(), ones)
        for c in val
    ])
    sigma = val[0].meas.sigma_exp
    close = np.abs(mean - full) <= 2 * sigma
    assert close.mean() >= 0.90


def test_gp_md_zero_discrepancy_zero_noise():
    cfg = SynthConfig(discrepancy_on=False, sigma_exp=0.0, n_cases=30, seed=2,
                      theta_true=ParameterVector((1.0, 1.0, 1.0, 1.0)))
    cases = generate_dataset(cfg)
    part = partition_dataset(cases, suggest_calibration_ids(cases, 8))
    model = build_gp_md(part, cases, runner, restarts=3, seed=0)
    val = [c for c in cases if c.case_id in part.validation_ids]
    mean, _ = gp.predict(model, np.array([c.x.as_array() for c in val]))
    assert np.max(np.abs(mean)) < 1e-3


def test_gp_md_too_few_validation_cases():
    from mbcal.domain import Partition

    cases = generate_dataset(SynthConfig(n_cases=10, seed=4))
    ids = [c.case_id for c in cases]
    part = Partition(frozenset(ids[:7]), frozenset(ids[7:]))
    with pytest.raises(ValueError, match="validation"):
        build_gp_md(part, cases, runner)


def test_disjointness_enforced(setup, pair):
    cases, part = setup
    # a discrepancy GP trained on calibration-case boundary conditions must
    # be refused
    cal = [c for c in cases if c.case_id in part.calibration_ids]
    xs = np.array([c.x.as_array() for c in cal])
    resid = np.array([c.y_exp.as_array() for c in cal]) - 0.5
    bad_md = gp.fit(xs, resid, restarts=2, seed=0)
    with pytest.raises(ValueError, match="disjoint"):
        SurrogatePair(gp_cc=pair.gp_cc, gp_md=bad_md)


def test_log_posterior_outside_prior(setup, pair):
    cases, part = setup
    lp = LogPosterior(pair, cases, part, PriorSpec())
    assert lp(np.array([[6.0, 1, 1, 1]]))[0] == -np.inf
    assert np.isfinite(lp(np.ones((1, 4)))[0])


def test_log_posterior_gaussian_closed_form(setup, pair):
    # single case, single output, zero residual: the Gaussian log-density
    # term reduces to -log(2 pi v)/2 per observation
    cases, part = setup
    lp = LogPosterior(SurrogatePair(gp_cc=pair.gp_cc), cases, part, PriorSpec())
    theta = np.ones(4)
    pts = np.hstack([lp.x_cal, np.tile(theta, (lp.x_cal.shape[0], 1))])
    mean, s2_code = gp.predict(pair.gp_cc, pts)
    v = lp.sigma2_exp + s2_code
    r = lp.y_exp - mean
    expected = -0.5 * np.sum(r**2 / v + np.log(2 * np.pi * v)) + lp.prior.log_density
    assert abs(lp(theta[None])[0] - expected) < 1e-10


@pytest.mark.parametrize("mode", list(CalibrationMode))
def test_factored_log_posterior_matches_dense_predict(setup, pair, mode):
    # reference: every calibration row [x_i, theta] through gp.predict.
    # Agreement is to rounding, which grows with |log posterior| (it reaches
    # ~2e3 in the box), so the 1e-10 bound is absolute up to |lp| = 1 and
    # relative beyond.
    cases, part = setup
    lp = LogPosterior(_pair_for(pair, mode), cases, part, PriorSpec())
    model = pair.gp_cc
    split = gp.SplitPredictor(model, lp.x_cal)
    thetas = lhs_sample(200, PriorSpec().ranges, seed=5)
    m2, v2 = split.standardized(thetas)  # scaled back to output units below
    lps = lp(thetas)
    for theta, m2_k, v2_k, lp_k in zip(thetas, m2, v2, lps):
        pts = np.hstack([lp.x_cal, np.tile(theta, (lp.x_cal.shape[0], 1))])
        mean, s2_code = gp.predict(model, pts)
        np.testing.assert_allclose(m2_k.T * model.out_std + model.out_mean, mean,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(v2_k[:, None] * model.out_std**2, s2_code,
                                   rtol=0, atol=1e-12)
        v = lp.sigma2_exp + lp.sigma2_delta + s2_code
        r = lp.y_exp - mean - lp.delta
        ref = -0.5 * np.sum(r**2 / v + np.log(2 * np.pi * v)) + lp.prior.log_density
        assert abs(lp_k - ref) <= 1e-10 * max(1.0, abs(ref))
    for outside in ([5.01, 1, 1, 1], [1, 1, 1, 0.04], [1, np.nan, 1, 1]):
        assert lp(np.array([outside]))[0] == -np.inf


def _dense_log_posterior(pair, lp):
    """Reference density of (K, 4) rows: every calibration row [x_i, theta]
    through gp.predict, one theta row at a time."""
    prior = lp.prior
    if pair.gp_md is not None:
        delta, sigma2_delta = gp.predict(pair.gp_md, lp.x_cal)
    else:
        delta, sigma2_delta = 0.0, 0.0

    def dense_row(theta):
        if not (np.all(theta >= prior.lo) and np.all(theta <= prior.hi)):
            return -np.inf
        pts = np.hstack([lp.x_cal, np.tile(theta, (lp.x_cal.shape[0], 1))])
        mean, s2_code = gp.predict(pair.gp_cc, pts)
        v = lp.sigma2_exp + sigma2_delta + s2_code
        r = lp.y_exp - mean - delta
        return float(-0.5 * np.sum(r**2 / v + np.log(2 * np.pi * v)) + prior.log_density)

    return lambda thetas: np.array([dense_row(theta) for theta in thetas])


@pytest.mark.parametrize("mode", list(CalibrationMode))
def test_batched_log_posterior_rows_match_single_rows(setup, pair, mode):
    # one (K, 4) call gives each row the value of its own one-row call and of
    # the dense reference; rows outside the box or holding NaN are -inf and
    # leave the other rows' values alone
    cases, part = setup
    mode_pair = _pair_for(pair, mode)
    lp = LogPosterior(mode_pair, cases, part, PriorSpec())
    thetas = lhs_sample(40, PriorSpec().ranges, seed=13)
    bad = [3, 17, 25, 39]
    thetas[3, 0], thetas[17, 3], thetas[25, 1], thetas[39] = 5.01, 0.04, np.nan, np.nan
    batch = lp(thetas)
    single = np.array([lp(theta[None])[0] for theta in thetas])
    assert np.all(batch[bad] == -np.inf) and np.all(single[bad] == -np.inf)
    good = np.setdiff1d(np.arange(len(thetas)), bad)
    np.testing.assert_allclose(batch[good], single[good], rtol=1e-10, atol=0)
    np.testing.assert_allclose(batch[good], _dense_log_posterior(mode_pair, lp)(thetas[good]),
                               rtol=1e-10, atol=0)
    assert np.all(lp(thetas[bad]) == -np.inf)


@pytest.mark.parametrize("mode", list(CalibrationMode))
def test_fused_log_posterior_keeps_mh_chain(setup, pair, mode):
    # the folded, theta-factored density must steer adaptive MH exactly as a
    # dense gp.predict density does: same draws, same accept flags
    cases, part = setup
    mode_pair = _pair_for(pair, mode)
    lp = LogPosterior(mode_pair, cases, part, PriorSpec())
    prior = PriorSpec()
    dense = _dense_log_posterior(mode_pair, lp)
    fused, ref = (adaptive_mh(f, np.ones((1, 4)), np.eye(4) * 0.06, n_samples=500,
                              n_burn=200, seeds=[12],
                              support=(np.full(4, prior.lo), np.full(4, prior.hi)))
                  for f in (lp, dense))
    assert fused.draws.tobytes() == ref.draws.tobytes()
    assert fused.accepted.tobytes() == ref.accepted.tobytes()
    assert fused.accepted.sum() > 50
    np.testing.assert_allclose(fused.log_posterior_values, ref.log_posterior_values,
                               rtol=1e-12, atol=0)


def test_mode_consistency_zero_discrepancy(setup, pair):
    # a pair without GP_MD is the no-discrepancy density: delta and its
    # variance are zero, and only the GP_MD moves the density
    cases, part = setup
    lp_no = LogPosterior(SurrogatePair(gp_cc=pair.gp_cc), cases, part, PriorSpec())
    lp_with = LogPosterior(pair, cases, part, PriorSpec())
    assert not lp_no.delta.any() and not lp_no.sigma2_delta.any()
    assert lp_with.delta.any() and lp_with.sigma2_delta.all()
    for theta in (np.ones(4), np.array([1.5, 0.7, 2.0, 0.3])):
        assert lp_with(theta[None])[0] != lp_no(theta[None])[0]


def test_log_posterior_finite_on_prior_box(setup, pair):
    cases, part = setup
    lp = LogPosterior(pair, cases, part, PriorSpec())
    sweep = lhs_sample(500, [(0.06, 4.99)] * 4, seed=8)
    vals = lp(sweep)
    assert np.all(np.isfinite(vals))


def test_variance_inflation_flattens_posterior(setup, pair):
    cases, part = setup
    no_md = SurrogatePair(gp_cc=pair.gp_cc)
    lp = LogPosterior(no_md, cases, part, PriorSpec())
    a, b = np.ones((1, 4)), np.array([[2.0, 0.5, 1.5, 0.8]])
    base_gap = abs(lp(a)[0] - lp(b)[0])
    # sigma_exp 4x larger: sigma2_exp 16x larger
    noisy = [replace(c, meas=replace(c.meas, sigma_exp=4 * c.meas.sigma_exp)) for c in cases]
    lp = LogPosterior(no_md, noisy, part, PriorSpec())
    inflated_gap = abs(lp(a)[0] - lp(b)[0])
    assert inflated_gap < base_gap


def test_calibrate_needs_two_chains(setup, pair):
    cases, part = setup
    with pytest.raises(ValueError, match="chains"):
        calibrate(SurrogatePair(gp_cc=pair.gp_cc), cases, part, PriorSpec(),
                  n_samples=100, n_burn=50, n_chains=1, seed=0)


def test_calibrate_posterior_structure(setup, pair):
    cases, part = setup
    mc = dict(n_samples=4000, n_burn=1000, n_chains=2, seed=3)
    res_w = calibrate(pair, cases, part, PriorSpec(), **mc)
    res_n = calibrate(SurrogatePair(gp_cc=pair.gp_cc), cases, part, PriorSpec(), **mc)
    assert res_w.correlation[0, 1] < -0.2
    assert res_n.correlation[0, 1] < -0.2
    narrower = sum(
        res_n.summary[p]["std"] < res_w.summary[p]["std"]
        for p in ("P1008", "P1012", "P1022", "P1028")
    )
    assert narrower >= 3
    for res in (res_w, res_n):
        draws = res.chain.pooled
        assert np.all(draws >= 0.05) and np.all(draws <= 5.0)
        for a in res.diagnostics["acceptance"]:
            assert 0.10 <= a <= 0.45
