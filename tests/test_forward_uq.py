import numpy as np
import pytest

from mbcal.forward_uq import propagate, rmse_report
from mbcal.synthbench import SynthConfig, code_model_arrays, generate_dataset


runner = code_model_arrays


def nominal(cases):
    xs = np.array([c.x.as_array() for c in cases])
    return runner(xs, np.ones_like(xs))


@pytest.fixture(scope="module")
def cases():
    return generate_dataset(SynthConfig(n_cases=20, seed=7))


def test_point_mass_posterior(cases):
    theta = np.array([1.3, 0.8, 1.1, 0.9])
    draws = np.tile(theta, (50, 1))
    summary = propagate(runner, cases, draws, n_use=50)
    for i, case in enumerate(cases):
        np.testing.assert_allclose(summary.mean[i], runner(case.x.as_array(), theta))
    np.testing.assert_allclose(summary.std, 0.0, atol=1e-15)


def test_propagate_preconditions(cases):
    draws = np.ones((10, 4))
    with pytest.raises(ValueError, match="empty draw set"):
        propagate(runner, cases, draws, n_use=0)
    with pytest.raises(ValueError, match="exceeds"):
        propagate(runner, cases, draws, n_use=11)


def test_propagate_equals_per_case_theta_loop(cases):
    rng = np.random.default_rng(2)
    draws = np.clip(1.0 + 0.3 * rng.standard_normal((300, 4)), 0.05, 5.0)
    summary = propagate(runner, cases, draws, n_use=120)
    idx = np.unique(np.linspace(0, 299, 120).astype(int))
    ref = np.array([[runner(c.x.as_array(), th) for th in draws[idx]] for c in cases])
    np.testing.assert_array_equal(summary.mean, ref.mean(axis=1))
    np.testing.assert_array_equal(summary.std, ref.std(axis=1))
    p = np.percentile(ref, [2.5, 97.5], axis=1)
    np.testing.assert_array_equal(summary.p025, p[0])
    np.testing.assert_array_equal(summary.p975, p[1])


def test_propagate_names_failing_case(cases):
    bad_id = cases[3].case_id

    def failing(x, theta):
        if np.array_equal(x[0], cases[3].x.as_array()):
            raise OSError("solver crashed")
        return runner(x, theta)

    with pytest.raises(RuntimeError, match=f"case {bad_id}"):
        propagate(failing, cases, np.ones((10, 4)), n_use=10)
    with pytest.raises(RuntimeError, match="shape"):
        propagate(lambda x, theta: runner(x, theta)[:-1], cases, np.ones((10, 4)), 10)


def test_propagate_deterministic(cases):
    rng = np.random.default_rng(0)
    draws = 1.0 + 0.1 * rng.standard_normal((200, 4))
    a = propagate(runner, cases, draws, n_use=50)
    b = propagate(runner, cases, draws, n_use=50)
    np.testing.assert_array_equal(a.mean, b.mean)


def test_propagate_mc_stability(cases):
    rng = np.random.default_rng(1)
    draws = np.clip(1.0 + 0.2 * rng.standard_normal((2000, 4)), 0.1, 5.0)
    s500 = propagate(runner, cases, draws, n_use=500)
    s1000 = propagate(runner, cases, draws, n_use=1000)
    # relative comparison is only meaningful away from the saturated
    # (near-zero-std) cases produced by the max(0, .) floor
    mask = s1000.std > 2e-2
    rel = np.abs(s500.std[mask] - s1000.std[mask]) / s1000.std[mask]
    assert np.all(rel < 0.10)


def test_rmse_zero_for_perfect_predictions(cases):
    y = np.array([c.y_exp.as_array() for c in cases])
    summary = propagate(runner, cases, np.ones((5, 4)), n_use=5)
    summary.mean = y.copy()
    report = rmse_report(summary, y.copy(), cases)
    assert report.rmse_posterior == 0.0
    assert report.rmse_prior == 0.0


def test_rmse_hand_computed(cases):
    two = cases[:2]
    summary = propagate(runner, two, np.ones((5, 4)), n_use=5)
    y = np.array([c.y_exp.as_array() for c in two])
    pred = y.copy()
    pred[0, 0] = y[0, 0] - 0.03
    pred[1, 0] = y[1, 0] + 0.04
    summary.mean = y.copy()  # posterior perfect, prior carries the residuals
    report = rmse_report(summary, pred, two)
    # residuals over 6 observations: {0.03, -0.04, 0, 0, 0, 0}
    expected = np.sqrt((0.0009 + 0.0016) / 6)
    assert abs(report.rmse_prior - expected) < 1e-12
    # two-residual definition check from the same numbers
    assert abs(np.sqrt((0.0009 + 0.0016) / 2) - 0.03536) < 5e-5


def test_rmse_permutation_invariant(cases):
    rng = np.random.default_rng(3)
    draws = np.clip(1.0 + 0.1 * rng.standard_normal((100, 4)), 0.1, 5.0)
    prior = nominal(cases)
    report = rmse_report(propagate(runner, cases, draws, 50), prior, cases)
    perm = list(np.random.default_rng(4).permutation(len(cases)))
    cases_p = [cases[i] for i in perm]
    prior_p = prior[perm]
    report_p = rmse_report(propagate(runner, cases_p, draws, 50), prior_p, cases_p)
    assert abs(report.rmse_posterior - report_p.rmse_posterior) < 1e-12
    assert report.rmse_posterior >= 0


def test_rmse_misaligned_ids(cases):
    summary = propagate(runner, cases, np.ones((5, 4)), n_use=5)
    prior = nominal(cases)
    with pytest.raises(ValueError, match="misaligned"):
        rmse_report(summary, prior[:-1], list(reversed(cases)))


def test_coverage_with_correct_model():
    # correctly specified generator: posterior band around theta_true
    cfg = SynthConfig(discrepancy_on=False, sigma_exp=0.01, n_cases=30, seed=9)
    cases = generate_dataset(cfg)
    rng = np.random.default_rng(5)
    draws = cfg.theta_true.as_array() + 0.05 * rng.standard_normal((1000, 4))
    summary = propagate(runner, cases, draws, n_use=500)
    prior = nominal(cases)
    report = rmse_report(summary, prior, cases)
    assert 0.85 <= report.coverage_95 <= 1.0
