import numpy as np
import pytest

from mbcal.domain import validate_case
from mbcal.sampler import lhs_sample
from mbcal.synthbench import (
    ELEVATIONS,
    THETA_TRUE,
    SynthConfig,
    code_model_arrays,
    generate_dataset,
    true_discrepancy,
)


def test_no_power_no_void():
    x = np.array([0.5, 1.0, 0.5, 0.0])
    np.testing.assert_array_equal(code_model_arrays(x, np.ones(4)), 0.0)


def test_monotone_in_elevation():
    pts = lhs_sample(500, [(0.05, 0.95)] * 4 + [(0.05, 5)] * 4, seed=2)
    alpha = code_model_arrays(pts[:, :4], pts[:, 4:])
    assert np.all(np.diff(alpha, axis=1) >= -1e-12)


def test_outputs_in_unit_interval():
    pts = lhs_sample(1000, [(0, 1)] * 4 + [(0.05, 5)] * 4, seed=3)
    alpha = code_model_arrays(pts[:, :4], pts[:, 4:])
    assert np.all(alpha >= 0) and np.all(alpha < 1)


def test_monotone_in_heat_transfer_parameters():
    pts = lhs_sample(1000, [(0.05, 0.95)] * 4 + [(0.1, 5)] * 4, seed=4)
    h = 1e-6
    for j in (0, 1):
        up, dn = pts.copy(), pts.copy()
        up[:, 4 + j] += h
        dn[:, 4 + j] -= h
        grad = (code_model_arrays(up[:, :4], up[:, 4:])
                - code_model_arrays(dn[:, :4], dn[:, 4:])) / (2 * h)
        assert np.all(grad >= -1e-9)


def test_gradients_bounded_on_prior_box():
    pts = lhs_sample(500, [(0.05, 0.95)] * 4 + [(0.1, 5)] * 4, seed=5)
    h = 1e-6
    for j in range(8):
        up, dn = pts.copy(), pts.copy()
        up[:, j] += h
        dn[:, j] -= h
        grad = (code_model_arrays(up[:, :4], up[:, 4:])
                - code_model_arrays(dn[:, :4], dn[:, 4:])) / (2 * h)
        assert np.all(np.abs(grad) < 100)


def test_discrepancy_zero_power():
    assert np.all(true_discrepancy(np.array([0.3, 0.5, 0.5, 0.0])) == 0)


def test_discrepancy_full_power_values():
    delta = true_discrepancy(np.array([0.3, 0.5, 0.5, 1.0]))
    np.testing.assert_allclose(delta, 0.06 * ELEVATIONS**2, atol=1e-12)
    np.testing.assert_allclose(delta, [0.02203, 0.03268, 0.04521], atol=5e-5)


def test_discrepancy_ratio_independent_of_x():
    for power in (0.2, 0.5, 0.9):
        d = true_discrepancy(np.array([0.1, 0.9, 0.3, power]))
        np.testing.assert_allclose(d[2] / d[0], (0.868 / 0.606) ** 2, rtol=1e-12)


def test_generate_noiseless_equals_code_model():
    cfg = SynthConfig(discrepancy_on=False, sigma_exp=0.0, n_cases=20, seed=5)
    for case in generate_dataset(cfg):
        expected = code_model_arrays(case.x.as_array(), THETA_TRUE.as_array())
        np.testing.assert_allclose(case.y_exp.as_array(), expected, atol=1e-15)


def test_generate_deterministic():
    a = generate_dataset(SynthConfig(n_cases=30, seed=9))
    b = generate_dataset(SynthConfig(n_cases=30, seed=9))
    assert a == b


def test_generate_default_upper_bias():
    cases = generate_dataset(SynthConfig(seed=0))
    ones = np.ones(4)
    gaps = [
        case.y_exp.upper - code_model_arrays(case.x.as_array(), ones)[2]
        for case in cases
    ]
    assert np.mean(gaps) > 0


def test_generated_cases_valid_and_informative():
    cases = generate_dataset(SynthConfig(n_cases=74, seed=123))
    assert len(cases) == 74
    assert len({c.case_id for c in cases}) == 74
    for case in cases:
        validate_case(case)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(sigma_exp=-0.1)
    with pytest.raises(ValueError):
        SynthConfig(n_cases=4)

