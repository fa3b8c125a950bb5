import numpy as np
import pytest

from mbcal.domain import BoundaryConditions
from mbcal.sampler import uniform_grid
from mbcal.sensitivity import oat_screen, sobol_indices
from mbcal.synthbench import code_model_arrays

X_FIXED = BoundaryConditions(0.5, 0.3, 0.5, 0.8).as_array()

synth_runner = code_model_arrays


def runner_with_dummies(x, theta8):
    return code_model_arrays(x, theta8[:, :4])


def test_oat_inert_parameter_excluded():
    res = oat_screen(runner_with_dummies, X_FIXED, [(0, 5)] * 8, n=50, threshold=1e-3)
    np.testing.assert_allclose(res.variances[4:], 0.0, atol=1e-15)
    for name in ("p5", "p6", "p7", "p8"):
        assert name not in res.selected


def test_oat_equals_per_row_sweep():
    res = oat_screen(runner_with_dummies, X_FIXED, [(0, 5)] * 8, n=50, threshold=1e-3)
    for i in range(8):
        rows = []
        for g in uniform_grid(50, (0, 5)):
            theta = np.ones(8)
            theta[i] = g
            rows.append(code_model_arrays(X_FIXED, theta[:4]))
        np.testing.assert_array_equal(res.variances[i], np.array(rows).var(axis=0))


def test_oat_all_four_synth_parameters_selected():
    res = oat_screen(synth_runner, X_FIXED, [(0, 5)] * 4, n=50, threshold=1e-3,
                     names=["P1008", "P1012", "P1022", "P1028"])
    assert set(res.selected) == {"P1008", "P1012", "P1022", "P1028"}


def test_oat_infinite_threshold_selects_none():
    res = oat_screen(synth_runner, X_FIXED, [(0, 5)] * 4, n=20,
                     threshold=float("inf"))
    assert res.selected == ()
    assert np.all(res.variances[:4].max(axis=1) > 0)


def test_oat_selection_invariant_under_reordering():
    res = oat_screen(runner_with_dummies, X_FIXED, [(0, 5)] * 8, n=30,
                     threshold=1e-3)
    perm = [3, 0, 7, 1, 5, 2, 6, 4]

    def permuted_runner(x, theta8):
        t = np.empty_like(theta8)
        t[:, perm] = theta8
        return runner_with_dummies(x, t)

    res_p = oat_screen(
        permuted_runner, X_FIXED,
        [(0, 5)] * 8, n=30, threshold=1e-3,
        names=[f"p{perm[j] + 1}" for j in range(8)],
    )
    assert set(res.selected) == set(res_p.selected)


def test_oat_runner_failure_reports_parameter():
    def bad(x, theta):
        if np.any(theta[:, 1] > 4):
            raise RuntimeError("boom")
        return theta.sum(axis=1, keepdims=True)

    with pytest.raises(RuntimeError, match="parameter 1"):
        oat_screen(bad, X_FIXED, [(0, 5)] * 2, n=10, threshold=1e-3)


def test_oat_preconditions():
    with pytest.raises(ValueError):
        oat_screen(synth_runner, X_FIXED, [(0, 5)] * 4, n=1, threshold=1e-3)
    with pytest.raises(ValueError):
        oat_screen(synth_runner, X_FIXED, [(0, 5)] * 4, n=10, threshold=0.0)


def test_sobol_linear_function():
    res = sobol_indices(
        lambda th: np.atleast_2d(th)[:, 0] * 2 + np.atleast_2d(th)[:, 1],
        [(0, 1)] * 2, 2**13, seed=5,
    )
    assert abs(res.first_order[0, 0] - 0.8) < 0.03
    assert abs(res.first_order[1, 0] - 0.2) < 0.03
    # additive function: total ~= first order
    np.testing.assert_allclose(res.total, res.first_order, atol=0.05)
    assert res.first_order[:, 0].sum() < 1.05


def test_sobol_runner_error_propagates():
    calls = []

    def failing(th):
        calls.append(th.shape)
        raise OSError("solver crashed")

    with pytest.raises(OSError, match="solver crashed"):
        sobol_indices(failing, [(0, 1)] * 2, 64, seed=0)
    assert calls == [(64, 2)]  # no row-by-row retry


def test_sobol_constant_function_zero():
    with pytest.warns(UserWarning):
        res = sobol_indices(lambda th: np.full(np.atleast_2d(th).shape[0], 3.0),
                            [(0, 1)] * 3, 64, seed=0)
    np.testing.assert_array_equal(res.first_order, 0.0)
    np.testing.assert_array_equal(res.total, 0.0)


def test_sobol_reproducible():
    f = lambda th: np.sin(np.atleast_2d(th)).sum(axis=1)
    a = sobol_indices(f, [(0, 1)] * 3, 256, seed=9)
    b = sobol_indices(f, [(0, 1)] * 3, 256, seed=9)
    np.testing.assert_array_equal(a.first_order, b.first_order)
    np.testing.assert_array_equal(a.total, b.total)


def test_sobol_total_at_least_first():
    def ishigami(th):
        th = np.atleast_2d(th)
        return (np.sin(th[:, 0]) + 7 * np.sin(th[:, 1]) ** 2
                + 0.1 * th[:, 2] ** 4 * np.sin(th[:, 0]))

    res = sobol_indices(ishigami, [(-np.pi, np.pi)] * 3, 2**12, seed=3)
    assert np.all(res.total >= res.first_order - 0.05)
    assert np.all(res.first_order > -0.05) and np.all(res.first_order < 1.05)


def test_sobol_preconditions():
    f = lambda th: np.atleast_2d(th).sum(axis=1)
    with pytest.raises(ValueError):
        sobol_indices(f, [(0, 1)], 100, seed=0)  # not a power of two
    with pytest.raises(ValueError):
        sobol_indices(f, [(0, 1)], 32, seed=0)  # too small
