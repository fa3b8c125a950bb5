import numpy as np
import pytest

from mbcal.sampler import lhs_sample, uniform_grid


def stratum_counts(design, ranges):
    n, d = design.shape
    counts = np.zeros((d, n), dtype=int)
    for j, (lo, hi) in enumerate(ranges):
        strata = np.floor((design[:, j] - lo) / (hi - lo) * n).astype(int)
        strata = np.clip(strata, 0, n - 1)
        for k in strata:
            counts[j, k] += 1
    return counts


def test_lhs_stratification_100x4():
    design = lhs_sample(100, [(0, 5)] * 4, seed=42)
    assert design.shape == (100, 4)
    assert np.all(stratum_counts(design, [(0, 5)] * 4) == 1)


def test_lhs_single_point():
    design = lhs_sample(1, [(0, 1), (-2, 3)], seed=0)
    assert design.shape == (1, 2)
    assert 0 <= design[0, 0] <= 1
    assert -2 <= design[0, 1] <= 3


def test_lhs_deterministic():
    a = lhs_sample(10, [(0, 1)] * 2, seed=7)
    b = lhs_sample(10, [(0, 1)] * 2, seed=7)
    np.testing.assert_array_equal(a, b)


def test_lhs_different_seeds_differ():
    a = lhs_sample(10, [(0, 1)] * 2, seed=7)
    b = lhs_sample(10, [(0, 1)] * 2, seed=8)
    assert not np.array_equal(a, b)


def test_lhs_scaling_equivariance():
    unit = lhs_sample(25, [(0, 1)] * 3, seed=3)
    ranges = [(2, 10), (-1, 1), (0, 5)]
    box = lhs_sample(25, ranges, seed=3)
    mapped = np.empty_like(unit)
    for j, (lo, hi) in enumerate(ranges):
        mapped[:, j] = lo + (hi - lo) * unit[:, j]
    np.testing.assert_allclose(mapped, box, atol=1e-12)


def test_lhs_invalid_range():
    with pytest.raises(ValueError):
        lhs_sample(5, [(1, 1)], seed=0)
    with pytest.raises(ValueError):
        lhs_sample(0, [(0, 1)], seed=0)


def test_uniform_grid_50():
    g = uniform_grid(50, (0, 5))
    assert g[0] == 0 and g[-1] == 5
    np.testing.assert_allclose(np.diff(g), 5 / 49)
    assert np.all(np.diff(g) > 0)


def test_uniform_grid_endpoints():
    np.testing.assert_array_equal(uniform_grid(2, (0, 1)), [0, 1])
    np.testing.assert_allclose(uniform_grid(3, (-1, 1)), [-1, 0, 1])


def test_uniform_grid_errors():
    with pytest.raises(ValueError):
        uniform_grid(1, (0, 1))
    with pytest.raises(ValueError):
        uniform_grid(5, (2, 2))
