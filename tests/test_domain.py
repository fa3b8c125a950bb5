import numpy as np
import pytest

from mbcal.domain import (
    BoundaryConditions,
    ExperimentCase,
    MeasurementModel,
    ParameterVector,
    VoidMeasurement,
    partition_dataset,
    suggest_calibration_ids,
    validate_case,
)
from mbcal.synthbench import SynthConfig, generate_dataset


def make_case(case_id=1, upper=0.42, sigma=0.04, pressure=0.5):
    return ExperimentCase(
        case_id=case_id,
        x=BoundaryConditions(pressure, 0.4, 0.6, 0.7),
        y_exp=VoidMeasurement(0.1, 0.25, upper),
        meas=MeasurementModel(sigma_exp=sigma),
    )


def test_validate_accepts_good_case():
    case = make_case()
    assert validate_case(case) is case


def test_validate_idempotent():
    case = make_case()
    assert validate_case(validate_case(case)) is case


def test_validate_rejects_void_fraction_out_of_range():
    with pytest.raises(ValueError, match="out of \\[0,1\\]"):
        validate_case(make_case(upper=1.3))


def test_validate_rejects_zero_sigma():
    with pytest.raises(ValueError, match="nonpositive measurement sigma"):
        validate_case(make_case(sigma=0.0))


def test_validate_rejects_nonfinite_bc():
    with pytest.raises(ValueError, match="pressure"):
        validate_case(make_case(pressure=float("nan")))


def test_parameter_vector_needs_four():
    with pytest.raises(ValueError):
        ParameterVector((1.0, 2.0))
    assert ParameterVector((1, 1, 1, 1)).as_array().tolist() == [1.0, 1.0, 1.0, 1.0]


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(SynthConfig(n_cases=74, seed=1))


def test_partition_20_of_74(dataset):
    ids = suggest_calibration_ids(dataset, 20)
    part = partition_dataset(dataset, ids)
    assert len(part.calibration_ids) == 20
    assert len(part.validation_ids) == 54
    assert not part.calibration_ids & part.validation_ids


def test_partition_encompassment_scan(dataset):
    ids = suggest_calibration_ids(dataset, 20)
    part = partition_dataset(dataset, ids)
    by_id = {c.case_id: c for c in dataset}
    cal = np.array([by_id[i].x.as_array() for i in part.calibration_ids])
    val = np.array([by_id[i].x.as_array() for i in part.validation_ids])
    assert np.all(cal.min(axis=0) >= val.min(axis=0))
    assert np.all(cal.max(axis=0) <= val.max(axis=0))


def test_partition_order_independent(dataset):
    ids = suggest_calibration_ids(dataset, 20)
    shuffled = list(dataset)
    np.random.default_rng(0).shuffle(shuffled)
    assert partition_dataset(dataset, ids) == partition_dataset(shuffled, ids)


def test_partition_encompassment_violation(dataset):
    # the case holding the dataset-wide pressure maximum cannot be calibrated
    worst = max(dataset, key=lambda c: c.x.pressure)
    ids = suggest_calibration_ids(dataset, 19)
    with pytest.raises(ValueError, match="pressure"):
        partition_dataset(dataset, set(ids) | {worst.case_id})


def test_partition_empty_validation(dataset):
    with pytest.raises(ValueError, match="validation"):
        partition_dataset(dataset, {c.case_id for c in dataset})


def test_partition_unknown_id(dataset):
    with pytest.raises(ValueError, match="unknown"):
        partition_dataset(dataset, {99999})
