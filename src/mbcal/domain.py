"""Core data model: cases, parameters, datasets and the calibration split.

All types are immutable after construction; operations other than the
dataset CSV reader and writer (ingest_csv, write_dataset_csv) are pure
functions. Boundary conditions are stored normalized to [0, 1] -- any
affine map to physical units is dataset metadata, not part of this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundaryConditions",
    "ParameterVector",
    "VoidMeasurement",
    "MeasurementModel",
    "ExperimentCase",
    "Partition",
    "PARAMETER_NAMES",
    "BC_NAMES",
    "DATASET_HEADER",
    "validate_case",
    "ingest_csv",
    "write_dataset_csv",
    "partition_dataset",
    "suggest_calibration_ids",
]

PARAMETER_NAMES = ("P1008", "P1012", "P1022", "P1028")
BC_NAMES = ("pressure", "inlet_temperature", "mass_flow", "power")
LOCATION_NAMES = ("lower", "middle", "upper")

DATASET_HEADER = (
    "case_id,pressure,inlet_temperature,mass_flow,power,"
    "vf_lower,vf_middle,vf_upper,sigma_exp"
)


@dataclass(frozen=True)
class BoundaryConditions:
    pressure: float
    inlet_temperature: float
    mass_flow: float
    power: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.pressure, self.inlet_temperature, self.mass_flow, self.power]
        )


@dataclass(frozen=True)
class ParameterVector:
    """Four multiplicative physical-model factors (P1008, P1012, P1022, P1028)."""

    theta: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) != 4:
            raise ValueError("ParameterVector needs exactly 4 components")

    def as_array(self) -> np.ndarray:
        return np.array(self.theta)


@dataclass(frozen=True)
class VoidMeasurement:
    lower: float
    middle: float
    upper: float

    def as_array(self) -> np.ndarray:
        return np.array([self.lower, self.middle, self.upper])


@dataclass(frozen=True)
class MeasurementModel:
    sigma_exp: float


@dataclass(frozen=True)
class ExperimentCase:
    case_id: int
    x: BoundaryConditions
    y_exp: VoidMeasurement
    meas: MeasurementModel


@dataclass(frozen=True)
class Partition:
    calibration_ids: frozenset[int]
    validation_ids: frozenset[int]


def validate_case(case: ExperimentCase) -> ExperimentCase:
    """Check all case invariants; return the case unchanged or raise ValueError."""
    for name in BC_NAMES:
        v = getattr(case.x, name)
        if not math.isfinite(v):
            raise ValueError(f"non-finite boundary condition '{name}'")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"boundary condition '{name}' out of [0,1]: {v}")
    for name in LOCATION_NAMES:
        v = getattr(case.y_exp, name)
        if not math.isfinite(v):
            raise ValueError(f"non-finite void fraction '{name}'")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"void fraction '{name}' out of [0,1]: {v}")
    if not math.isfinite(case.meas.sigma_exp):
        raise ValueError("non-finite measurement sigma")
    if case.meas.sigma_exp <= 0.0:
        raise ValueError("nonpositive measurement sigma")
    return case


def ingest_csv(path) -> list[ExperimentCase]:
    """Parse and validate a dataset CSV in the standard case schema."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0]
    if header != DATASET_HEADER:
        expected = DATASET_HEADER.split(",")
        got = header.split(",")
        missing = [c for c in expected if c not in got]
        extra = [c for c in got if c not in expected]
        detail = []
        if missing:
            detail.append(f"missing column(s) {missing}")
        if extra:
            detail.append(f"unexpected column(s) {extra}")
        raise ValueError(
            f"{path}: bad header ({'; '.join(detail) or 'wrong column order'}); "
            f"expected '{DATASET_HEADER}'"
        )
    cases = []
    seen = set()
    for n, line in enumerate(lines[1:], 2):
        tokens = line.split(",")
        if len(tokens) != 9:
            raise ValueError(f"{path}: line {n}: expected 9 fields, got {len(tokens)}")
        try:
            cid = int(tokens[0])
            vals = [float(t) for t in tokens[1:]]
        except ValueError:
            raise ValueError(f"{path}: line {n}: unparseable value") from None
        if cid in seen:
            raise ValueError(f"{path}: line {n}: duplicate case_id {cid}")
        seen.add(cid)
        case = ExperimentCase(
            case_id=cid,
            x=BoundaryConditions(*vals[0:4]),
            y_exp=VoidMeasurement(*vals[4:7]),
            meas=MeasurementModel(sigma_exp=vals[7]),
        )
        try:
            validate_case(case)
        except ValueError as exc:
            raise ValueError(f"{path}: line {n}: {exc}") from None
        cases.append(case)
    return cases


def write_dataset_csv(cases, path) -> None:
    """Write cases in the schema ingest_csv reads; floats round-trip exactly."""
    with open(path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for c in cases:
            row = [str(c.case_id)] + [
                f"{v:.17g}"
                for v in (*c.x.as_array(), *c.y_exp.as_array(), c.meas.sigma_exp)
            ]
            fh.write(",".join(row) + "\n")


def partition_dataset(cases, calibration_ids) -> Partition:
    """Split cases into calibration/validation sets and verify encompassment.

    Encompassment is an axis-aligned box test: in every boundary-condition
    coordinate, the calibration range must lie inside the validation range.
    """
    all_ids = [c.case_id for c in cases]
    id_set = set(all_ids)
    if len(all_ids) != len(id_set):
        raise ValueError("duplicate case_id in dataset")
    cal = set(int(i) for i in calibration_ids)
    unknown = cal - id_set
    if unknown:
        raise ValueError(f"unknown case_id in calibration set: {sorted(unknown)}")
    val = id_set - cal
    if not cal:
        raise ValueError("empty calibration set")
    if not val:
        raise ValueError("empty validation set")
    if len(val) < 2:
        raise ValueError("need at least 2 validation cases")

    by_id = {c.case_id: c for c in cases}
    cal_x = np.array([by_id[i].x.as_array() for i in sorted(cal)])
    val_x = np.array([by_id[i].x.as_array() for i in sorted(val)])
    for k, name in enumerate(BC_NAMES):
        cmin, cmax = cal_x[:, k].min(), cal_x[:, k].max()
        vmin, vmax = val_x[:, k].min(), val_x[:, k].max()
        if cmin < vmin or cmax > vmax:
            offender = sorted(cal)[
                int(np.argmin(cal_x[:, k]) if cmin < vmin else np.argmax(cal_x[:, k]))
            ]
            raise ValueError(
                f"encompassment violation on coordinate '{name}' "
                f"(calibration case {offender} outside validation range)"
            )
    return Partition(frozenset(cal), frozenset(val))


def suggest_calibration_ids(cases, n_cal: int) -> list[int]:
    """Pick n_cal calibration cases near the edge of the covered domain.

    Convenience for building a partition that satisfies encompassment while
    stressing held-out generalization: exteriority is max over coordinates of
    the distance to the dataset-wide coordinate midpoint, scaled by the
    coordinate span; the cases holding a per-coordinate extreme are reserved
    for validation so the validation hull still encompasses the calibration
    set. Deterministic; ties broken by case_id.
    """
    if n_cal < 1 or n_cal > len(cases) - 2:
        raise ValueError("n_cal must leave at least 2 validation cases")
    xs = np.array([c.x.as_array() for c in cases])
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    reserved = set()
    for k in range(xs.shape[1]):
        reserved.add(cases[int(np.argmin(xs[:, k]))].case_id)
        reserved.add(cases[int(np.argmax(xs[:, k]))].case_id)
    score = np.max(np.abs(xs - (lo + hi) / 2.0) / span, axis=1)
    order = sorted(range(len(cases)), key=lambda i: (-score[i], cases[i].case_id))
    eligible = [cases[i].case_id for i in order
                if cases[i].case_id not in reserved]
    if len(eligible) < n_cal:
        raise ValueError("n_cal too large after reserving coordinate extremes")
    chosen = sorted(eligible[:n_cal])
    partition_dataset(cases, chosen)  # raises if the pick fails
    return chosen
