"""Config-driven pipeline: ingest -> partition -> screen -> sobol ->
calibrate (per mode) -> validate -> export.

Config files are flat ``key = value`` text; unknown keys are errors. Every
artifact carries the config hash on its first line (``# config_hash=...`` for
CSVs, a top-level key for the GP JSON files); resume reuses artifacts whose
hash matches and refuses mismatched ones. The hash covers the config and the
bytes of the dataset and partition files. Artifacts are written to a
temporary file and renamed into place, so none is ever left half-written.

The forward model is ``synthbench.code_model_arrays``, called through the
batched runner contract ``runner(X, Theta) -> Y`` (see README).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gp
from .calibration import (
    CalibrationMode,
    CalibrationResult,
    PriorSpec,
    SurrogatePair,
    build_gp_cc,
    build_gp_md,
    calibrate,
)
from .domain import (
    DATASET_HEADER,
    LOCATION_NAMES,
    PARAMETER_NAMES,
    BoundaryConditions,
    ExperimentCase,
    MeasurementModel,
    VoidMeasurement,
    partition_dataset,
    validate_case,
)
from .forward_uq import propagate, rmse_report
from .mcmc import McmcConfig, PosteriorChain, diagnostics
from .sensitivity import oat_screen, sobol_indices
from .synthbench import SynthConfig, code_model_arrays, generate_dataset

SCREEN_NAMES = PARAMETER_NAMES + ("D1", "D2", "D3", "D4")
SCREEN_RANGE = (0.0, 5.0)

_DEFAULTS = {
    "prior_lo": "0.05",
    "prior_hi": "5.0",
    "theta_design_size": "100",
    "sobol_n_base": "4096",
    "run_screen": "true",
    "run_sobol": "false",
    "screen_threshold": "1e-3",
    "screen_points": "50",
    "n_samples": "20000",
    "n_burn": "4000",
    "chains": "4",
    "seed": "0",
    "gp_restarts": "8",
    "modes": "with_discrepancy,no_discrepancy",
    "n_propagate": "500",
    "thin": "10",
}
_REQUIRED = {"dataset_path", "out_dir"}
_KNOWN = _REQUIRED | set(_DEFAULTS) | {"calibration_ids", "partition_file"}


@dataclass
class PipelineConfig:
    dataset_path: str
    out_dir: str
    calibration_ids: list[int]
    prior: PriorSpec
    theta_design_size: int
    sobol_n_base: int
    run_screen: bool
    run_sobol: bool
    screen_threshold: float
    screen_points: int
    n_samples: int
    n_burn: int
    chains: int
    seed: int
    gp_restarts: int
    modes: list[CalibrationMode]
    n_propagate: int
    thin: int
    raw: dict = field(default_factory=dict)
    input_digests: list[str] = field(default_factory=list)  # SHA-256 of input files

    def hash(self) -> str:
        # out_dir excluded so a run can be replayed into a fresh directory
        items = {k: v for k, v in self.raw.items() if k != "out_dir"}
        blob = "\n".join(f"{k} = {items[k]}" for k in sorted(items))
        blob += "".join(f"\n{d}" for d in self.input_digests)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def read_partition_file(path) -> list[int]:
    """Parse the one-line ``calibration = id1,id2,...`` partition format."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            if key.strip() != "calibration":
                raise ValueError(f"unexpected key in partition file: {key.strip()!r}")
            return [int(t) for t in val.split(",") if t.strip()]
    raise ValueError("partition file has no 'calibration =' line")


def load_config(path, out_override=None, seed_override=None) -> PipelineConfig:
    raw = dict(_DEFAULTS)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _KNOWN:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = val
    for key in _REQUIRED:
        if key not in raw:
            raise ValueError(f"missing required config key {key!r}")
    if out_override:
        raw["out_dir"] = str(out_override)
    if seed_override is not None:
        raw["seed"] = str(int(seed_override))

    if "calibration_ids" in raw and "partition_file" in raw:
        raise ValueError("give either calibration_ids or partition_file, not both")
    if "calibration_ids" in raw:
        cal_ids = [int(t) for t in raw["calibration_ids"].split(",") if t.strip()]
    elif "partition_file" in raw:
        cal_ids = read_partition_file(raw["partition_file"])
    else:
        raise ValueError("missing calibration_ids (or partition_file)")

    modes = []
    for tok in raw["modes"].split(","):
        tok = tok.strip()
        if tok:
            modes.append(CalibrationMode(tok))
    if not modes:
        raise ValueError("modes must be non-empty")

    cfg = PipelineConfig(
        dataset_path=raw["dataset_path"],
        out_dir=raw["out_dir"],
        calibration_ids=cal_ids,
        prior=PriorSpec(float(raw["prior_lo"]), float(raw["prior_hi"])),
        theta_design_size=int(raw["theta_design_size"]),
        sobol_n_base=int(raw["sobol_n_base"]),
        run_screen=_parse_bool(raw["run_screen"]),
        run_sobol=_parse_bool(raw["run_sobol"]),
        screen_threshold=float(raw["screen_threshold"]),
        screen_points=int(raw["screen_points"]),
        n_samples=int(raw["n_samples"]),
        n_burn=int(raw["n_burn"]),
        chains=int(raw["chains"]),
        seed=int(raw["seed"]),
        gp_restarts=int(raw["gp_restarts"]),
        modes=modes,
        n_propagate=int(raw["n_propagate"]),
        thin=int(raw["thin"]),
        raw=raw,
    )
    for name in ("theta_design_size", "sobol_n_base", "screen_points", "n_samples",
                 "n_burn", "chains", "n_propagate", "thin", "gp_restarts"):
        if getattr(cfg, name) <= 0:
            raise ValueError(f"config value {name} must be positive")
    if cfg.n_burn >= cfg.n_samples:
        raise ValueError("n_burn must be < n_samples")
    if not os.path.exists(cfg.dataset_path):
        raise ValueError(f"dataset file not found: {cfg.dataset_path}")
    cfg.input_digests = [
        _sha256_file(p) for p in (cfg.dataset_path, raw.get("partition_file")) if p
    ]
    return cfg


# ---------------------------------------------------------------- dataset I/O

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
    with open(path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for c in cases:
            row = [str(c.case_id)] + [
                f"{v:.17g}"
                for v in (*c.x.as_array(), *c.y_exp.as_array(), c.meas.sigma_exp)
            ]
            fh.write(",".join(row) + "\n")


# ------------------------------------------------------------------ artifacts

def _hash_line(cfg_hash: str) -> str:
    return f"# config_hash={cfg_hash}\n"


def _check_resume(path, cfg_hash: str, n_rows: int | None = None) -> bool:
    """True if the artifact exists with a matching hash and, when n_rows is
    given, a header and exactly n_rows complete rows after the hash line;
    error on a hash mismatch. A file cut short, even inside its hash line,
    counts as missing."""
    if not os.path.exists(path):
        return False
    with open(path) as fh:
        first = fh.readline()
        body = fh.read() if n_rows is not None else ""
    if not first.endswith("\n"):
        return False
    first = first.strip()
    if first != f"# config_hash={cfg_hash}":
        raise RuntimeError(
            f"resume refused: {path} was produced under a different config "
            f"(found '{first}')"
        )
    return n_rows is None or (body.endswith("\n") and body.count("\n") == n_rows + 1)


def _replace(path, write) -> None:
    """Run write(tmp) on a sibling temporary file, then rename it over path."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_artifact(path, cfg_hash, lines) -> None:
    text = _hash_line(cfg_hash) + "".join(f"{line}\n" for line in lines)
    _replace(path, lambda tmp: Path(tmp).write_text(text))


def _save_gp(model, path, cfg_hash) -> None:
    _replace(path, lambda tmp: gp.save_model(model, tmp, {"config_hash": cfg_hash}))


def _try_load_gp(path, cfg_hash):
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("config_hash") != cfg_hash:
        raise RuntimeError(f"resume refused: {path} has a different config hash")
    return gp.load_model(doc)


def _load_chain(path, n_samples, n_burn) -> PosteriorChain | None:
    """The chain stored at path, or None when the file does not hold
    n_samples complete rows (a chain cut short counts as missing)."""
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) != b"\n":
            return None
    arr = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)  # hash line, header
    if arr.shape[0] != n_samples:
        return None
    acc = arr[:, -1].astype(bool)
    return PosteriorChain(
        draws=arr[:, 1:-2],
        log_posterior_values=arr[:, -2],
        accepted=acc,
        acceptance_rate=float(acc[n_burn:].mean()),
        scale_history=[],
        n_burn=n_burn,
    )


# ------------------------------------------------------------------- pipeline

def _screen_runner(x: np.ndarray, theta8: np.ndarray) -> np.ndarray:
    # parameters 5-8 are inert dummies, mirroring the screened-out catalog
    return code_model_arrays(x, theta8[:, :4])


def _write_summary_files(mode_dir, cfg_hash, result: CalibrationResult) -> None:
    rows = [
        f"{name},{s['mean']:.17g},{s['std']:.17g},{s['p2.5']:.17g},"
        f"{s['p50']:.17g},{s['p97.5']:.17g}"
        for name, s in result.summary.items()
    ]
    _write_artifact(os.path.join(mode_dir, "posterior_summary.csv"), cfg_hash,
                    ["parameter,mean,std,p2.5,p50,p97.5", *rows])
    corr_rows = [
        PARAMETER_NAMES[i] + ","
        + ",".join(f"{result.correlation[i, j]:.17g}" for j in range(4))
        for i in range(4)
    ]
    _write_artifact(os.path.join(mode_dir, "posterior_correlation.csv"), cfg_hash,
                    ["parameter," + ",".join(PARAMETER_NAMES), *corr_rows])
    diag = result.diagnostics
    lines = []
    for j, name in enumerate(PARAMETER_NAMES):
        lines.append(f"rhat {name} = {diag['rhat'][j]:.6f}")
        lines.append(f"ess {name} = {diag['ess'][j]:.1f}")
    for k, a in enumerate(diag["acceptance"]):
        lines.append(f"acceptance chain_{k + 1} = {a:.4f}")
    lines.append(f"converged = {result.converged}")
    _write_artifact(os.path.join(mode_dir, "diagnostics.txt"), cfg_hash, lines)


def _export_mode(mode_dir, cfg_hash, cfg, result, val_cases, summary, prior_val):
    pooled = result.pooled_draws()
    rows = []
    keep = (len(result.chains[0].post_burn) // cfg.thin) * cfg.thin
    for k, chain in enumerate(result.chains):
        sub = chain.post_burn[:keep:cfg.thin]
        for t, th in enumerate(sub):
            rows.append(f"{k + 1},{t}," + ",".join(f"{v:.17g}" for v in th))
    _write_artifact(os.path.join(mode_dir, "posterior_pairs.csv"), cfg_hash,
                    ["chain,step," + ",".join(PARAMETER_NAMES), *rows])

    rows = []
    for j, name in enumerate(PARAMETER_NAMES):
        counts, edges = np.histogram(pooled[:, j], bins=40)
        for b in range(40):
            rows.append(f"{name},{edges[b]:.17g},{edges[b + 1]:.17g},{counts[b]}")
    _write_artifact(os.path.join(mode_dir, "posterior_marginals.csv"), cfg_hash,
                    ["parameter,bin_lo,bin_hi,count", *rows])

    rows = []
    for i, case in enumerate(val_cases):
        y = case.y_exp.as_array()
        for j, loc in enumerate(LOCATION_NAMES):
            rows.append(
                f"{case.case_id},{loc},{y[j] - prior_val[i, j]:.17g},"
                f"{y[j] - summary.mean[i, j]:.17g}"
            )
    _write_artifact(os.path.join(mode_dir, "validation_errors.csv"), cfg_hash,
                    ["case_id,location,error_prior,error_posterior", *rows])


def run_pipeline(config_path, out_override=None, seed_override=None, stages=None) -> int:
    """Execute the pipeline; returns 0 on success, 2 on MCMC non-convergence."""
    cfg = load_config(config_path, out_override, seed_override)
    cfg_hash = cfg.hash()
    os.makedirs(cfg.out_dir, exist_ok=True)
    all_stages = {"screen", "sobol", "calibrate", "validate", "export"}
    stages = set(stages) if stages else all_stages

    def stage_wrap(name, fn):
        try:
            return fn()
        except Exception as exc:
            raise RuntimeError(f"stage '{name}' failed: {exc}") from exc

    cases = stage_wrap("ingest", lambda: ingest_csv(cfg.dataset_path))
    partition = stage_wrap(
        "partition", lambda: partition_dataset(cases, cfg.calibration_ids)
    )
    by_id = {c.case_id: c for c in cases}
    cal_cases = [by_id[i] for i in sorted(partition.calibration_ids)]
    val_cases = [by_id[i] for i in sorted(partition.validation_ids)]
    x_fixed = cal_cases[0].x

    manifest = os.path.join(cfg.out_dir, "manifest.txt")
    _check_resume(manifest, cfg_hash)  # refuse before overwriting anything
    _write_artifact(manifest, cfg_hash, [f"{k} = {cfg.raw[k]}" for k in sorted(cfg.raw)])

    if cfg.run_screen and "screen" in stages:
        path = os.path.join(cfg.out_dir, "screening.csv")
        if not _check_resume(path, cfg_hash,
                             n_rows=len(SCREEN_NAMES) * len(LOCATION_NAMES)):
            def do_screen():
                res = oat_screen(
                    _screen_runner, x_fixed.as_array(), [SCREEN_RANGE] * 8,
                    n=cfg.screen_points, threshold=cfg.screen_threshold,
                    names=SCREEN_NAMES,
                )
                rows = []
                for i, name in enumerate(res.names):
                    sel = int(name in res.selected)
                    for j, loc in enumerate(LOCATION_NAMES):
                        rows.append(f"{name},{loc},{res.variances[i, j]:.17g},{sel}")
                _write_artifact(path, cfg_hash, ["parameter,output,variance,selected", *rows])
            stage_wrap("screen", do_screen)

    if cfg.run_sobol and "sobol" in stages:
        path = os.path.join(cfg.out_dir, "sobol.csv")
        if not _check_resume(path, cfg_hash,
                             n_rows=len(PARAMETER_NAMES) * len(LOCATION_NAMES)):
            def do_sobol():
                res = sobol_indices(
                    lambda th: code_model_arrays(
                        np.broadcast_to(x_fixed.as_array(), th.shape), th
                    ),
                    cfg.prior.ranges, cfg.sobol_n_base, seed=cfg.seed,
                )
                rows = []
                for i, name in enumerate(PARAMETER_NAMES):
                    for j, loc in enumerate(LOCATION_NAMES):
                        rows.append(
                            f"{name},{loc},{res.first_order[i, j]:.17g},"
                            f"{res.total[i, j]:.17g}"
                        )
                _write_artifact(path, cfg_hash, ["parameter,output,first_order,total", *rows])
            stage_wrap("sobol", do_sobol)

    exit_code = 0
    need_calibration = stages & {"calibrate", "validate", "export"}
    results: dict[CalibrationMode, CalibrationResult] = {}
    if need_calibration:
        gp_cc_path = os.path.join(cfg.out_dir, "gp_cc.json")
        gp_cc = stage_wrap("calibrate", lambda: _try_load_gp(gp_cc_path, cfg_hash))
        if gp_cc is None:
            gp_cc = stage_wrap("calibrate", lambda: build_gp_cc(
                partition, cases, code_model_arrays, cfg.theta_design_size, cfg.prior,
                seed=cfg.seed, restarts=cfg.gp_restarts,
            ))
            _save_gp(gp_cc, gp_cc_path, cfg_hash)

        for mode in cfg.modes:
            mode_dir = os.path.join(cfg.out_dir, mode.value)
            os.makedirs(mode_dir, exist_ok=True)

            gp_md = None
            if mode is CalibrationMode.WithDiscrepancy:
                gp_md_path = os.path.join(mode_dir, "gp_md.json")
                gp_md = stage_wrap("calibrate", lambda: _try_load_gp(gp_md_path, cfg_hash))
                if gp_md is None:
                    gp_md = stage_wrap("calibrate", lambda: build_gp_md(
                        partition, cases, code_model_arrays,
                        restarts=cfg.gp_restarts, seed=cfg.seed + 1,
                    ))
                    _save_gp(gp_md, gp_md_path, cfg_hash)
            pair = SurrogatePair(gp_cc=gp_cc, gp_md=gp_md)

            chain_paths = [
                os.path.join(mode_dir, f"chain_{k + 1}.csv")
                for k in range(cfg.chains)
            ]
            chains = [_load_chain(p, cfg.n_samples, cfg.n_burn)
                      for p in chain_paths if _check_resume(p, cfg_hash)]
            if len(chains) == cfg.chains and all(c is not None for c in chains):
                diag = diagnostics(chains)
                from .calibration import _summarize  # same summary path as a fresh run
                pooled = np.concatenate([c.post_burn for c in chains])
                summary, corr = _summarize(pooled, PARAMETER_NAMES)
                result = CalibrationResult(
                    mode=mode, pair=pair, chains=chains, diagnostics=diag,
                    summary=summary, correlation=corr,
                    converged=bool(np.all(diag["rhat"] < 1.1)),
                )
            else:
                width = cfg.prior.hi - cfg.prior.lo
                mcmc_cfg = McmcConfig(
                    init=np.ones(4),
                    initial_proposal_cov=np.eye(4) * (0.05 * width) ** 2,
                    n_samples=cfg.n_samples,
                    n_burn=cfg.n_burn,
                    seed=cfg.seed,
                )
                result = stage_wrap("calibrate", lambda: calibrate(
                    cases, partition, code_model_arrays, mode, prior=cfg.prior,
                    theta_design_size=cfg.theta_design_size,
                    mcmc_config=mcmc_cfg, n_chains=cfg.chains, seed=cfg.seed,
                    gp_restarts=cfg.gp_restarts, pair=pair,
                ))
                for p, chain in zip(chain_paths, result.chains):
                    _replace(p, lambda tmp: chain.to_csv(
                        tmp, header_extra=_hash_line(cfg_hash)))
            _write_summary_files(mode_dir, cfg_hash, result)
            results[mode] = result
            if not result.converged:
                exit_code = 2

    if stages & {"validate", "export"}:
        xs_val = np.array([c.x.as_array() for c in val_cases])
        prior_val = code_model_arrays(xs_val, np.ones_like(xs_val))
        for mode, result in results.items():
            mode_dir = os.path.join(cfg.out_dir, mode.value)
            pooled = result.pooled_draws()
            n_use = min(cfg.n_propagate, pooled.shape[0])
            summary = stage_wrap("validate", lambda: propagate(
                code_model_arrays, val_cases, pooled, n_use=n_use
            ))
            report = stage_wrap("validate", lambda: rmse_report(
                summary, prior_val, val_cases
            ))

            if "validate" in stages:
                rows = []
                for i, case in enumerate(val_cases):
                    y = case.y_exp.as_array()
                    band_lo = summary.p025[i] - 2 * case.meas.sigma_exp
                    band_hi = summary.p975[i] + 2 * case.meas.sigma_exp
                    for j, loc in enumerate(LOCATION_NAMES):
                        cov = int(band_lo[j] <= y[j] <= band_hi[j])
                        rows.append(
                            f"{case.case_id},{loc},{y[j]:.17g},{prior_val[i, j]:.17g},"
                            f"{summary.mean[i, j]:.17g},{summary.std[i, j]:.17g},"
                            f"{summary.p025[i, j]:.17g},{summary.p975[i, j]:.17g},{cov}"
                        )
                _write_artifact(
                    os.path.join(mode_dir, "validation_report.csv"), cfg_hash,
                    ["case_id,location,y_exp,y_prior,y_post_mean,y_post_std,"
                     "p2.5,p97.5,covered", *rows],
                )
                _write_artifact(os.path.join(mode_dir, "rmse_summary.txt"), cfg_hash, [
                    f"rmse y_M(theta=1) = {report.rmse_prior:.6f}",
                    f"rmse y_M(theta_post) {mode.value} = {report.rmse_posterior:.6f}",
                    f"coverage_95 = {report.coverage_95:.4f}",
                ])
                if mode is CalibrationMode.WithDiscrepancy and result.pair.gp_md:
                    # supplementary: code + learned discrepancy predictions
                    md_mean, _ = gp.predict(result.pair.gp_md, xs_val)
                    rows = []
                    for i, case in enumerate(val_cases):
                        y = case.y_exp.as_array()
                        for j, loc in enumerate(LOCATION_NAMES):
                            rows.append(
                                f"{case.case_id},{loc},{y[j]:.17g},"
                                f"{summary.mean[i, j] + md_mean[i, j]:.17g}"
                            )
                    _write_artifact(
                        os.path.join(mode_dir, "validation_with_discrepancy.csv"),
                        cfg_hash, ["case_id,location,y_exp,y_post_plus_md", *rows],
                    )

            if "export" in stages:
                _export_mode(mode_dir, cfg_hash, cfg, result, val_cases,
                             summary, prior_val)

    if "export" in stages:
        xs = np.array([c.x.as_array() for c in cases])
        pred = code_model_arrays(xs, np.ones_like(xs))
        rows = []
        for i, case in enumerate(cases):
            y = case.y_exp.as_array()
            for j, loc in enumerate(LOCATION_NAMES):
                rows.append(f"{case.case_id},{loc},{y[j]:.17g},{pred[i, j]:.17g}")
        _write_artifact(os.path.join(cfg.out_dir, "scatter_prior.csv"), cfg_hash,
                        ["case_id,location,y_exp,y_prior", *rows])

    return exit_code


# ------------------------------------------------------------------------ CLI

def _cmd_synth_gen(args) -> int:
    config = SynthConfig(
        discrepancy_on=not args.no_discrepancy,
        sigma_exp=args.sigma,
        n_cases=args.n_cases,
        seed=args.seed,
    )
    cases = generate_dataset(config)
    write_dataset_csv(cases, args.out)
    # ground-truth sidecar: for tests only, never read by the pipeline
    with open(args.out + ".truth.txt", "w") as fh:
        fh.write(f"theta_true = {','.join(str(v) for v in config.theta_true.theta)}\n")
        fh.write(f"discrepancy_on = {config.discrepancy_on}\n")
        fh.write(f"sigma_exp = {config.sigma_exp:.17g}\n")
        fh.write(f"seed = {config.seed}\n")
    print(f"wrote {len(cases)} cases to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbcal",
        description="Modular Bayesian calibration pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-cases", type=int, default=74)
    p.add_argument("--sigma", type=float, default=0.04)
    p.add_argument("--no-discrepancy", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    stage_of = {
        "screen": {"screen"},
        "sobol": {"sobol"},
        "calibrate": {"calibrate"},
        "validate": {"calibrate", "validate"},
        "export": {"calibrate", "validate", "export"},
        "run": None,
    }
    for name in stage_of:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "synth-gen":
            return _cmd_synth_gen(args)
        return run_pipeline(
            args.config, out_override=args.out, seed_override=args.seed,
            stages=stage_of[args.command],
        )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
