"""Config-driven pipeline: ingest -> partition -> screen -> sobol ->
calibrate (per mode) -> validate -> export.

Config files are flat ``key = value`` text; unknown keys are errors. Every
artifact carries the hash of the config and of the input files' bytes (on
its first line, or as a GP JSON key). On resume a stage whose artifacts
are whole under the run's hash is skipped, one with a missing or cut-short
artifact is rebuilt after deleting every artifact made from it, and any
other hash is refused (``_reuse``, ``run_pipeline``). Artifacts are written
to a temporary file and renamed into place, so none is left half-written.

The forward model is ``synthbench.code_model_arrays``, called through the
batched runner contract ``runner(X, Theta) -> Y`` (see README).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__, gp
from .calibration import (
    CalibrationMode,
    PriorSpec,
    SurrogatePair,
    build_gp_cc,
    build_gp_md,
    calibrate,
    summarize,
)
from .domain import (
    LOCATION_NAMES,
    PARAMETER_NAMES,
    ingest_csv,
    partition_dataset,
    write_dataset_csv,
)
from .forward_uq import propagate, rmse_report
from .mcmc import PosteriorChain, diagnostics  # noqa: F401 (traced name)
from .sensitivity import oat_screen, sobol_indices
from .synthbench import SynthConfig, code_model_arrays, generate_dataset

SCREEN_NAMES = PARAMETER_NAMES + ("D1", "D2", "D3", "D4")
SCREEN_RANGE = (0.0, 5.0)
MARGINAL_BINS = 40  # histogram bins per parameter in posterior_marginals.csv


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes"):
        return True
    if v.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {v!r}")


def _positive(v: str) -> int:
    n = int(v)
    if n <= 0:
        raise ValueError("must be positive")
    return n


def _ids(v: str) -> list[int]:
    return [int(t) for t in v.split(",") if t.strip()]


def _modes(v: str) -> list[CalibrationMode]:
    modes = [CalibrationMode(t.strip()) for t in v.split(",") if t.strip()]
    if not modes:
        raise ValueError("must be non-empty")
    return modes


_REQUIRED = object()
# key -> (parser, default string); a None default makes the key optional
_KEYS = {
    "dataset_path": (str, _REQUIRED),
    "out_dir": (str, _REQUIRED),
    "calibration_ids": (_ids, None),
    "partition_file": (str, None),
    "prior_lo": (float, "0.05"),
    "prior_hi": (float, "5.0"),
    "theta_design_size": (_positive, "100"),
    "sobol_n_base": (_positive, "4096"),
    "run_screen": (_parse_bool, "true"),
    "run_sobol": (_parse_bool, "false"),
    "screen_threshold": (float, "1e-3"),
    "screen_points": (_positive, "50"),
    "n_samples": (_positive, "20000"),
    "n_burn": (_positive, "4000"),
    "chains": (_positive, "4"),
    "seed": (int, "0"),
    "gp_restarts": (_positive, "8"),
    "modes": (_modes, "with_discrepancy,no_discrepancy"),
    "n_propagate": (_positive, "500"),
    "thin": (_positive, "10"),
}


_UNHASHED = ("out_dir", "run_screen", "run_sobol")

# (test, error) per rule a parsed config must meet; each is checked again by
# its stage, but here it stops a run before any artifact is written
_CHECKS = [
    (lambda c: c.n_samples - c.n_burn >= 4, "n_samples - n_burn must be >= 4 (split R-hat)"),
    (lambda c: c.chains >= 2, "chains must be >= 2 for the R-hat diagnostics"),
    (lambda c: c.theta_design_size >= 20, "theta_design_size must be >= 20"),
    (lambda c: c.seed >= 0, "seed must be >= 0"),
    (lambda c: c.sobol_n_base >= 64 and (c.sobol_n_base & (c.sobol_n_base - 1)) == 0,
     "sobol_n_base must be a power of two >= 64"),
    (lambda c: c.screen_points >= 2, "screen_points must be >= 2"),
    (lambda c: c.screen_threshold > 0, "screen_threshold must be > 0"),
    (lambda c: len(set(c.modes)) == len(c.modes), "modes must not repeat"),
]


class PipelineConfig(SimpleNamespace):
    """A parsed attribute per _KEYS entry (None when left out), plus prior,
    raw (strings after defaults and overrides) and input_digests."""

    def hash(self) -> str:
        # out_dir excluded so a run can be replayed into a fresh directory;
        # run_screen and run_sobol only choose the stages of `mbcal run`
        items = {k: v for k, v in self.raw.items() if k not in _UNHASHED}
        blob = "\n".join(f"{k} = {items[k]}" for k in sorted(items))
        blob += f"\nmbcal {__version__}"
        blob += "".join(f"\n{d}" for d in self.input_digests)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _key_values(path):
    """(line number, key, value) per ``key = value`` line, skipping ``#`` comments."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            yield lineno, key.strip(), val.strip()


def read_partition_file(path) -> list[int]:
    """Parse the one-line ``calibration = id1,id2,...`` partition format."""
    entries = list(_key_values(path))
    for _, key, _ in entries:
        if key != "calibration":
            raise ValueError(f"unexpected key in partition file: {key!r}")
    if len(entries) != 1:
        raise ValueError(f"partition file needs one 'calibration =' line, has {len(entries)}")
    return _ids(entries[0][2])


def load_config(path, out_override=None, seed_override=None) -> PipelineConfig:
    raw = {k: d for k, (_, d) in _KEYS.items() if isinstance(d, str)}
    for lineno, key, val in _key_values(path):
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        raw[key] = val
    for key, (_, default) in _KEYS.items():
        if default is _REQUIRED and key not in raw:
            raise ValueError(f"missing required config key {key!r}")
    if out_override:
        raw["out_dir"] = str(out_override)
    if seed_override is not None:
        raw["seed"] = str(int(seed_override))

    values = {}
    for key, (parse, _) in _KEYS.items():
        try:
            values[key] = parse(raw[key]) if key in raw else None
        except ValueError as exc:
            raise ValueError(f"config value {key}: {exc}") from None
    cfg = PipelineConfig(**values, raw=raw,
                         prior=PriorSpec(values["prior_lo"], values["prior_hi"]))
    if cfg.partition_file is not None:
        if cfg.calibration_ids is not None:
            raise ValueError("give either calibration_ids or partition_file, not both")
        cfg.calibration_ids = read_partition_file(cfg.partition_file)
    elif cfg.calibration_ids is None:
        raise ValueError("missing calibration_ids (or partition_file)")
    for holds, msg in _CHECKS:
        if not holds(cfg):
            raise ValueError(msg)
    if not os.path.exists(cfg.dataset_path):
        raise ValueError(f"dataset file not found: {cfg.dataset_path}")
    cfg.input_digests = [  # SHA-256 of the dataset and partition files
        hashlib.sha256(Path(p).read_bytes()).hexdigest()
        for p in (cfg.dataset_path, cfg.partition_file) if p
    ]
    return cfg


# ------------------------------------------------------------------ artifacts

def _hash_line(cfg_hash: str) -> str:
    return f"# config_hash={cfg_hash}\n"


def _hash_of(fh) -> str:
    """The config hash on a text artifact's first line, which must be whole."""
    first = fh.readline()
    if not first.endswith(b"\n"):
        raise ValueError("cut short inside its hash line")
    return first.decode().strip().removeprefix("# config_hash=")


def _reuse(path, cfg_hash: str, load):
    """The artifact at path, or None when it is missing or cut short.

    load(binary fh) returns (the hash found, the artifact or None when the
    file is cut short); a ValueError from load also means cut short. A hash
    other than cfg_hash is refused, so stale outputs are never mixed in.
    """
    try:
        with open(path, "rb") as fh:
            found, artifact = load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if found != cfg_hash:
        raise RuntimeError(
            f"resume refused: {path} was produced under a different config "
            f"(found hash {found!r})"
        )
    return artifact


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


def _write_csv(path, cfg_hash, header: str, rows: list[tuple]) -> None:
    """A hash-lined CSV: strings as they are, every number as %.17g. Each
    column holds one type, so the first row sets the format of every row."""
    first = rows[0] if rows else ()
    fmt = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first)
    _write_artifact(path, cfg_hash, [header, *(fmt % tuple(row) for row in rows)])


def _table(names, *cols) -> list[tuple]:
    """Rows (names[i], location j, col[i][j] for each col), names x locations."""
    keys = [(name, loc) for name in names for loc in LOCATION_NAMES]
    return [(*key, *vals)
            for key, vals in zip(keys, zip(*(np.ravel(col).tolist() for col in cols)))]


def _body(fh):
    """The bytes after a text artifact's hash line; None without a final newline."""
    found, body = _hash_of(fh), fh.read()
    return found, body if body.endswith(b"\n") else None


def _gp_doc(fh):
    doc = json.load(fh)  # parsed only: gp.load_model factorizes it on first use
    return doc.get("config_hash"), doc


# ------------------------------------------------------------------- pipeline

def run_pipeline(config_path, out_override=None, seed_override=None, stages=None) -> int:
    """Execute the named stages; returns 0 on success, 2 on MCMC non-convergence.

    Without stages this is ``mbcal run``: calibrate, validate and export, plus
    screen and sobol when the config's run_screen and run_sobol ask for them.
    Validate and export also run calibrate and validate (export reads only chains).

    A stage is rebuilt only when one of its artifacts is missing or cut short;
    a GP refit or a chain resample first deletes every artifact made from the
    old one (for GP_CC, every mode's chains and later stages). The exit code
    is read from each mode's diagnostics.txt.
    """
    cfg = load_config(config_path, out_override, seed_override)
    cfg_hash = cfg.hash()
    os.makedirs(cfg.out_dir, exist_ok=True)
    stages = set(stages) if stages else (
        {"calibrate", "validate", "export"}
        | ({"screen"} if cfg.run_screen else set())
        | ({"sobol"} if cfg.run_sobol else set())
    )
    if stages & {"validate", "export"}:
        stages |= {"calibrate", "validate"}

    @contextmanager
    def stage(name):
        try:
            yield
        except Exception as exc:
            raise RuntimeError(f"stage '{name}' failed: {exc}") from exc

    def out(*parts):
        return os.path.join(cfg.out_dir, *parts)

    def whole(rel, n_lines):
        """The body of artifact rel when it holds n_lines lines after its hash line."""
        body = _reuse(out(rel), cfg_hash, _body)
        return body if body is not None and body.count(b"\n") == n_lines else None

    def stale(artifacts):
        """Whether any of these (rel, n_lines) artifacts is missing or cut short;
        each is checked, so one under another hash is refused all the same."""
        return None in [whole(*a) for a in artifacts]

    def drop(artifacts):
        """Delete these artifacts, each checked first so one under another hash is refused."""
        stale(artifacts)
        for rel, _ in artifacts:
            Path(out(rel)).unlink(missing_ok=True)

    def read_chain(artifacts):
        return PosteriorChain.read_csv([out(rel) for rel, _ in artifacts], cfg.n_burn)

    with stage("ingest"):
        cases = ingest_csv(cfg.dataset_path)
    with stage("partition"):
        partition = partition_dataset(cases, cfg.calibration_ids)
    by_id = {c.case_id: c for c in cases}
    val_cases = [by_id[i] for i in sorted(partition.validation_ids)]
    x_fixed = by_id[min(partition.calibration_ids)].x.as_array()
    n_loc = len(LOCATION_NAMES)

    manifest = [f"{k} = {cfg.raw[k]}" for k in sorted(cfg.raw)]
    # refuse before overwriting anything; rewrite only a changed manifest
    if _reuse(out("manifest.txt"), cfg_hash, _body) != "".join(
            f"{line}\n" for line in manifest).encode():
        _write_artifact(out("manifest.txt"), cfg_hash, manifest)

    with stage("screen"):
        if "screen" in stages and not whole("screening.csv", 1 + len(SCREEN_NAMES) * n_loc):
            # parameters 5-8 are inert dummies, mirroring the screened-out catalog
            res = oat_screen(
                lambda x, theta8: code_model_arrays(x, theta8[:, :4]), x_fixed,
                [SCREEN_RANGE] * 8, n=cfg.screen_points,
                threshold=cfg.screen_threshold, names=SCREEN_NAMES,
            )
            _write_csv(out("screening.csv"), cfg_hash, "parameter,output,variance,selected",
                       _table(res.names, res.variances,
                              [[int(n in res.selected)] * 3 for n in res.names]))

    with stage("sobol"):
        if "sobol" in stages and not whole("sobol.csv", 1 + len(PARAMETER_NAMES) * n_loc):
            res = sobol_indices(
                lambda th: code_model_arrays(np.broadcast_to(x_fixed, th.shape), th),
                cfg.prior.ranges, cfg.sobol_n_base, seed=cfg.seed,
            )
            _write_csv(out("sobol.csv"), cfg_hash, "parameter,output,first_order,total",
                       _table(PARAMETER_NAMES, res.first_order, res.total))

    if "calibrate" not in stages:
        return 0

    ids_val = [c.case_id for c in val_cases]
    xs_val = np.array([c.x.as_array() for c in val_cases])
    y_val = np.array([c.y_exp.as_array() for c in val_cases])
    nominal_val = functools.cache(lambda: code_model_arrays(xs_val, np.ones_like(xs_val)))
    n_val = len(val_cases) * n_loc
    per_chain = (cfg.n_samples - cfg.n_burn) // cfg.thin
    n_diag = 2 * len(PARAMETER_NAMES) + cfg.chains + 1
    mode_arts = {}  # per mode, its stages after its GPs in order: (rel, n_lines) per artifact
    for mode in cfg.modes:
        d = mode.value
        mode_arts[mode] = {
            "chains": [(f"{d}/chain_{k + 1}.csv", 1 + cfg.n_samples) for k in range(cfg.chains)],
            "summaries": [(f"{d}/posterior_summary.csv", 5),
                          (f"{d}/posterior_correlation.csv", 5),
                          (f"{d}/diagnostics.txt", n_diag)],
            "validate": [(f"{d}/validation_report.csv", 1 + n_val), (f"{d}/rmse_summary.txt", 3),
                         (f"{d}/validation_errors.csv", 1 + n_val)]
                        + ([(f"{d}/validation_with_discrepancy.csv", 1 + n_val)]
                           if mode is CalibrationMode.WithDiscrepancy else []),
            "export": [(f"{d}/posterior_pairs.csv", 1 + cfg.chains * per_chain),
                       (f"{d}/posterior_marginals.csv",
                        1 + MARGINAL_BINS * len(PARAMETER_NAMES))],
        }
    # per mode, every artifact made from its GPs: its chains and all later stages
    made = {mode: [a for group in mode_arts[mode].values() for a in group] for mode in cfg.modes}

    def gp_file(rel, build, made_from):
        """The model at rel: a file that parses is factorized on first use only;
        else the artifacts made_from lists are deleted, then build() is fitted and saved."""
        doc = _reuse(out(rel), cfg_hash, _gp_doc)
        if doc is not None:
            return functools.cache(lambda: gp.load_model(doc))
        drop(made_from)
        model = build()
        _replace(out(rel), lambda tmp: gp.save_model(model, tmp, {"config_hash": cfg_hash}))
        return lambda: model

    converged = []
    with stage("calibrate"):
        # GP_MD is fitted on raw-code residuals, not on GP_CC, so a GP_CC refit keeps it
        gp_cc = gp_file("gp_cc.json", lambda: build_gp_cc(
            partition, cases, code_model_arrays, cfg.theta_design_size, cfg.prior,
            seed=cfg.seed, restarts=cfg.gp_restarts,
        ), sum(made.values(), []))
    for mode in cfg.modes:
        d = mode.value
        os.makedirs(out(d), exist_ok=True)
        arts, result, chain = mode_arts[mode], None, None
        with stage("calibrate"):
            gp_md = gp_file(f"{d}/gp_md.json", lambda: build_gp_md(
                partition, cases, code_model_arrays, restarts=cfg.gp_restarts,
                seed=cfg.seed + 1), made[mode]
            ) if mode is CalibrationMode.WithDiscrepancy else (lambda: None)
            if stale(arts["chains"]):
                drop(made[mode])  # so a stop before the last chain leaves none of the old set
                result = calibrate(SurrogatePair(gp_cc=gp_cc(), gp_md=gp_md()), cases,
                                   partition, cfg.prior, cfg.n_samples, cfg.n_burn,
                                   cfg.chains, cfg.seed)
                chain = result.chain
                for k, (rel, _) in enumerate(arts["chains"]):
                    _replace(out(rel), lambda tmp: chain.to_csv(
                        tmp, k, header_extra=_hash_line(cfg_hash)))
            summaries = [whole(*a) for a in arts["summaries"]]  # diagnostics.txt last
            if None in summaries:
                chain = chain or read_chain(arts["chains"])
                result = result or summarize(chain)
                stats = ("mean", "std", "p2.5", "p50", "p97.5")
                _write_csv(out(d, "posterior_summary.csv"), cfg_hash,
                           "parameter," + ",".join(stats),
                           [(n, *(s[k] for k in stats)) for n, s in result.summary.items()])
                _write_csv(out(d, "posterior_correlation.csv"), cfg_hash,
                           "parameter," + ",".join(PARAMETER_NAMES),
                           [(n, *row) for n, row in zip(PARAMETER_NAMES, result.correlation)])
                diag = result.diagnostics
                lines = []
                for j, name in enumerate(PARAMETER_NAMES):
                    lines.append(f"rhat {name} = {diag['rhat'][j]:.6f}")
                    lines.append(f"ess {name} = {diag['ess'][j]:.1f}")
                for k, a in enumerate(diag["acceptance"]):
                    lines.append(f"acceptance chain_{k + 1} = {a:.4f}")
                lines.append(f"converged = {result.converged}")
                _write_artifact(out(d, "diagnostics.txt"), cfg_hash, lines)
                summaries[-1] = whole(*arts["summaries"][-1])
            converged.append(summaries[-1].endswith(b"converged = True\n"))

        with stage("validate"):
            if "validate" in stages and stale(arts["validate"]):
                chain = chain or read_chain(arts["chains"])
                pooled = chain.pooled
                summary = propagate(code_model_arrays, val_cases, pooled,
                                    n_use=min(cfg.n_propagate, pooled.shape[0]))
                report = rmse_report(summary, nominal_val(), val_cases)
                _write_csv(
                    out(d, "validation_report.csv"), cfg_hash,
                    "case_id,location,y_exp,y_prior,y_post_mean,y_post_std,"
                    "p2.5,p97.5,covered",
                    _table(ids_val, y_val, nominal_val(), summary.mean, summary.std,
                           summary.p025, summary.p975, report.covered.astype(int)),
                )
                _write_artifact(out(d, "rmse_summary.txt"), cfg_hash, [
                    f"rmse y_M(theta=1) = {report.rmse_prior:.6f}",
                    f"rmse y_M(theta_post) {d} = {report.rmse_posterior:.6f}",
                    f"coverage_95 = {report.coverage_95:.4f}",
                ])
                _write_csv(out(d, "validation_errors.csv"), cfg_hash,
                           "case_id,location,error_prior,error_posterior",
                           _table(ids_val, y_val - nominal_val(), y_val - summary.mean))
                if mode is CalibrationMode.WithDiscrepancy:
                    # supplementary: code + learned discrepancy predictions
                    md_mean, _ = gp.predict(gp_md(), xs_val)
                    _write_csv(out(d, "validation_with_discrepancy.csv"),
                               cfg_hash, "case_id,location,y_exp,y_post_plus_md",
                               _table(ids_val, y_val, summary.mean + md_mean))

        with stage("export"):
            if "export" in stages and stale(arts["export"]):
                chain = chain or read_chain(arts["chains"])
                pairs = [(k + 1, t, *th) for k in range(cfg.chains) for t, th in enumerate(
                    chain.post_burn[:per_chain * cfg.thin:cfg.thin, k].tolist())]
                _write_csv(out(d, "posterior_pairs.csv"), cfg_hash,
                           "chain,step," + ",".join(PARAMETER_NAMES), pairs)
                rows = []
                for name, col in zip(PARAMETER_NAMES, chain.pooled.T):
                    counts, edges = np.histogram(col, bins=MARGINAL_BINS)
                    rows += zip([name] * MARGINAL_BINS, edges[:-1], edges[1:], counts)
                _write_csv(out(d, "posterior_marginals.csv"), cfg_hash,
                           "parameter,bin_lo,bin_hi,count", rows)

    with stage("export"):
        if "export" in stages and not whole("scatter_prior.csv", 1 + len(cases) * n_loc):
            xs = np.array([c.x.as_array() for c in cases])
            _write_csv(out("scatter_prior.csv"), cfg_hash, "case_id,location,y_exp,y_prior",
                       _table([c.case_id for c in cases], [c.y_exp.as_array() for c in cases],
                              code_model_arrays(xs, np.ones_like(xs))))

    return 0 if all(converged) else 2


# ------------------------------------------------------------------------ CLI

def _cmd_synth_gen(args) -> int:
    config = SynthConfig(discrepancy_on=not args.no_discrepancy, sigma_exp=args.sigma,
                         n_cases=args.n_cases, seed=args.seed)
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
    parser = argparse.ArgumentParser(prog="mbcal",
                                     description="Modular Bayesian calibration pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-gen", help="generate a synthetic benchmark dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-cases", type=int, default=74)
    p.add_argument("--sigma", type=float, default=0.04)
    p.add_argument("--no-discrepancy", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    for name in ("screen", "sobol", "calibrate", "validate", "export", "run"):
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
            stages=None if args.command == "run" else {args.command},
        )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
