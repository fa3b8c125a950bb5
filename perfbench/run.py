"""Benchmark of ``mbcal run``: one cold run into an empty output directory,
then resumed runs over the same artifacts, with every output checked by
computations made apart from the program.

    python3 perfbench/run.py --workload selfcheck --seed 0 --seconds 55 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` wraps each layer's public functions and prints the per-layer
metrics instead. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import time

T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

N_CASES = 74
# The boundary-condition design is fixed per workload; --seed draws the
# measurement noise. GP_CC then sees the same training rows on every seed,
# so its fit costs the same, while GP_MD and the posterior see new data.
DESIGN_SEED = 0
PRIOR = (0.05, 5.0)
MIN_RESUMES = 3

WORKLOADS = {
    # A7-shaped: a 500-row GP_CC fit is most of the cold run and theta_true is
    # known; a small propagation sample leaves the resume to the GP reload.
    "selfcheck": {
        "discrepancy": False, "sigma_exp": 0.01, "n_cal": 20,
        "config": {"theta_design_size": 25, "gp_restarts": 2, "chains": 2,
                   "n_samples": 1500, "n_burn": 500, "modes": "with_discrepancy",
                   "n_propagate": 25, "sobol_n_base": 1024},
    },
    # A6-shaped: a 240-row GP_CC, both modes with four chains each, so the MH
    # loop and LogPosterior dominate the cold run and propagation the resume.
    "two_modes": {
        "discrepancy": True, "sigma_exp": 0.04, "n_cal": 12,
        "config": {"theta_design_size": 20, "gp_restarts": 2, "chains": 4,
                   "n_samples": 2500, "n_burn": 500,
                   "modes": "with_discrepancy,no_discrepancy",
                   "n_propagate": 500, "sobol_n_base": 4096},
    },
}
COMMON = {"seed": 0, "run_screen": "true", "run_sobol": "true", "screen_points": 50,
          "prior_lo": PRIOR[0], "prior_hi": PRIOR[1]}
# a few seconds per workload, for the benchmark's own test
TINY = {"n_cal": 8, "config": {"theta_design_size": 20, "gp_restarts": 1, "chains": 2,
                               "n_samples": 300, "n_burn": 100, "n_propagate": 20,
                               "sobol_n_base": 64, "screen_points": 10}}


def load_program():
    """Import mbcal from the checkout's own sources, never an installed copy."""
    src = os.path.join(REPO, "src")
    if not os.path.isfile(os.path.join(src, "mbcal", "cli.py")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    import mbcal.cli  # noqa: F401


def make_inputs(name, seed, work, tiny=False):
    """Write the dataset and config for one workload; return what the checks need."""
    import numpy as np

    from mbcal import cli, domain, synthbench

    spec = WORKLOADS[name]
    config = {**COMMON, **spec["config"], **(TINY["config"] if tiny else {})}
    n_cal = TINY["n_cal"] if tiny else spec["n_cal"]
    noise_free = synthbench.generate_dataset(synthbench.SynthConfig(
        discrepancy_on=spec["discrepancy"], sigma_exp=0.0, n_cases=N_CASES,
        seed=DESIGN_SEED))
    rng = np.random.default_rng(seed)
    cases = []
    for c in noise_free:
        x = c.x.as_array()
        y = synthbench.code_model_arrays(x, synthbench.THETA_TRUE.as_array())
        if spec["discrepancy"]:
            y = y + synthbench.true_discrepancy(x)
        y = np.clip(y + rng.normal(0.0, spec["sigma_exp"], 3), 0.0, 1.0)
        cases.append(domain.ExperimentCase(
            c.case_id, c.x, domain.VoidMeasurement(*y),
            domain.MeasurementModel(spec["sigma_exp"])))
    cal_ids = domain.suggest_calibration_ids(cases, n_cal)

    dataset = os.path.join(work, "dataset.csv")
    cli.write_dataset_csv(cases, dataset)
    cfg_path = os.path.join(work, "run.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(f"dataset_path = {dataset}\nout_dir = {os.path.join(work, 'out')}\n")
        fh.write(f"calibration_ids = {','.join(map(str, cal_ids))}\n")
        for key, value in config.items():
            fh.write(f"{key} = {value}\n")
    by_id = {c.case_id: c for c in cases}
    cal = [by_id[i] for i in sorted(cal_ids)]
    val = [by_id[i] for i in sorted(set(by_id) - set(cal_ids))]
    return cfg_path, config, cal, val


def run_cli(cfg_path):
    """One `mbcal run`; (seconds, ok). Exit code 2 means the chains did not
    converge and every artifact was still written, so it counts as done."""
    from mbcal import cli

    t = time.perf_counter()
    try:
        rc = cli.main(["run", "--config", cfg_path])
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        print(f"perfbench: mbcal run raised {exc!r}", file=sys.stderr)
        rc = None
    return time.perf_counter() - t, rc in (0, 2)


def check_outputs(out, config, cal, val) -> dict:
    """Problems found by each output check, by check name."""
    import checks

    modes = config["modes"].split(",")
    return {
        "log_posterior": checks.check_log_posterior(out, cal, modes, PRIOR),
        "chains": checks.check_chains(out, modes, PRIOR),
        "summary": checks.check_summary(out, modes, config["n_burn"]),
        "rmse": checks.check_rmse(out, val, modes),
        "gp_training": checks.check_gp_training(out),
        "screening": checks.check_screening(out),
        "sobol": checks.check_sobol(out, config["sobol_n_base"]),
    }


def run_workload(name, seed, seconds, trace, tiny=False):
    """Set up, run cold, resume until `seconds` have passed, check; return the result."""
    import resource

    import numpy as np

    work = os.path.join(WORK, f"{name}-tiny" if tiny else name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    marks = [0]  # span count at each phase boundary: setup, cold run, each resume

    def mark():
        marks.append(len(tracer.spans) if tracer else 0)

    try:
        cfg_path, config, cal, val = make_inputs(name, seed, work, tiny)
        setup_s = time.perf_counter() - T_PROCESS
        out = os.path.join(work, "out")
        mark()
        t_window = time.perf_counter()
        pipeline_s, cold_ok = run_cli(cfg_path)
        mark()
        import checks
        before = checks.snapshot(out)
        resume_s, problems = [], []
        attempted, failed = 1, int(not cold_ok)
        while len(resume_s) < MIN_RESUMES or time.perf_counter() - t_window < seconds:
            dt, ok = run_cli(cfg_path)
            mark()
            resume_s.append(dt)
            attempted += 1
            failed += int(not ok)
            problems += checks.compare_resumed(before, out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()

    if cold_ok:
        for found in check_outputs(out, config, cal, val).values():
            problems += found
    else:
        problems.append("cold run failed; outputs not checked")
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if tracer:
        tracer.write(os.path.join(work, "spans.jsonl"))
        windows = [spans.Window(tracer.spans, a, b) for a, b in zip(marks, marks[1:])]
        metrics = spans.layer_metrics(windows[0], windows[1], windows[2:])
        metrics["cli.artifact_bytes"] = (sum(len(b) for b, _ in before.values()), "bytes")
        metrics["calibration.theta_true_misses"] = (checks.theta_true_misses(out), "count")
        metrics["forward_uq.validation_rmse"] = (
            checks.validation_rmse(out, "with_discrepancy"), "void_fraction")
    else:
        x_cal = np.array([c.x.as_array() for c in cal])
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (pipeline_s, "s"),
            "resume_s": (statistics.median(resume_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "emulator_rmse": (checks.emulator_rmse(out, x_cal, seed, PRIOR), "void_fraction"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One BLAS thread: the pipeline is a single Python process, and one
    # thread keeps figures comparable between machines of different sizes.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
