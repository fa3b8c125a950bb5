"""Acceptance gate: criteria A1-A8, each with its stated tolerance and budget.

Each test prints one PASS line on success; a failure message identifies the
violated clause. A6 and A7 run the full pipeline and dominate the runtime.
"""

import os
import time

import numpy as np
import pytest

import mbcal.gp as gp
from mbcal.cli import run_pipeline
from mbcal.domain import suggest_calibration_ids
from mbcal.mcmc import adaptive_mh, diagnostics
from mbcal.sampler import lhs_sample
from mbcal.sensitivity import oat_screen, sobol_indices
from mbcal.synthbench import THETA_TRUE, SynthConfig, code_model_arrays, generate_dataset


def _budget(t0, limit, label):
    elapsed = time.time() - t0
    assert elapsed < limit, f"{label}: runtime {elapsed:.1f}s exceeds {limit}s"
    return elapsed


# --------------------------------------------------------------------- A1


def test_a1_gp_correctness():
    t0 = time.time()
    rng = np.random.default_rng(0)

    # interpolation at training points within 1e-6 relative
    x = lhs_sample(40, [(0, 1)] * 3, seed=1)
    y = np.column_stack([np.sin(3 * x[:, 0]) + x[:, 1] ** 2,
                         np.cos(2 * x[:, 2]) * x[:, 0]])
    kernels = [gp.KernelConfig(np.full(3, 0.3), 1.0, 1e-10) for _ in range(2)]
    model = gp.build_model(x, y, kernels)
    mean, _ = gp.predict(model, x)
    rel = np.abs(mean - y) / np.maximum(np.abs(y), 1e-12)
    assert np.max(rel) < 1e-6, f"interpolation error {np.max(rel):.2e}"

    for k in range(20):
        n, d = int(rng.integers(8, 25)), int(rng.integers(1, 5))
        xs = rng.random((n, d))
        ys = np.sin(2 * xs.sum(axis=1)) + 0.1 * rng.standard_normal(n)
        log_params = np.concatenate([
            rng.uniform(-1.5, 1.0, d), rng.uniform(-0.5, 0.5, 1),
            rng.uniform(np.log(1e-6), np.log(1e-4), 1),
        ])
        lml, grad = gp.lml_and_grad(log_params, xs, ys)

        # matches a dense direct evaluation within 1e-8
        kc = gp.KernelConfig(np.exp(log_params[:d]),
                             float(np.exp(log_params[d])),
                             float(np.exp(log_params[d + 1])))
        K = gp.kernel_matrix(kc, xs)
        sign, logdet = np.linalg.slogdet(K)
        direct = -0.5 * (ys @ np.linalg.solve(K, ys)
                         + logdet + n * np.log(2 * np.pi))
        assert abs(lml - direct) <= 1e-8 * max(1.0, abs(direct)), \
            f"instance {k}: lml {lml} vs direct {direct}"

        # gradient vs central finite differences, relative error < 1e-4
        # (h balances roundoff in the ~1e4-magnitude lml against truncation)
        h = 1e-4
        for j in range(d + 2):
            up, dn = log_params.copy(), log_params.copy()
            up[j] += h
            dn[j] -= h
            fd = (gp.lml_and_grad(up, xs, ys)[0]
                  - gp.lml_and_grad(dn, xs, ys)[0]) / (2 * h)
            err = abs(grad[j] - fd) / max(abs(fd), 1e-8)
            assert err < 1e-4, f"instance {k} coord {j}: grad rel err {err:.2e}"

    elapsed = _budget(t0, 30, "A1")
    print(f"\nA1 PASS: GP correctness (interp<1e-6, lml<1e-8, grad<1e-4) "
          f"in {elapsed:.1f}s")


# --------------------------------------------------------------------- A2


def test_a2_emulator_convergence():
    t0 = time.time()
    x_fixed = np.array([0.5, 0.3, 0.5, 0.8])

    maes = []
    for n in (20, 40, 60, 80, 100):
        design = lhs_sample(n, [(0.05, 5.0)] * 4, seed=n)
        y = code_model_arrays(np.tile(x_fixed, (n, 1)), design)
        model = gp.fit(design, y, restarts=8, seed=0)
        maes.append(float(np.mean([m["mae"] for m in gp.loo_cv(model)])))

    assert maes[-1] <= 0.02, f"LOO MAE at n=100 is {maes[-1]:.4f} > 0.02"
    assert maes[-1] <= maes[0], f"MAE(100)={maes[-1]:.4f} > MAE(20)={maes[0]:.4f}"
    for a, b in zip(maes, maes[1:]):
        assert b <= 1.2 * a, f"trend violated beyond 20% allowance: {maes}"

    elapsed = _budget(t0, 120, "A2")
    print(f"\nA2 PASS: LOO MAE sweep {[round(m, 4) for m in maes]} in {elapsed:.1f}s")


# --------------------------------------------------------------------- A3


def test_a3_sobol_oracle():
    t0 = time.time()

    def ishigami(th):
        th = np.atleast_2d(th)
        return (np.sin(th[:, 0]) + 7 * np.sin(th[:, 1]) ** 2
                + 0.1 * th[:, 2] ** 4 * np.sin(th[:, 0]))

    res = sobol_indices(ishigami, [(-np.pi, np.pi)] * 3, 2 ** 14, seed=0)
    s = res.first_order[:, 0]
    for got, want, name in ((s[0], 0.3139, "S1"), (s[1], 0.4424, "S2"),
                            (s[2], 0.0, "S3"), (res.total[2, 0], 0.2437, "T3")):
        assert abs(got - want) <= 0.05, f"{name}={got:.4f} vs {want}"

    lin = sobol_indices(
        lambda th: 2 * np.atleast_2d(th)[:, 0] + np.atleast_2d(th)[:, 1],
        [(0, 1)] * 2, 2 ** 13, seed=1,
    )
    assert abs(lin.first_order[0, 0] - 0.8) <= 0.03
    assert abs(lin.first_order[1, 0] - 0.2) <= 0.03

    elapsed = _budget(t0, 60, "A3")
    print(f"\nA3 PASS: Ishigami S={np.round(s, 4)}, T3={res.total[2, 0]:.4f}, "
          f"linear {lin.first_order[:, 0].round(3)} in {elapsed:.1f}s")


# --------------------------------------------------------------------- A4


def test_a4_mcmc_oracle():
    t0 = time.time()

    def mh(target, d, cov, seeds):
        return adaptive_mh(target, np.zeros((len(seeds), d)), cov, n_samples=20000,
                           n_burn=4000, seeds=seeds)

    # 1-D standard normal
    chains = mh(lambda th: -0.5 * th[:, 0] ** 2, 1, np.eye(1), range(4))
    post = chains.post_burn[:, 0, 0]
    assert abs(post.mean()) <= 0.05, f"1-D mean {post.mean():.4f}"
    assert abs(post.var() - 1.0) <= 0.10, f"1-D var {post.var():.4f}"
    d = diagnostics(chains)
    assert d["rhat"][0] < 1.05, f"1-D rhat {d['rhat'][0]:.4f}"
    for rate in chains.acceptance_rate:
        assert 0.10 <= rate <= 0.45, rate

    # 2-D correlated Gaussian, rho = -0.7
    prec = np.linalg.inv(np.array([[1.0, -0.7], [-0.7, 1.0]]))
    target = lambda th: -0.5 * np.einsum("ki,ij,kj->k", th, prec, th)
    chains2 = mh(target, 2, 0.5 * np.eye(2), range(4))
    pooled = chains2.pooled
    assert np.all(np.abs(pooled.mean(axis=0)) <= 0.05)
    assert np.all(np.abs(pooled.var(axis=0) - 1.0) <= 0.10)
    corr = np.corrcoef(pooled.T)[0, 1]
    assert abs(corr + 0.7) <= 0.05, f"2-D corr {corr:.4f}"
    d2 = diagnostics(chains2)
    assert np.all(d2["rhat"] < 1.05)
    for rate in chains2.acceptance_rate:
        assert 0.10 <= rate <= 0.45

    # bit-identical chains under fixed seed
    a = mh(target, 2, 0.5 * np.eye(2), [9])
    b = mh(target, 2, 0.5 * np.eye(2), [9])
    np.testing.assert_array_equal(a.draws, b.draws)

    elapsed = _budget(t0, 60, "A4")
    print(f"\nA4 PASS: moments/corr/rhat/acceptance/reproducibility in {elapsed:.1f}s")


# --------------------------------------------------------------------- A5


def test_a5_screening():
    t0 = time.time()
    from mbcal.domain import BoundaryConditions

    def runner8(x, theta8):
        return code_model_arrays(x, theta8[:, :4])

    res = oat_screen(runner8, BoundaryConditions(0.5, 0.3, 0.5, 0.8).as_array(),
                     [(0.0, 5.0)] * 8, n=50, threshold=1e-3,
                     names=["P1008", "P1012", "P1022", "P1028",
                            "D1", "D2", "D3", "D4"])
    np.testing.assert_allclose(res.variances[4:], 0.0, atol=1e-15)
    assert set(res.selected) == {"P1008", "P1012", "P1022", "P1028"}, res.selected

    elapsed = _budget(t0, 10, "A5")
    print(f"\nA5 PASS: 4 active selected, 4 inert dummies excluded in {elapsed:.1f}s")


# ---------------------------------------------------------------- A6 / A7


def _write_pipeline_config(path, dataset, out_dir, cal_ids, **overrides):
    base = {
        "dataset_path": str(dataset),
        "out_dir": str(out_dir),
        "calibration_ids": ",".join(str(i) for i in cal_ids),
        "theta_design_size": "25",
        "gp_restarts": "4",
        "n_samples": "20000",
        "n_burn": "4000",
        "chains": "2",
        "run_screen": "false",
        "seed": "0",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    with open(path, "w") as fh:
        for k, v in base.items():
            fh.write(f"{k} = {v}\n")
    return path


def _read_rmse(out_dir, mode):
    vals = {}
    with open(os.path.join(out_dir, mode, "rmse_summary.txt")) as fh:
        for line in fh:
            if line.startswith("rmse y_M(theta=1)"):
                vals["prior"] = float(line.split("=")[-1])
            elif line.startswith("rmse y_M(theta_post)"):
                vals["post"] = float(line.split("=")[-1])
    return vals


def test_a6_overfitting_demonstration(tmp_path):
    t0 = time.time()
    from mbcal.cli import write_dataset_csv

    cases = generate_dataset(SynthConfig())  # 74 cases, sigma 0.04, discrepancy on
    dataset = tmp_path / "synthbench.csv"
    write_dataset_csv(cases, dataset)
    cal_ids = suggest_calibration_ids(cases, 20)
    out = tmp_path / "out"
    cfg = _write_pipeline_config(tmp_path / "a6.cfg", dataset, out, cal_ids)
    rc = run_pipeline(cfg)
    assert rc == 0, f"pipeline exit code {rc} (MCMC non-convergence)"

    rmse_with = _read_rmse(out, "with_discrepancy")
    rmse_no = _read_rmse(out, "no_discrepancy")
    prior = rmse_with["prior"]

    # (a) validation RMSE ordering
    assert rmse_with["post"] < prior, (
        f"(a) WithDiscrepancy posterior RMSE {rmse_with['post']:.4f} "
        f"not below prior-nominal {prior:.4f}"
    )
    assert rmse_no["post"] >= rmse_with["post"] - 0.002, (
        f"(a) NoDiscrepancy RMSE {rmse_no['post']:.4f} beats WithDiscrepancy "
        f"{rmse_with['post']:.4f} by more than 0.002"
    )

    # (b) posterior std smaller in NoDiscrepancy mode for >= 3 of 4 parameters
    def stds(mode):
        out_std = {}
        with open(out / mode / "posterior_summary.csv") as fh:
            for line in fh:
                if line.startswith("#") or line.startswith("parameter"):
                    continue
                toks = line.split(",")
                out_std[toks[0]] = float(toks[2])
        return out_std

    sw, sn = stds("with_discrepancy"), stds("no_discrepancy")
    narrower = sum(sn[p] < sw[p] for p in sw)
    assert narrower >= 3, f"(b) NoDiscrepancy narrower for only {narrower}/4"

    # (c) posterior correlation(theta1, theta2) < -0.2 in both modes
    for mode in ("with_discrepancy", "no_discrepancy"):
        with open(out / mode / "posterior_correlation.csv") as fh:
            lines = [l for l in fh if not l.startswith("#")]
        corr12 = float(lines[1].split(",")[2])
        assert corr12 < -0.2, f"(c) corr(P1008,P1012)={corr12:.3f} in {mode}"

    elapsed = _budget(t0, 900, "A6")
    print(f"\nA6 PASS: prior={prior:.4f}, with={rmse_with['post']:.4f}, "
          f"no={rmse_no['post']:.4f}, narrower={narrower}/4 in {elapsed:.0f}s")


def test_a7_self_consistency(tmp_path):
    t0 = time.time()
    from mbcal.cli import write_dataset_csv

    cases = generate_dataset(SynthConfig(discrepancy_on=False, sigma_exp=0.01))
    dataset = tmp_path / "selfcheck.csv"
    write_dataset_csv(cases, dataset)
    cal_ids = suggest_calibration_ids(cases, 20)
    out = tmp_path / "out"
    cfg = _write_pipeline_config(tmp_path / "a7.cfg", dataset, out, cal_ids,
                                 modes="with_discrepancy")
    run_pipeline(cfg)

    intervals = {}
    with open(out / "with_discrepancy" / "posterior_summary.csv") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("parameter"):
                continue
            toks = line.split(",")
            intervals[toks[0]] = (float(toks[3]), float(toks[5]))

    truth = dict(zip(("P1008", "P1012", "P1022", "P1028"),
                     THETA_TRUE.as_array()))
    for name, (lo, hi) in intervals.items():
        assert lo <= truth[name] <= hi, (
            f"theta_true[{name}]={truth[name]} outside 95% interval "
            f"[{lo:.3f}, {hi:.3f}]"
        )

    elapsed = _budget(t0, 900, "A7")
    print(f"\nA7 PASS: theta_true inside all central 95% intervals in {elapsed:.0f}s")


# --------------------------------------------------------------------- A8


def test_a8_determinism_and_schema(tmp_path):
    from mbcal.cli import ingest_csv, write_dataset_csv
    from mbcal.domain import DATASET_HEADER

    cases = generate_dataset(SynthConfig(n_cases=30, seed=21))
    dataset = tmp_path / "cases.csv"
    write_dataset_csv(cases, dataset)
    cal_ids = suggest_calibration_ids(cases, 8)

    # identical config/seed: every artifact byte-for-byte across a rerun
    def run_into(tag):
        out = tmp_path / tag
        cfg = _write_pipeline_config(
            tmp_path / f"{tag}.cfg", dataset, out, cal_ids,
            theta_design_size="20", gp_restarts="2", n_samples="1000",
            n_burn="300", run_screen="true", run_sobol="true",
            sobol_n_base="64", screen_points="10", n_propagate="50",
        )
        run_pipeline(cfg)
        return out

    out1 = run_into("run1")
    artifacts = []
    for root, _, files in os.walk(out1):
        for f in files:
            artifacts.append(os.path.relpath(os.path.join(root, f), out1))
    assert len(artifacts) >= 20
    snapshot = {rel: open(out1 / rel, "rb").read() for rel in artifacts}
    run_into("run1")  # rerun with the identical config into the same out_dir
    for rel in sorted(artifacts):
        assert open(out1 / rel, "rb").read() == snapshot[rel], \
            f"artifact differs after rerun: {rel}"

    # a replay into a fresh out_dir reproduces everything except the
    # out_dir line the manifest records
    out2 = run_into("run2")
    for rel in sorted(artifacts):
        a, b = snapshot[rel], open(out2 / rel, "rb").read()
        if rel == "manifest.txt":
            strip = lambda blob: [ln for ln in blob.splitlines()
                                  if not ln.startswith(b"out_dir")]
            assert strip(a) == strip(b), "manifest differs beyond out_dir"
        else:
            assert a == b, f"artifact differs between replayed runs: {rel}"

    # headers match the documented schemas exactly
    headers = {
        "screening.csv": "parameter,output,variance,selected",
        "sobol.csv": "parameter,output,first_order,total",
        "scatter_prior.csv": "case_id,location,y_exp,y_prior",
        "with_discrepancy/chain_1.csv":
            "step,theta1,theta2,theta3,theta4,log_post,accepted",
        "with_discrepancy/posterior_summary.csv":
            "parameter,mean,std,p2.5,p50,p97.5",
        "with_discrepancy/posterior_correlation.csv":
            "parameter,P1008,P1012,P1022,P1028",
        "with_discrepancy/validation_report.csv":
            "case_id,location,y_exp,y_prior,y_post_mean,y_post_std,"
            "p2.5,p97.5,covered",
    }
    for rel, header in headers.items():
        lines = open(out1 / rel).read().splitlines()
        assert lines[0].startswith("# config_hash="), rel
        assert lines[1] == header, f"{rel}: header {lines[1]!r}"
    assert open(dataset).readline().strip() == DATASET_HEADER

    # each documented malformed-input class is rejected with its error
    bad_cases = [
        (DATASET_HEADER.replace(",sigma_exp", "") + "\n", "missing column"),
        (DATASET_HEADER + ",extra\n", "unexpected column"),
        (DATASET_HEADER + "\n1,0.5,0.5\n", "expected 9 fields"),
        (DATASET_HEADER + "\n1,0.5,0.5,0.5,0.5,0.1,0.2,x,0.01\n",
         "unparseable value"),
        (DATASET_HEADER + "\n1,0.5,0.5,0.5,0.5,0.1,0.2,0.3,0.01\n"
         "1,0.5,0.5,0.5,0.5,0.1,0.2,0.3,0.01\n", "duplicate case_id"),
        (DATASET_HEADER + "\n1,1.5,0.5,0.5,0.5,0.1,0.2,0.3,0.01\n",
         "out of \\[0,1\\]"),
        (DATASET_HEADER + "\n1,0.5,0.5,0.5,0.5,0.1,0.2,0.3,-1\n",
         "nonpositive measurement sigma"),
        ("", "empty file"),
    ]
    bad = tmp_path / "bad.csv"
    for text, match in bad_cases:
        bad.write_text(text)
        with pytest.raises(ValueError, match=match):
            ingest_csv(bad)

    print(f"\nA8 PASS: {len(artifacts)} artifacts byte-identical, schemas exact, "
          f"{len(bad_cases)} malformed-input classes rejected")
