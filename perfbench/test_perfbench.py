"""The benchmark at a tiny size: both workloads run clean on two seeds, and
every output check rejects an artifact corrupted in the way it guards against."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()
import checks  # noqa: E402  (needs the program on the path)

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(run.REPO, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload_is_correct(workload, seed, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    result = run.run_workload(workload, seed, 0.0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_RESUMES
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_traced_run_reports_every_layer(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    result = run.run_workload(workload, 0, 0.0, trace=1, tiny=True)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    with open(tmp_path / f"{workload}-tiny" / "spans.jsonl") as fh:
        names = {json.loads(line)["name"] for line in fh}
    assert {"cli.main", "gp.lml_and_grad", "calibration.LogPosterior"} <= names
    # every wrapped function is put back
    import mbcal.gp
    assert mbcal.gp.lml_and_grad.__module__ == "mbcal.gp"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    cfg_path, config, cal, val = run.make_inputs("two_modes", 0, str(work), tiny=True)
    _, ok = run.run_cli(cfg_path)
    assert ok
    return str(work / "out"), config, cal, val


def rewrite_field(path, row, col, fn):
    """Apply fn to one field of a data row of an artifact CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    toks = lines[data[row]].split(",")
    toks[col] = fn(toks[col])
    lines[data[row]] = ",".join(toks)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def shift(delta):
    return lambda v: repr(float(v) + delta)


def edit_gp_target(path):
    with open(path) as fh:
        doc = json.load(fh)
    doc["y"][0][0] += 1.0
    with open(path, "w") as fh:
        json.dump(doc, fh)


def edit_nominal_rmse(path):
    with open(path) as fh:
        text = fh.read()
    line = next(ln for ln in text.splitlines() if ln.startswith("rmse y_M(theta=1)"))
    with open(path, "w") as fh:
        fh.write(text.replace(line, "rmse y_M(theta=1) = 0.123456"))


CHAIN = "with_discrepancy/chain_1.csv"
CORRUPTIONS = {
    "log_post shifted": (CHAIN, lambda p: rewrite_field(p, -1, -2, shift(1.0)),
                         "log_posterior", "recomputed"),
    "draw outside prior": (CHAIN, lambda p: rewrite_field(p, 50, 1, lambda v: "5.5"),
                           "chains", "outside the prior box"),
    "accepted flag flipped": (CHAIN, lambda p: rewrite_field(
        p, 60, -1, lambda v: str(1 - int(v))), "chains", "accepted flag"),
    "percentile edited": ("with_discrepancy/posterior_summary.csv",
                          lambda p: rewrite_field(p, 0, 5, shift(1e-3)), "summary", "p97.5"),
    "nominal rmse edited": ("no_discrepancy/rmse_summary.txt", edit_nominal_rmse,
                            "rmse", "nominal RMSE"),
    "emulator target edited": ("gp_cc.json", edit_gp_target, "gp_training", "training-row"),
    "dummy selected": ("screening.csv", lambda p: rewrite_field(p, -1, 3, lambda v: "1"),
                       "screening", "selected"),
    "sobol index out of range": ("sobol.csv", lambda p: rewrite_field(p, 0, 3, shift(2.0)),
                                 "sobol", "sobol indices"),
}


def test_checks_pass_on_clean_outputs(tiny_run):
    problems = run.check_outputs(*tiny_run)
    assert not any(problems.values()), problems


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_artifact(corruption, tiny_run, tmp_path):
    out, config, cal, val = tiny_run
    rel, corrupt, check, message = CORRUPTIONS[corruption]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    corrupt(os.path.join(copy, rel))
    problems = run.check_outputs(copy, config, cal, val)[check]
    assert any(message in p for p in problems), problems


def test_resume_check_rejects_one_changed_byte(tiny_run, tmp_path):
    copy = str(tmp_path / "out")
    shutil.copytree(tiny_run[0], copy)
    before = checks.snapshot(copy)
    assert checks.compare_resumed(before, copy) == []
    path = os.path.join(copy, "with_discrepancy", "validation_report.csv")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    blob[-2] = ord("0") if blob[-2] != ord("0") else ord("1")
    with open(path, "wb") as fh:
        fh.write(blob)
    assert checks.compare_resumed(before, copy)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(run.REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selfcheck", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
