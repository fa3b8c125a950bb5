import collections
import os
import shutil

import numpy as np
import pytest

import mbcal.cli
from mbcal.cli import (
    ingest_csv,
    load_config,
    main,
    read_partition_file,
    run_pipeline,
    write_dataset_csv,
)
from mbcal.domain import DATASET_HEADER
from mbcal.mcmc import PosteriorChain
from mbcal.synthbench import SynthConfig, generate_dataset


# ----------------------------------------------------------------- config


def write_config(path, dataset, out_dir, **overrides):
    base = {
        "dataset_path": str(dataset),
        "out_dir": str(out_dir),
        "calibration_ids": ",".join(str(i) for i in range(1, 9)),
        "theta_design_size": "20",
        "gp_restarts": "2",
        "n_samples": "600",
        "n_burn": "200",
        "chains": "2",
        "screen_points": "10",
        "n_propagate": "50",
        "thin": "5",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    with open(path, "w") as fh:
        fh.write("# test config\n")
        for k, v in base.items():
            fh.write(f"{k} = {v}\n")
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cases.csv"
    cases = generate_dataset(SynthConfig(n_cases=30, seed=11))
    write_dataset_csv(cases, path)
    return path


def test_load_config_defaults(tmp_path, dataset):
    cfg_path = write_config(tmp_path / "c.cfg", dataset, tmp_path / "out")
    cfg = load_config(cfg_path)
    assert cfg.prior.lo == 0.05 and cfg.prior.hi == 5.0
    assert cfg.run_screen is True and cfg.run_sobol is False
    assert cfg.calibration_ids == list(range(1, 9))
    assert [m.value for m in cfg.modes] == ["with_discrepancy", "no_discrepancy"]


def test_load_config_unknown_key(tmp_path, dataset):
    path = write_config(tmp_path / "c.cfg", dataset, tmp_path / "out")
    with open(path, "a") as fh:
        fh.write("bogus_key = 1\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_load_config_missing_required(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("out_dir = /tmp/x\ncalibration_ids = 1,2\n")
    with pytest.raises(ValueError, match="dataset_path"):
        load_config(path)


def test_load_config_missing_ids(tmp_path, dataset):
    path = tmp_path / "c.cfg"
    path.write_text(f"dataset_path = {dataset}\nout_dir = {tmp_path / 'out'}\n")
    with pytest.raises(ValueError, match="calibration_ids"):
        load_config(path)


def test_load_config_both_id_sources(tmp_path, dataset):
    part = tmp_path / "part.txt"
    part.write_text("calibration = 1,2,3\n")
    path = write_config(tmp_path / "c.cfg", dataset, tmp_path / "out",
                        partition_file=part)
    with pytest.raises(ValueError, match="not both"):
        load_config(path)


def test_load_config_partition_file(tmp_path, dataset):
    part = tmp_path / "part.txt"
    part.write_text("# ids\ncalibration = 3, 5, 7\n")
    path = tmp_path / "c.cfg"
    path.write_text(
        f"dataset_path = {dataset}\nout_dir = {tmp_path / 'out'}\n"
        f"partition_file = {part}\n"
    )
    cfg = load_config(path)
    assert cfg.calibration_ids == [3, 5, 7]


def test_read_partition_file_bad_key(tmp_path):
    part = tmp_path / "part.txt"
    part.write_text("validation = 1,2\n")
    with pytest.raises(ValueError, match="unexpected key"):
        read_partition_file(part)
    part.write_text("calibration = 1,2\ncalibration = 3,4\n")
    with pytest.raises(ValueError, match="one 'calibration =' line, has 2"):
        read_partition_file(part)


def test_load_config_validation(tmp_path, dataset):
    for key, val, msg in [
        ("n_samples", "-5", "positive"),
        ("n_burn", "600", "n_burn"),
        ("run_screen", "maybe", "boolean"),
        ("modes", "bogus_mode", "bogus_mode"),
        ("chains", "1", "chains"),
        ("n_samples", "201", "n_samples - n_burn"),
        ("n_samples", "203", "n_samples - n_burn"),
        ("theta_design_size", "10", "theta_design_size"),
        ("seed", "-1", "seed"),
        ("sobol_n_base", "100", "sobol_n_base"),
        ("screen_points", "1", "screen_points"),
        ("screen_threshold", "0", "screen_threshold"),
        ("modes", "no_discrepancy,no_discrepancy", "modes"),
    ]:
        path = write_config(tmp_path / "c.cfg", dataset, tmp_path / "out",
                            **{key: val})
        with pytest.raises(ValueError, match=msg):
            load_config(path)


def test_load_config_missing_dataset(tmp_path, dataset):
    path = write_config(tmp_path / "c.cfg", tmp_path / "nope.csv",
                        tmp_path / "out")
    with pytest.raises(ValueError, match="not found"):
        load_config(path)


def test_config_hash_excludes_out_dir(tmp_path, dataset):
    a = load_config(write_config(tmp_path / "a.cfg", dataset, tmp_path / "out1"))
    b = load_config(write_config(tmp_path / "b.cfg", dataset, tmp_path / "out2"))
    c = load_config(write_config(tmp_path / "c.cfg", dataset, tmp_path / "out1",
                                 seed=99))
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


def test_config_hash_ignores_stage_switches_and_covers_version(tmp_path, dataset,
                                                              monkeypatch):
    a = load_config(write_config(tmp_path / "a.cfg", dataset, tmp_path / "out"))
    b = load_config(write_config(tmp_path / "b.cfg", dataset, tmp_path / "out",
                                 run_screen="false", run_sobol="true"))
    assert a.hash() == b.hash()
    before = a.hash()
    monkeypatch.setattr(mbcal.cli, "__version__", "0.0.0")
    assert a.hash() != before


def test_seed_override_changes_hash(tmp_path, dataset):
    path = write_config(tmp_path / "c.cfg", dataset, tmp_path / "out")
    assert load_config(path).hash() != load_config(path, seed_override=5).hash()


# ---------------------------------------------------------------- ingest


def test_ingest_roundtrip(tmp_path, dataset):
    cases = ingest_csv(dataset)
    assert len(cases) == 30
    out = tmp_path / "again.csv"
    write_dataset_csv(cases, out)
    assert out.read_text() == open(dataset).read()


def test_ingest_bad_header_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER.replace(",sigma_exp", "") + "\n")
    with pytest.raises(ValueError, match="missing column.*sigma_exp"):
        ingest_csv(path)


def test_ingest_bad_header_extra_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + ",extra\n")
    with pytest.raises(ValueError, match="unexpected column.*extra"):
        ingest_csv(path)


def test_ingest_wrong_field_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n1,0.5,0.5\n")
    with pytest.raises(ValueError, match="line 2: expected 9 fields"):
        ingest_csv(path)


def test_ingest_unparseable_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n1,0.5,0.5,0.5,0.5,0.1,0.2,abc,0.01\n")
    with pytest.raises(ValueError, match="line 2: unparseable value"):
        ingest_csv(path)


def test_ingest_duplicate_case_id(tmp_path):
    path = tmp_path / "bad.csv"
    row = "0.5,0.5,0.5,0.5,0.1,0.2,0.3,0.01"
    path.write_text(DATASET_HEADER + f"\n1,{row}\n1,{row}\n")
    with pytest.raises(ValueError, match="line 3: duplicate case_id 1"):
        ingest_csv(path)


def test_ingest_out_of_range_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n1,1.5,0.5,0.5,0.5,0.1,0.2,0.3,0.01\n")
    with pytest.raises(ValueError, match="line 2.*out of \\[0,1\\]"):
        ingest_csv(path)


def test_ingest_nonpositive_sigma(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(DATASET_HEADER + "\n1,0.5,0.5,0.5,0.5,0.1,0.2,0.3,0\n")
    with pytest.raises(ValueError, match="nonpositive measurement sigma"):
        ingest_csv(path)


def test_ingest_skips_comment_lines(tmp_path, dataset):
    text = open(dataset).read()
    path = tmp_path / "commented.csv"
    path.write_text("# preamble\n" + text)
    assert ingest_csv(path) == ingest_csv(dataset)


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        ingest_csv(path)


# -------------------------------------------------------------- synth-gen


def test_synth_gen_cli(tmp_path):
    out = tmp_path / "gen.csv"
    rc = main(["synth-gen", "--out", str(out), "--n-cases", "20", "--seed", "3"])
    assert rc == 0
    cases = ingest_csv(out)
    assert len(cases) == 20
    sidecar = str(out) + ".truth.txt"
    assert os.path.exists(sidecar)
    assert "theta_true" in open(sidecar).read()
    # the sidecar must never affect ingestion
    os.remove(sidecar)
    assert len(ingest_csv(out)) == 20


def test_synth_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["synth-gen", "--out", str(a), "--n-cases", "15", "--seed", "7"])
    main(["synth-gen", "--out", str(b), "--n-cases", "15", "--seed", "7"])
    assert a.read_text() == b.read_text()


# --------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def small_run(tmp_path_factory, dataset):
    tmp = tmp_path_factory.mktemp("run")
    out = tmp / "out"
    cfg_path = write_config(tmp / "run.cfg", dataset, out)
    rc = run_pipeline(cfg_path)
    return rc, cfg_path, out


def test_pipeline_artifacts_exist(small_run):
    rc, _, out = small_run
    assert rc in (0, 2)
    assert (out / "manifest.txt").exists()
    assert (out / "screening.csv").exists()
    assert (out / "gp_cc.json").exists()
    assert (out / "scatter_prior.csv").exists()
    for mode in ("with_discrepancy", "no_discrepancy"):
        d = out / mode
        for name in ("chain_1.csv", "chain_2.csv", "posterior_summary.csv",
                     "posterior_correlation.csv", "diagnostics.txt",
                     "validation_report.csv", "rmse_summary.txt",
                     "posterior_pairs.csv", "posterior_marginals.csv",
                     "validation_errors.csv"):
            assert (d / name).exists(), name
    assert (out / "with_discrepancy" / "gp_md.json").exists()
    assert not (out / "no_discrepancy" / "gp_md.json").exists()
    assert not (out / "sobol.csv").exists()  # run_sobol defaults to false


def test_pipeline_artifacts_carry_hash(small_run):
    _, cfg_path, out = small_run
    cfg_hash = load_config(cfg_path).hash()
    for name in ("screening.csv", "scatter_prior.csv", "manifest.txt"):
        first = open(out / name).readline().strip()
        assert first == f"# config_hash={cfg_hash}"


def test_pipeline_headers(small_run):
    _, _, out = small_run
    expected = {
        "screening.csv": "parameter,output,variance,selected",
        "scatter_prior.csv": "case_id,location,y_exp,y_prior",
        "with_discrepancy/posterior_summary.csv":
            "parameter,mean,std,p2.5,p50,p97.5",
        "with_discrepancy/validation_report.csv":
            "case_id,location,y_exp,y_prior,y_post_mean,y_post_std,"
            "p2.5,p97.5,covered",
        "with_discrepancy/posterior_pairs.csv":
            "chain,step,P1008,P1012,P1022,P1028",
        "with_discrepancy/posterior_marginals.csv":
            "parameter,bin_lo,bin_hi,count",
        "with_discrepancy/validation_errors.csv":
            "case_id,location,error_prior,error_posterior",
    }
    for name, header in expected.items():
        lines = open(out / name).read().splitlines()
        assert lines[1] == header, name


def test_pipeline_pairs_row_count(small_run):
    _, cfg_path, out = small_run
    cfg = load_config(cfg_path)
    per_chain = (cfg.n_samples - cfg.n_burn) // cfg.thin
    lines = open(out / "with_discrepancy" / "posterior_pairs.csv").read().splitlines()
    assert len(lines) == 2 + cfg.chains * per_chain


def test_pipeline_screening_selects_active_only(small_run):
    _, _, out = small_run
    lines = open(out / "screening.csv").read().splitlines()[2:]
    selected = {ln.split(",")[0] for ln in lines if ln.split(",")[3] == "1"}
    assert selected == {"P1008", "P1012", "P1022", "P1028"}


def _file_id(path):
    """(inode, mtime): a file deleted and written again can get its old inode
    back, so the inode alone cannot tell rewritten from untouched."""
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def _tree(out):
    """(bytes, inode, mtime) of every file under out, by relative path."""
    return {str(p.relative_to(out)): (p.read_bytes(), *_file_id(p))
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_pipeline_resume_and_determinism(small_run, tmp_path, dataset):
    rc, cfg_path, out = small_run
    before = _tree(out)
    # a resume of a finished run recomputes and rewrites nothing, the manifest
    # included, and exits as the cold run did
    assert run_pipeline(cfg_path) == rc
    assert _tree(out) == before


def test_finished_resume_reads_each_artifact_once(small_run, monkeypatch):
    # the exit code comes from the diagnostics.txt body the summaries check read
    rc, cfg_path, out = small_run
    reads = collections.Counter()
    reuse = mbcal.cli._reuse
    monkeypatch.setattr(mbcal.cli, "_reuse", lambda path, *a: reads.update(
        [os.path.relpath(path, out)]) or reuse(path, *a))
    assert run_pipeline(cfg_path) == rc
    files = [str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()]
    assert reads == collections.Counter(files)


@pytest.mark.parametrize("gp_name, made_from", [
    ("gp_cc.json", ("with_discrepancy/", "no_discrepancy/")),
    ("with_discrepancy/gp_md.json", ("with_discrepancy/",)),
], ids=["gp_cc", "gp_md"])
def test_pipeline_resume_after_gp_rebuild_resamples_chains(small_run, tmp_path, dataset,
                                                          gp_name, made_from):
    # a refitted GP is a rebuilt input: the chains of every mode that uses it
    # are sampled again against it, and everything downstream of them is
    # rebuilt. GP_MD is fitted on raw-code residuals, not on GP_CC, so a
    # GP_CC refit keeps it; every other file keeps its inode and mtime.
    rc, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    (out2 / gp_name).unlink()
    before = _tree(out2)
    assert run_pipeline(write_config(tmp_path / "c.cfg", dataset, out2)) == rc
    after = _tree(out2)
    assert set(after) == set(before) | {gp_name}
    for name, (blob, ino, mtime) in after.items():
        if name in ("manifest.txt", gp_name):  # the manifest records out_dir
            continue
        assert blob == (out / name).read_bytes(), name
        rebuilt = name.startswith(made_from) and not name.endswith("gp_md.json")
        # a rewrite may reuse the inode, not the mtime too
        assert ((ino, mtime) != before[name][1:]) == rebuilt, name


def _plant(path):
    """Set every theta column of a chain file to 1.2345, keeping its hash
    line and line count, so the file still reads as whole."""
    lines = path.read_text().splitlines(keepends=True)
    rows = [line.split(",") for line in lines[2:]]
    path.write_text("".join(lines[:2]) + "".join(
        ",".join([r[0], *["1.2345"] * 4, *r[5:]]) for r in rows))


def _assert_same_bytes(out2, out):
    """out2 holds out's files with out's bytes, except manifest.txt (it records out_dir)."""
    names = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert {str(p.relative_to(out2)) for p in out2.rglob("*") if p.is_file()} == names
    for name in names - {"manifest.txt"}:
        assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


def _stop(after_calls, fn):
    """fn, except that call number after_calls + 1 raises instead."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        if len(calls) > after_calls:
            raise RuntimeError("stopped")
        return fn(*args, **kwargs)
    return wrapped


def test_stop_after_gp_cc_refit_leaves_no_artifact_of_the_old_one(small_run, tmp_path,
                                                                  dataset):
    # a GP_CC refit deletes every mode's chains and later artifacts before it
    # starts, so a run stopped inside the first mode's sampling leaves no
    # chain of the old GP_CC for the next run to reuse
    rc, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    for mode in ("with_discrepancy", "no_discrepancy"):
        _plant(out2 / mode / "chain_1.csv")
    (out2 / "gp_cc.json").unlink()
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mbcal.cli, "calibrate", _stop(0, mbcal.cli.calibrate))
        with pytest.raises(RuntimeError, match="stopped"):
            run_pipeline(cfg_path)
    assert [p.name for p in (out2 / "with_discrepancy").iterdir()] == ["gp_md.json"]
    assert list((out2 / "no_discrepancy").iterdir()) == []
    assert run_pipeline(cfg_path) == rc
    _assert_same_bytes(out2, out)


def test_stop_after_gp_md_refit_leaves_no_chain_of_the_old_one(small_run, tmp_path,
                                                               dataset):
    # a GP_MD refit deletes its mode's whole chain set before it starts, so a
    # run stopped after writing chain_1.csv leaves no old chain_2.csv beside it
    rc, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    chain_2 = out2 / "with_discrepancy" / "chain_2.csv"
    _plant(chain_2)
    (out2 / "with_discrepancy" / "gp_md.json").unlink()
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out2)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PosteriorChain, "to_csv", _stop(1, PosteriorChain.to_csv))
        with pytest.raises(RuntimeError, match="stopped"):
            run_pipeline(cfg_path)
    assert (out2 / "with_discrepancy" / "chain_1.csv").exists()
    assert not chain_2.exists()
    assert run_pipeline(cfg_path) == rc
    assert chain_2.read_bytes() == (out / "with_discrepancy" / "chain_2.csv").read_bytes()
    _assert_same_bytes(out2, out)


def test_validate_then_export_propagates_once_per_mode(small_run, tmp_path, dataset,
                                                        monkeypatch):
    _, _, one_shot = small_run
    calls = []
    propagate = mbcal.cli.propagate
    monkeypatch.setattr(mbcal.cli, "propagate",
                        lambda *a, **k: calls.append(1) or propagate(*a, **k))
    out = tmp_path / "out"
    cfg_path = str(write_config(tmp_path / "c.cfg", dataset, out))
    assert main(["validate", "--config", cfg_path]) in (0, 2)
    assert main(["export", "--config", cfg_path]) in (0, 2)
    assert len(calls) == 2  # validate wrote validation_errors.csv; export reads no mean
    for mode in ("with_discrepancy", "no_discrepancy"):
        name = f"{mode}/validation_errors.csv"
        assert (out / name).read_bytes() == (one_shot / name).read_bytes(), name
    assert main(["run", "--config", cfg_path]) in (0, 2)
    assert len(calls) == 2  # a resume of a finished run propagates nothing


def test_stage_command_removes_artifacts_of_resampled_chains(small_run, tmp_path, dataset):
    # `mbcal calibrate` resamples a cut chain set; the mode's validate and
    # export artifacts describe the old chains, so it removes them, and a
    # later run rebuilds them instead of reusing them
    _, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    chain = out2 / "no_discrepancy" / "chain_1.csv"
    chain.write_text("".join(chain.read_text().splitlines(keepends=True)[:10]))
    downstream = [f"no_discrepancy/{name}" for name in (
        "validation_report.csv", "rmse_summary.txt", "validation_errors.csv",
        "posterior_pairs.csv", "posterior_marginals.csv")]
    before = _tree(out2)
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out2)
    assert run_pipeline(cfg_path, stages={"calibrate"}) in (0, 2)
    for name in downstream:
        assert not (out2 / name).exists(), name
    assert run_pipeline(cfg_path) in (0, 2)
    after = _tree(out2)
    assert set(after) == set(before)
    for name, (blob, _, _) in after.items():
        if name != "manifest.txt":  # it records out_dir
            assert blob == (out / name).read_bytes(), name


def test_pipeline_resume_refused_on_config_change(small_run, tmp_path, dataset):
    _, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    cfg_path = write_config(tmp_path / "changed.cfg", dataset, out2, seed=42)
    with pytest.raises(RuntimeError, match="resume refused"):
        run_pipeline(cfg_path)


def test_flipping_run_sobol_reuses_finished_artifacts(small_run, tmp_path, dataset):
    # run_sobol only adds a stage: `mbcal screen` and then `mbcal run` under
    # the flipped config keep every finished artifact and add sobol.csv
    _, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    kept = ["screening.csv", "gp_cc.json", "with_discrepancy/gp_md.json",
            "with_discrepancy/chain_1.csv", "no_discrepancy/chain_2.csv"]
    before = {n: ((out2 / n).read_bytes(), _file_id(out2 / n)) for n in kept}
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out2, run_sobol="true")
    assert main(["screen", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path)]) in (0, 2)
    for name in kept:
        assert ((out2 / name).read_bytes(), _file_id(out2 / name)) == before[name]
    assert (out2 / "sobol.csv").exists()


def test_pipeline_covered_column_matches_coverage_95(small_run):
    _, _, out = small_run
    for mode in ("with_discrepancy", "no_discrepancy"):
        covered = np.loadtxt(out / mode / "validation_report.csv", delimiter=",",
                             skiprows=2, usecols=8)
        text = (out / mode / "rmse_summary.txt").read_text()
        coverage = float(text.split("coverage_95 = ")[1].split()[0])
        assert abs(covered.mean() - coverage) <= 5e-5  # printed to 4 decimals


def test_pipeline_resume_recomputes_truncated_chain(small_run, tmp_path, dataset):
    _, _, out = small_run
    out2 = tmp_path / "copy"
    shutil.copytree(out, out2)
    chain = out2 / "with_discrepancy" / "chain_1.csv"
    chain.write_text("".join(chain.read_text().splitlines(keepends=True)[:10]))
    rc = run_pipeline(write_config(tmp_path / "c.cfg", dataset, out2))
    assert rc in (0, 2)
    for mode in ("with_discrepancy", "no_discrepancy"):
        for k in (1, 2):
            name = f"{mode}/chain_{k}.csv"
            assert (out2 / name).read_bytes() == (out / name).read_bytes(), name


def test_pipeline_resume_refused_after_dataset_edit(tmp_path, dataset):
    data = tmp_path / "cases.csv"
    shutil.copy(dataset, data)
    cfg_path = write_config(tmp_path / "c.cfg", data, tmp_path / "out")
    assert run_pipeline(cfg_path, stages={"screen"}) == 0
    assert run_pipeline(cfg_path, stages={"screen"}) == 0  # unchanged: resumes
    lines = data.read_text().splitlines()
    toks = lines[1].split(",")
    toks[5] = repr(float(toks[5]) + 0.1)
    lines[1] = ",".join(toks)
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(RuntimeError, match="resume refused"):
        run_pipeline(cfg_path, stages={"screen"})


def test_pipeline_fresh_out_dir_replays(small_run, tmp_path, dataset):
    # same config hash, new out_dir: byte-identical chains
    _, cfg_path, out = small_run
    out2 = tmp_path / "fresh"
    cfg2 = write_config(tmp_path / "fresh.cfg", dataset, out2)
    rc = run_pipeline(cfg2)
    assert rc in (0, 2)
    for mode in ("with_discrepancy", "no_discrepancy"):
        a = open(out / mode / "chain_1.csv").read()
        b = open(out2 / mode / "chain_1.csv").read()
        assert a == b


def test_pipeline_single_stage_screen(tmp_path, dataset):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out)
    rc = run_pipeline(cfg_path, stages={"screen"})
    assert rc == 0
    assert (out / "screening.csv").exists()
    assert not (out / "gp_cc.json").exists()


def test_pipeline_sobol_stage(tmp_path, dataset):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out,
                            run_sobol="true", sobol_n_base="64")
    rc = run_pipeline(cfg_path, stages={"sobol"})
    assert rc == 0
    lines = open(out / "sobol.csv").read().splitlines()
    assert lines[1] == "parameter,output,first_order,total"
    assert len(lines) == 2 + 4 * 3


def test_pipeline_sobol_stage_runs_without_run_sobol(tmp_path, dataset):
    # a stage subcommand runs the stage it names; run_sobol only decides
    # whether `mbcal run` includes it
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out, sobol_n_base="64")
    assert load_config(cfg_path).run_sobol is False
    assert run_pipeline(cfg_path, stages={"sobol"}) == 0
    lines = open(out / "sobol.csv").read().splitlines()
    assert len(lines) == 2 + 4 * 3


def test_pipeline_stage_error_names_stage(tmp_path, dataset):
    out = tmp_path / "out"
    # calibration ids missing from the dataset -> partition stage failure
    cfg_path = write_config(tmp_path / "c.cfg", dataset, out,
                            calibration_ids="900,901,902")
    with pytest.raises(RuntimeError, match="stage 'partition' failed"):
        run_pipeline(cfg_path)


def test_main_reports_errors(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, stage, extra", [
    ("screening.csv", "screen", {}),
    ("sobol.csv", "sobol", {"run_sobol": "true", "sobol_n_base": "64"}),
    ("gp_cc.json", "calibrate", {}),
    ("with_discrepancy/gp_md.json", "calibrate", {}),
    ("with_discrepancy/diagnostics.txt", "calibrate", {}),
    ("no_discrepancy/validation_report.csv", "validate", {}),
    ("with_discrepancy/posterior_pairs.csv", "export", {}),
    ("scatter_prior.csv", "export", {}),
    ("no_discrepancy/validation_errors.csv", "validate", {}),
])
def test_pipeline_resume_recomputes_short_fixed_row_artifact(tmp_path, dataset,
                                                             name, stage, extra):
    # every artifact holds a row count the config fixes: a file cut to 5
    # lines keeps its hash line, one cut to 10 bytes not even that; both
    # must be recomputed, not reused or refused. A GP file is one JSON line,
    # so only the 10-byte cut changes it, and it no longer parses. An
    # artifact downstream of the chains is rebuilt from the chain files,
    # which are read, not rewritten.
    ok = (0,) if stage in ("screen", "sobol") else (0, 2)  # 2: chains did not converge
    fresh = write_config(tmp_path / "a.cfg", dataset, tmp_path / "a", **extra)
    assert run_pipeline(fresh, stages={stage}) in ok
    expected = (tmp_path / "a" / name).read_bytes()
    cfg_path = write_config(tmp_path / "b.cfg", dataset, tmp_path / "b", **extra)
    assert run_pipeline(cfg_path, stages={stage}) in ok
    path = tmp_path / "b" / name
    inputs = {p: _file_id(p) for p in (tmp_path / "b").rglob("*")
              if p.name.startswith(("chain_", "gp_"))}
    for cut in (b"".join(expected.splitlines(keepends=True)[:5]), expected[:10]):
        path.write_bytes(cut)
        assert run_pipeline(cfg_path, stages={stage}) in ok
        assert path.read_bytes() == expected
        if not name.endswith(".json"):
            assert {p: _file_id(p) for p in inputs} == inputs
