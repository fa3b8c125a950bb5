"""In-memory spans around the public functions of each mbcal layer.

The tracer replaces each function under the name its caller looks up
(``mbcal.cli.build_gp_cc``, ``mbcal.gp.lml_and_grad``, ...), records
(name, start, end, parent, info) per call, and puts every original back on
``restore``. No program file is edited.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import mbcal.calibration
import mbcal.cli
import mbcal.gp
import mbcal.mcmc
import mbcal.synthbench


def _diag_info(result):
    return {"min_ess": float(min(result["ess"])), "max_rhat": float(max(result["rhat"]))}


# span name -> (owner, attribute) pairs to wrap, and what to keep of the result
TARGETS = {
    "cli.main": [(mbcal.cli, "main")],
    "cli.ingest_csv": [(mbcal.cli, "ingest_csv")],
    "sensitivity.oat_screen": [(mbcal.cli, "oat_screen")],
    "sensitivity.sobol_indices": [(mbcal.cli, "sobol_indices")],
    "calibration.build_gp_cc": [(mbcal.cli, "build_gp_cc")],
    "calibration.build_gp_md": [(mbcal.cli, "build_gp_md")],
    "calibration.calibrate": [(mbcal.cli, "calibrate")],
    "calibration.LogPosterior": [(mbcal.calibration.LogPosterior, "__call__")],
    "gp.fit": [(mbcal.gp, "fit")],
    "gp.lml_and_grad": [(mbcal.gp, "lml_and_grad")],
    "gp.predict": [(mbcal.gp, "predict")],
    "gp.save_model": [(mbcal.gp, "save_model")],
    "gp.load_model": [(mbcal.gp, "load_model")],
    "mcmc.adaptive_mh": [(mbcal.calibration, "adaptive_mh")],
    "mcmc.diagnostics": [(mbcal.calibration, "diagnostics"), (mbcal.cli, "diagnostics")],
    "mcmc.PosteriorChain.to_csv": [(mbcal.mcmc.PosteriorChain, "to_csv")],
    "forward_uq.propagate": [(mbcal.cli, "propagate")],
    "synthbench.generate_dataset": [(mbcal.synthbench, "generate_dataset")],
}
INFO = {
    "mcmc.diagnostics": _diag_info,
    "mcmc.adaptive_mh": lambda chain: {"steps": int(chain.draws.shape[0])},
    "forward_uq.propagate": lambda s: {"runner_calls": len(s.case_ids) * s.n_use},
}


class Tracer:
    """Records one span per wrapped call; spans[i] = [name, start, end, parent, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self):
        for name, sites in TARGETS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, INFO.get(name)))
                self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "info": info}) + "\n")


class Window:
    """Aggregates over the spans of one traced operation, spans[lo:hi]."""

    def __init__(self, spans, lo, hi):
        self.spans = spans
        self.ids = range(lo, hi)
        self.child_time = defaultdict(float)
        for i in self.ids:
            parent = spans[i][3]
            if parent >= 0:
                self.child_time[parent] += spans[i][2] - spans[i][1]

    def of(self, name):
        return [i for i in self.ids if self.spans[i][0] == name]

    def dur(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def total(self, name):
        return sum(self.dur(i) for i in self.of(name))

    def count(self, name):
        return len(self.of(name))

    def mean(self, name):
        ids = self.of(name)
        return sum(self.dur(i) for i in ids) / len(ids) if ids else 0.0

    def self_total(self, name):
        return sum(self.dur(i) - self.child_time[i] for i in self.of(name))

    def info(self, name, key):
        return [self.spans[i][4][key] for i in self.of(name)]

    def children(self, i, name):
        return [j for j in self.ids if self.spans[j][3] == i and self.spans[j][0] == name]


def ess_per_second(w: Window) -> float:
    """Lowest, over calibration modes, of min ESS / that mode's MH time."""
    rates = []
    for cal in w.of("calibration.calibrate"):
        mh = sum(w.dur(j) for j in w.children(cal, "mcmc.adaptive_mh"))
        ess = [w.spans[j][4]["min_ess"] for j in w.children(cal, "mcmc.diagnostics")]
        rates.append(min(ess) / mh)
    return min(rates)


def layer_metrics(setup: Window, cold: Window, resumes: list[Window]):
    """Per-layer figures: cold-run spans for the fit and sampling layers, the
    median over resumed runs for the layers a resume exercises."""
    def resumed(fn):
        return statistics.median(fn(w) for w in resumes)

    lp_calls = cold.count("calibration.LogPosterior")
    lp_in_mh = sum(len(cold.children(i, "calibration.LogPosterior"))
                   for i in cold.of("mcmc.adaptive_mh"))
    steps = sum(cold.info("mcmc.adaptive_mh", "steps"))
    mh_self = cold.self_total("mcmc.adaptive_mh")
    n_chains = cold.count("mcmc.adaptive_mh")
    return {
        "gp.fit.s": (cold.total("gp.fit"), "s"),
        "gp.lml_and_grad.calls": (cold.count("gp.lml_and_grad"), "count"),
        "gp.lml_and_grad.ms": (1e3 * cold.mean("gp.lml_and_grad"), "ms"),
        "gp.predict.calls": (cold.count("gp.predict"), "count"),
        "gp.predict.ms": (1e3 * cold.mean("gp.predict"), "ms"),
        "gp.load_model.s": (resumed(lambda w: w.total("gp.load_model")), "s"),
        "gp.save_model.s": (cold.total("gp.save_model"), "s"),
        "calibration.build_gp_cc.self_s": (cold.self_total("calibration.build_gp_cc"), "s"),
        "calibration.build_gp_md.s": (cold.total("calibration.build_gp_md"), "s"),
        "calibration.LogPosterior.calls": (lp_calls, "count"),
        "calibration.LogPosterior.ms": (1e3 * cold.mean("calibration.LogPosterior"), "ms"),
        "calibration.LogPosterior.self_ms":
            (1e3 * cold.self_total("calibration.LogPosterior") / lp_calls, "ms"),
        "calibration.calibrate.s": (cold.total("calibration.calibrate"), "s"),
        "mcmc.adaptive_mh.self_s": (mh_self, "s"),
        "mcmc.step_us": (1e6 * mh_self / steps, "us"),
        "mcmc.PosteriorChain.to_csv.s": (cold.total("mcmc.PosteriorChain.to_csv"), "s"),
        # the initial density call of each chain is not a proposal
        "mcmc.out_of_support": (steps - (lp_in_mh - n_chains), "count"),
        "mcmc.diagnostics.s": (resumed(lambda w: w.total("mcmc.diagnostics")), "s"),
        "mcmc.min_ess": (min(cold.info("mcmc.diagnostics", "min_ess")), "count"),
        "mcmc.ess_per_s": (ess_per_second(cold), "1/s"),
        "mcmc.max_rhat": (max(cold.info("mcmc.diagnostics", "max_rhat")), "ratio"),
        "forward_uq.propagate.s": (resumed(lambda w: w.total("forward_uq.propagate")), "s"),
        "forward_uq.runner_calls":
            (resumed(lambda w: sum(w.info("forward_uq.propagate", "runner_calls"))), "count"),
        "sensitivity.oat_screen.s": (cold.total("sensitivity.oat_screen"), "s"),
        "sensitivity.sobol_indices.s": (cold.total("sensitivity.sobol_indices"), "s"),
        "cli.main.s": (cold.total("cli.main"), "s"),
        "cli.ingest_csv.s": (cold.total("cli.ingest_csv"), "s"),
        "cli.self_s": (resumed(lambda w: w.self_total("cli.main")), "s"),
        "synthbench.generate_dataset.s": (setup.total("synthbench.generate_dataset"), "s"),
    }
