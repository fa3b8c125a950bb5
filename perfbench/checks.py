"""Output checks for the benchmark, computed apart from the program.

Every check returns a list of problem strings; an empty list means the
outputs passed. The log posterior and the emulator are re-evaluated with a
dense numpy GP built from the saved JSON hyperparameters, not through
``mbcal.gp``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from mbcal.synthbench import THETA_TRUE, code_model_arrays

PARAMETER_NAMES = ("P1008", "P1012", "P1022", "P1028")
# artifacts a resumed run must read back instead of writing again
REUSED = ("gp_cc.json", "gp_md.json", "chain_", "screening.csv", "sobol.csv")

# |recomputed - recorded| log posterior, relative to 1 + |recorded|. The two
# evaluations differ only in linear-algebra rounding on the GP predictions.
LOG_POST_RTOL = 1e-7
LOG_POST_ROWS = 40          # chain rows re-evaluated per chain
STAT_RTOL = 1e-12           # summaries are recomputed from the same draws
TXT_ATOL = 5.1e-7           # rmse_summary.txt prints 6 decimals
DUMMY_VAR = (4 * np.finfo(float).eps) ** 2


def read_csv(path):
    """Header and rows of an artifact CSV, skipping ``#`` comment lines."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def read_chain(path):
    """(draws, log_post, accepted) of one chain CSV."""
    _, rows = read_csv(path)
    arr = np.array(rows, dtype=float)
    return arr[:, 1:-2], arr[:, -2], arr[:, -1].astype(int)


def read_rmse_summary(path) -> dict:
    vals = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("rmse y_M(theta=1)"):
                vals["nominal"] = float(line.split("=")[-1])
            elif line.startswith("rmse y_M(theta_post)"):
                vals["posterior"] = float(line.split("=")[-1])
    return vals


class DenseGP:
    """Independent SE-kernel GPs per output, from a saved ``gp_*.json``."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.x = np.array(doc["x"], dtype=float)
        self.y = np.array(doc["y"], dtype=float)
        self.lo = np.array(doc["in_lo"], dtype=float)
        self.span = np.array(doc["in_span"], dtype=float)
        self.out_mean = np.array(doc["out_mean"], dtype=float)
        self.out_std = np.array(doc["out_std"], dtype=float)
        self.kernels = []
        for j, k in enumerate(doc["kernels"]):
            ls = np.array(k["lengthscales"], dtype=float)
            sv, nugget = float(k["signal_variance"]), float(k["nugget"])
            gram = self._cov(self.x, self.x, ls, sv) + nugget * np.eye(len(self.x))
            weights = np.linalg.solve(gram, self.y[:, j])
            self.kernels.append((ls, sv, nugget, gram, weights))

    @staticmethod
    def _cov(a, b, ls, sv):
        d2 = np.zeros((len(a), len(b)))
        for k in range(a.shape[1]):
            d2 += ((a[:, k, None] - b[None, :, k]) / ls[k]) ** 2
        return sv * np.exp(-0.5 * d2)

    def raw_inputs(self):
        return self.x * self.span + self.lo

    def predict(self, points, chunk=2000):
        """De-standardized predictive mean and variance, shape (q, m)."""
        q = (np.atleast_2d(points) - self.lo) / self.span
        mean = np.empty((len(q), len(self.kernels)))
        var = np.empty_like(mean)
        for start in range(0, len(q), chunk):
            part = q[start:start + chunk]
            for j, (ls, sv, _, gram, weights) in enumerate(self.kernels):
                kstar = self._cov(part, self.x, ls, sv)
                s2 = sv - np.sum(kstar * np.linalg.solve(gram, kstar.T).T, axis=1)
                mean[start:start + chunk, j] = kstar @ weights * self.out_std[j] + self.out_mean[j]
                var[start:start + chunk, j] = np.clip(s2, 0.0, None) * self.out_std[j] ** 2
        return mean, var


def log_posteriors(thetas, gp_cc, x_cal, y_cal, sigma2, delta, sigma2_delta, prior):
    """Gaussian log likelihood of the calibration data plus the box prior,
    for each row of thetas."""
    lo, hi = prior
    n, d = len(x_cal), thetas.shape[1]
    pts = np.hstack([np.tile(x_cal, (len(thetas), 1)), np.repeat(thetas, n, axis=0)])
    mean, var_code = gp_cc.predict(pts)
    r = y_cal - mean.reshape(len(thetas), n, -1) - delta
    v = sigma2 + sigma2_delta + var_code.reshape(r.shape)
    lp = -0.5 * np.sum(r**2 / v + np.log(2.0 * np.pi * v), axis=(1, 2)) - d * np.log(hi - lo)
    inside = np.all((thetas >= lo) & (thetas <= hi), axis=1)
    return np.where(inside, lp, -np.inf)


def check_log_posterior(out, cal_cases, modes, prior) -> list[str]:
    """Re-evaluate the log posterior at evenly spaced rows of every chain."""
    problems = []
    gp_cc = DenseGP(os.path.join(out, "gp_cc.json"))
    x_cal = np.array([c.x.as_array() for c in cal_cases])
    y_cal = np.array([c.y_exp.as_array() for c in cal_cases])
    sigma2 = np.array([c.meas.sigma_exp**2 for c in cal_cases])[:, None]
    for mode in modes:
        if mode == "with_discrepancy":
            delta, sigma2_delta = DenseGP(os.path.join(out, mode, "gp_md.json")).predict(x_cal)
        else:
            delta = sigma2_delta = np.zeros_like(y_cal)
        for path in chain_paths(out, mode):
            draws, lps, _ = read_chain(path)
            rows = np.unique(np.linspace(0, len(lps) - 1, LOG_POST_ROWS).astype(int))
            got = log_posteriors(draws[rows], gp_cc, x_cal, y_cal, sigma2, delta,
                                 sigma2_delta, prior)
            for t, lp in zip(rows, got):
                if not abs(lp - lps[t]) <= LOG_POST_RTOL * (1.0 + abs(lps[t])):
                    problems.append(f"{path} row {t}: log_post {lps[t]!r}, "
                                    f"recomputed {lp!r}")
    return problems


def chain_paths(out, mode):
    mode_dir = os.path.join(out, mode)
    names = sorted((f for f in os.listdir(mode_dir) if f.startswith("chain_")),
                   key=lambda f: int(f[6:-4]))
    return [os.path.join(mode_dir, f) for f in names]


def check_chains(out, modes, prior) -> list[str]:
    """Draws inside the prior box; theta moves exactly on accepted rows."""
    problems = []
    lo, hi = prior
    for mode in modes:
        for path in chain_paths(out, mode):
            draws, _, acc = read_chain(path)
            outside = np.flatnonzero(np.any((draws < lo) | (draws > hi), axis=1))
            if outside.size:
                problems.append(f"{path}: {outside.size} draws outside the prior box, "
                                f"first at row {outside[0]}")
            moved = np.any(draws[1:] != draws[:-1], axis=1)
            bad = np.flatnonzero(moved != (acc[1:] == 1)) + 1
            if bad.size:
                problems.append(f"{path}: accepted flag disagrees with the move "
                                f"at {bad.size} rows, first at row {bad[0]}")
    return problems


def pooled_post_burn(out, mode, n_burn):
    return np.concatenate([read_chain(p)[0][n_burn:] for p in chain_paths(out, mode)])


def check_summary(out, modes, n_burn) -> list[str]:
    """posterior_summary.csv and posterior_correlation.csv against the chains."""
    problems = []
    for mode in modes:
        pooled = pooled_post_burn(out, mode, n_burn)
        _, rows = read_csv(os.path.join(out, mode, "posterior_summary.csv"))
        for j, row in enumerate(rows):
            col = pooled[:, j]
            p = np.percentile(col, [2.5, 50.0, 97.5])
            expect = {"mean": col.mean(), "std": col.std(ddof=1),
                      "p2.5": p[0], "p50": p[1], "p97.5": p[2]}
            for stat, got in zip(expect, map(float, row[1:])):
                want = expect[stat]
                if not abs(got - want) <= STAT_RTOL * max(1.0, abs(want)):
                    problems.append(f"{mode} {row[0]} {stat}: summary {got!r}, "
                                    f"chains give {want!r}")
        _, rows = read_csv(os.path.join(out, mode, "posterior_correlation.csv"))
        corr = np.array([r[1:] for r in rows], dtype=float)
        if (corr.shape != (4, 4) or not np.allclose(corr, corr.T, rtol=0, atol=1e-12)
                or not np.allclose(np.diag(corr), 1.0, rtol=0, atol=1e-12)
                or np.any(np.abs(corr) > 1.0 + 1e-12)):
            problems.append(f"{mode}: correlation matrix is not a correlation matrix")
    return problems


def validation_rmse(out, mode) -> float:
    _, rows = read_csv(os.path.join(out, mode, "validation_report.csv"))
    arr = np.array([r[2:5] for r in rows], dtype=float)  # y_exp, y_prior, y_post_mean
    return float(np.sqrt(np.mean((arr[:, 0] - arr[:, 2]) ** 2)))


def check_rmse(out, val_cases, modes) -> list[str]:
    """Nominal and posterior RMSEs in rmse_summary.txt against recomputation."""
    problems = []
    x = np.array([c.x.as_array() for c in val_cases])
    y = np.array([c.y_exp.as_array() for c in val_cases])
    nominal = float(np.sqrt(np.mean((y - code_model_arrays(x, np.ones(4))) ** 2)))
    for mode in modes:
        got = read_rmse_summary(os.path.join(out, mode, "rmse_summary.txt"))
        if not abs(got.get("nominal", np.nan) - nominal) <= TXT_ATOL:
            problems.append(f"{mode}: nominal RMSE {got.get('nominal')}, "
                            f"dataset gives {nominal:.8f}")
        post = validation_rmse(out, mode)
        if not abs(got.get("posterior", np.nan) - post) <= TXT_ATOL:
            problems.append(f"{mode}: posterior RMSE {got.get('posterior')}, "
                            f"validation_report.csv gives {post:.8f}")
    return problems


def check_gp_training(out) -> list[str]:
    """GP_CC reproduces the simulator at its training rows.

    With nugget eta the fitted mean misses training output y_i by eta*alpha_i
    in standardized units; 10*sqrt(eta) output standard deviations is far
    above that for a sound fit and far below the data's spread.
    """
    model = DenseGP(os.path.join(out, "gp_cc.json"))
    raw = model.raw_inputs()
    mean, _ = model.predict(raw)
    err = np.abs(mean - code_model_arrays(raw[:, :4], raw[:, 4:]))
    problems = []
    for j, (_, _, nugget, _, _) in enumerate(model.kernels):
        tol = 10.0 * np.sqrt(nugget) * model.out_std[j]
        if not err[:, j].max() <= tol:
            problems.append(f"gp_cc output {j}: training-row error {err[:, j].max():.3g} "
                            f"exceeds {tol:.3g} (nugget {nugget:.3g})")
    return problems


def check_screening(out) -> list[str]:
    """Exactly the four active parameters selected; the inert dummies D1-D4
    have zero variance up to the rounding of a variance over values in [0, 1]."""
    _, rows = read_csv(os.path.join(out, "screening.csv"))
    problems = []
    selected = {r[0] for r in rows if r[3] == "1"}
    if selected != set(PARAMETER_NAMES):
        problems.append(f"screening selected {sorted(selected)}")
    dummies = [r for r in rows if r[0].startswith("D") and not float(r[2]) <= DUMMY_VAR]
    if dummies or not any(r[0].startswith("D") for r in rows):
        problems.append(f"screening: dummy variance {dummies[0][2] if dummies else 'missing'}")
    return problems


def check_sobol(out, n_base) -> list[str]:
    """Finite indices within Monte Carlo error (5/sqrt(n_base)) of [0, 1]."""
    _, rows = read_csv(os.path.join(out, "sobol.csv"))
    idx = np.array([r[2:4] for r in rows], dtype=float)
    margin = 5.0 / np.sqrt(n_base)
    if idx.size == 0 or not np.all(np.isfinite(idx)) or np.any(idx < -margin) \
            or np.any(idx > 1.0 + margin):
        return [f"sobol indices outside [-{margin:.3f}, {1 + margin:.3f}] or not finite"]
    return []


def snapshot(out) -> dict:
    """Bytes and modification time of every file under out."""
    snap = {}
    for root, _, files in os.walk(out):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                snap[os.path.relpath(path, out)] = (fh.read(), os.stat(path).st_mtime_ns)
    return snap


def compare_resumed(before: dict, out) -> list[str]:
    """A resumed run rewrites nothing it reused and changes no byte anywhere."""
    after = snapshot(out)
    problems = []
    if set(after) != set(before):
        problems.append(f"resume changed the file set: {sorted(set(after) ^ set(before))}")
    for rel in sorted(set(after) & set(before)):
        if after[rel][0] != before[rel][0]:
            problems.append(f"resume changed {rel}")
        elif os.path.basename(rel).startswith(REUSED) and after[rel][1] != before[rel][1]:
            problems.append(f"resume rewrote {rel} instead of reusing it")
    return problems


def theta_true_misses(out, mode="with_discrepancy") -> int:
    """Parameters whose central 95% interval excludes the generating theta."""
    _, rows = read_csv(os.path.join(out, mode, "posterior_summary.csv"))
    return sum(not float(r[3]) <= t <= float(r[5])
               for r, t in zip(rows, THETA_TRUE.as_array()))


def emulator_rmse(out, x_cal, seed, prior, n_points=16000) -> float:
    """GP_CC mean against the simulator at seeded uniform theta over the prior."""
    rng = np.random.default_rng([seed, 7])
    theta = rng.uniform(prior[0], prior[1], (n_points, 4))
    x = x_cal[np.arange(n_points) % len(x_cal)]
    mean, _ = DenseGP(os.path.join(out, "gp_cc.json")).predict(np.hstack([x, theta]))
    return float(np.sqrt(np.mean((mean - code_model_arrays(x, theta)) ** 2)))
