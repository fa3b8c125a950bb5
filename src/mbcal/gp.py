"""Gaussian-process regression with anisotropic squared-exponential kernel.

Used both as the code emulator (inputs x + theta), whose outputs share one
kernel (a separable multi-output GP, Conti & O'Hagan 2010), and as the
discrepancy model (inputs x), with one kernel per output. Inputs are
standardized to [0,1] per column and outputs to zero mean / unit variance;
hyperparameters live in standardized space.

Hyperparameters are fit by maximizing the log marginal likelihood in
log-space with analytic gradients and multi-start L-BFGS-B.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.lapack import dpotri
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .sampler import lhs_sample

__all__ = [
    "KernelConfig",
    "GpModel",
    "fit",
    "predict",
    "SplitPredictor",
    "loo_cv",
    "lml_and_grad",
    "build_model",
    "save_model",
    "load_model",
]

# box of the L-BFGS-B search over (standardized) hyperparameters
LENGTHSCALE_BOUNDS = (1e-2, 1e2)
SIGNAL_VARIANCE_BOUNDS = (1e-3, 1e3)
NUGGET_CEIL = 1e-4
NUGGET_FLOOR = 1e-10


@dataclass(frozen=True)
class KernelConfig:
    """Anisotropic SE kernel: one lengthscale per input, plus a nugget."""

    lengthscales: np.ndarray
    signal_variance: float
    nugget: float

    def __post_init__(self):
        ls = np.asarray(self.lengthscales, dtype=float)
        object.__setattr__(self, "lengthscales", ls)
        if np.any(ls <= 0) or self.signal_variance <= 0 or self.nugget <= 0:
            raise ValueError("kernel hyperparameters must be strictly positive")


@dataclass
class GpModel:
    """A trained GP: standardized training data plus one factorization per
    kernel, the m outputs split evenly over the kernels (see blocks)."""

    x: np.ndarray                 # (n, d) standardized inputs
    y: np.ndarray                 # (n, m) standardized outputs
    kernels: list[KernelConfig]   # one per fitted block
    in_lo: np.ndarray             # (d,) raw-input column minima
    in_span: np.ndarray           # (d,) raw-input column spans (>= tiny)
    out_mean: np.ndarray          # (m,)
    out_std: np.ndarray           # (m,)
    chols: list[np.ndarray] = field(default_factory=list)  # lower Cholesky of K, per kernel
    alpha: np.ndarray | None = None  # (n, m) K^{-1} y, each column under its block's kernel
    lml: np.ndarray | None = None  # log marginal likelihood per fitted block
    # per fitted block, each restart's final "lml", "nfev" and "white_noise"
    # flag (see fit) as lists; recorded by fit, not by load_model
    restarts: list[dict] | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    def blocks(self) -> list[np.ndarray]:
        """The output columns of each kernel."""
        return np.split(np.arange(self.m), len(self.kernels))

    def raw_inputs(self) -> np.ndarray:
        return self.x * self.in_span + self.in_lo

    def standardize_inputs(self, pts: np.ndarray) -> np.ndarray:
        return (np.asarray(pts, dtype=float) - self.in_lo) / self.in_span


def _sq_dists(a: np.ndarray, b: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Sum over dimensions of squared lengthscale-scaled differences."""
    return cdist(a / lengthscales, b / lengthscales, "sqeuclidean")


def kernel_matrix(kc: KernelConfig, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """SE covariance between point sets (nugget added only on the self-diagonal)."""
    if b is None:
        k = kc.signal_variance * np.exp(-0.5 * _sq_dists(a, a, kc.lengthscales))
        k[np.diag_indices_from(k)] += kc.nugget
        return k
    return kc.signal_variance * np.exp(-0.5 * _sq_dists(a, b, kc.lengthscales))


def _chol_with_escalation(kc: KernelConfig, x: np.ndarray):
    """Cholesky of K; on failure multiply the nugget by 10 up to the ceiling."""
    nugget = kc.nugget
    k = kc.signal_variance * np.exp(-0.5 * _sq_dists(x, x, kc.lengthscales))
    k_diag = k.diagonal().copy()
    while True:
        k[np.diag_indices_from(k)] = k_diag + nugget
        try:
            low = cholesky(k, lower=True)
            return low, KernelConfig(kc.lengthscales, kc.signal_variance, nugget)
        except np.linalg.LinAlgError:
            if nugget >= NUGGET_CEIL:
                raise np.linalg.LinAlgError(
                    "kernel matrix factorization failed even at nugget ceiling "
                    f"{NUGGET_CEIL:g}"
                )
            nugget = min(nugget * 10.0, NUGGET_CEIL)


def _factorize(model: GpModel) -> GpModel:
    """Fill model.chols, one per kernel, and model.alpha; a kernel whose
    matrix needs a larger nugget to factorize is stored with that nugget."""
    model.chols, model.alpha = [], np.empty_like(model.y)
    for j, cols in enumerate(model.blocks()):
        low, model.kernels[j] = _chol_with_escalation(model.kernels[j], model.x)
        model.chols.append(low)
        model.alpha[:, cols] = cho_solve((low, True), model.y[:, cols])
    return model


def lml_and_grad(log_params: np.ndarray, x: np.ndarray, y: np.ndarray):
    """LML and its gradient w.r.t. log hyperparameters, summed over the
    columns of y, (n,) or (n, m), which share one kernel.

    log_params = [log l_1..log l_d, log signal_variance, log nugget].
    The gradient is 1/2 tr(W dK/dp) with W = AA^T - m K^-1, A = K^-1 y
    (Rasmussen & Williams 2006, eq. 5.9). With M = W * K_se, r = M 1 and scaled
    inputs xs = x / l, the d lengthscale terms are sum_i xs_ij^2 r_i - xs_j^T M xs_j,
    one contraction instead of an n x n x d difference tensor.
    Inputs must be finite: fit and build_model check them.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    y = np.asarray(y, dtype=float).reshape(n, -1)
    m = y.shape[1]
    ls = np.exp(log_params[:d])
    sv = float(np.exp(log_params[d]))
    ng = float(np.exp(log_params[d + 1]))

    xs = x / ls
    kse = cdist(xs, xs, "sqeuclidean")
    kse *= -0.5
    np.exp(kse, out=kse)
    kse *= sv
    k = kse.copy(order="F")  # Fortran order, so potrf factors it in place
    k[np.diag_indices_from(k)] += ng
    try:
        low = cholesky(k, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError:
        return -np.inf, np.zeros(d + 2)
    alpha = cho_solve((low, True), y, check_finite=False)
    lml = (-0.5 * y.ravel() @ alpha.ravel() - m * np.sum(np.log(np.diag(low)))
           - 0.5 * m * n * np.log(2 * np.pi))

    # d(LML)/dK = W/2 with W = AA^T - m K^-1. potri leaves the lower triangle
    # of K^-1 in low's storage and the upper triangle zero, so subtracting
    # it and its transpose is exact off the diagonal.
    kinv, info = dpotri(low, lower=1, overwrite_c=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potri failed (info={info})")
    kinv *= m
    w = alpha @ alpha.T
    w -= kinv
    w -= kinv.T
    w[np.diag_indices_from(w)] = (alpha * alpha).sum(axis=1) - kinv.diagonal()
    trace_w = np.trace(w)
    w *= kse                                    # M = W * K_se
    r = w.sum(axis=1)

    grad = np.empty(d + 2)
    grad[:d] = (xs * xs).T @ r - np.einsum("ij,ij->j", xs, w @ xs)
    grad[d] = 0.5 * r.sum()                     # dK/d(log sv) = K_se
    grad[d + 1] = 0.5 * ng * trace_w            # dK/d(log nugget) = ng*I
    return float(lml), grad


def _training_arrays(inputs, outputs):
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim == 1:
        outputs = outputs[:, None]
    if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(outputs))):
        raise ValueError("non-finite training inputs or outputs")
    return inputs, outputs


def _standardize(inputs: np.ndarray, outputs: np.ndarray):
    in_lo = inputs.min(axis=0)
    in_span = inputs.max(axis=0) - in_lo
    in_span = np.where(in_span > 0, in_span, 1.0)
    x = (inputs - in_lo) / in_span
    out_mean = outputs.mean(axis=0)
    out_std = outputs.std(axis=0)
    constant = out_std == 0
    if np.any(constant):
        warnings.warn("constant output column(s); skipping output scaling there")
    out_std = np.where(constant, 1.0, out_std)
    y = (outputs - out_mean) / out_std
    return x, y, in_lo, in_span, out_mean, out_std


def fit(
    inputs: np.ndarray,
    outputs: np.ndarray,
    restarts: int = 8,
    seed: int = 0,
    shared: bool = False,
) -> GpModel:
    """Fit one GP per output column by multi-start MLE, or with shared=True one
    kernel for all columns. A restart is flagged white_noise when it ends at
    -(m n / 2)(log 2 pi + 1), the LML of K = I for m unit-variance columns."""
    inputs, outputs = _training_arrays(inputs, outputs)
    n, d = inputs.shape
    if outputs.shape[0] != n:
        raise ValueError("inputs and outputs row counts differ")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} training points, got {n}")

    x, y, in_lo, in_span, out_mean, out_std = _standardize(inputs, outputs)

    # duplicate rows after standardization would make the kernel singular
    rounded = np.round(x, 12)
    if np.unique(rounded, axis=0).shape[0] < n:
        raise ValueError("duplicate training inputs")

    log_lb = np.log([LENGTHSCALE_BOUNDS[0]] * d + [SIGNAL_VARIANCE_BOUNDS[0], NUGGET_FLOOR])
    log_ub = np.log([LENGTHSCALE_BOUNDS[1]] * d + [SIGNAL_VARIANCE_BOUNDS[1], NUGGET_CEIL])
    opt_bounds = list(zip(log_lb, log_ub))

    model = GpModel(
        x=x, y=y, kernels=[], in_lo=in_lo, in_span=in_span,
        out_mean=out_mean, out_std=out_std,
    )
    lmls, record = [], []
    for cols in np.split(np.arange(y.shape[1]), 1 if shared else y.shape[1]):
        j, yj = cols[0], y[:, cols]
        starts = lhs_sample(restarts, opt_bounds, seed=seed * 1000003 + j)
        # bias the first start toward moderate lengthscales on [0,1] inputs
        starts[0] = np.concatenate([np.zeros(d) + np.log(0.5), [0.0, np.log(1e-8)]])
        starts[0] = np.clip(starts[0], log_lb, log_ub)

        best = None
        runs = {"lml": [], "nfev": []}
        for r in range(restarts):
            res = minimize(
                lambda p: tuple(-v for v in lml_and_grad(p, x, yj)),
                starts[r],
                jac=True,
                method="L-BFGS-B",
                bounds=opt_bounds,
                options={"ftol": 1e-8, "maxiter": 300},
            )
            runs["lml"].append(-float(res.fun))
            runs["nfev"].append(int(res.nfev))
            if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
                best = res
        plateau = -0.5 * yj.size * (np.log(2 * np.pi) + 1)
        runs["white_noise"] = [bool(abs(v - plateau) <= 1e-9 * abs(plateau))
                               for v in runs["lml"]]
        record.append(runs)
        if best is None:
            raise RuntimeError(f"hyperparameter optimization failed for output {j}")
        p = best.x
        # the LML is often flat in the nugget on noise-free data; prefer the
        # interpolating model whenever the likelihood is indifferent
        p_clamp = p.copy()
        p_clamp[d + 1] = log_lb[d + 1]
        lml_best = -best.fun
        if lml_and_grad(p_clamp, x, yj)[0] >= lml_best - 1e-7 * (1 + abs(lml_best)):
            p = p_clamp
        kc = KernelConfig(np.exp(p[:d]), float(np.exp(p[d])), float(np.exp(p[d + 1])))
        model.kernels.append(kc)
        lmls.append(-best.fun)
    model.lml = np.array(lmls)
    model.restarts = record
    return _factorize(model)


def build_model(inputs, outputs, kernels) -> GpModel:
    """Assemble a GpModel with fixed hyperparameters, one kernel per output block."""
    inputs, outputs = _training_arrays(inputs, outputs)
    x, y, in_lo, in_span, out_mean, out_std = _standardize(inputs, outputs)
    return _factorize(GpModel(
        x=x, y=y, kernels=list(kernels), in_lo=in_lo, in_span=in_span,
        out_mean=out_mean, out_std=out_std,
    ))


def predict(model: GpModel, points: np.ndarray):
    """Posterior mean and variance (de-standardized) at query points.

    Returns (mean, variance) arrays of shape (q, m). Variance excludes the
    measurement noise; tiny negative values from roundoff are clipped to 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.d:
        raise ValueError(
            f"dimension mismatch: model has d={model.d}, points have {points.shape[1]}"
        )
    if not np.all(np.isfinite(points)):
        raise ValueError("non-finite query point")
    q = model.standardize_inputs(points)
    mean = np.empty((q.shape[0], model.m))
    var = np.empty_like(mean)
    for kc, low, cols in zip(model.kernels, model.chols, model.blocks()):
        kstar = kernel_matrix(kc, q, model.x)
        mu = kstar @ model.alpha[:, cols]
        v = solve_triangular(low, kstar.T, lower=True)
        s2 = kc.signal_variance - np.sum(v * v, axis=0)
        if np.any(s2 < -1e-8):
            raise FloatingPointError("predictive variance significantly negative")
        s2 = np.clip(s2, 0.0, None)
        mean[:, cols] = mu * model.out_std[cols] + model.out_mean[cols]
        var[:, cols] = s2[:, None] * model.out_std[cols] ** 2
    return mean, var


class SplitPredictor:
    """predict at rows [lead_g, tail] of GP_CC as build_gp_cc lays it out:
    one kernel shared by every output, and n rows in G = len(lead)
    consecutive groups of s = n / G rows, group g at the standardized
    lead[g]. Any other model or layout raises ValueError.

    The SE kernel is a product over input columns, so the cross-covariance
    of lead g with row a of group h is K_u[g, h] * k_tail(tail)[a], with K_u
    the (G, G) kernel between the leads, and L^-1 k*_g = V K_u[g]^T with
    V = L^-1 U, where U (n x G) holds k_tail on each group's rows. K_u, the
    scaled tail columns and the columns of L^-1, each with its row's m
    alphas appended, are stored once, group by group, so the stacked GEMM
    that gives V for all K tails (K n^2) also gives the per-group sums of
    k_tail * alpha_j, and one K_u [V | A] over K (n + m) columns (G^2 K n)
    gives both the variance's z = K_u V, which every output shares, and the
    standardized means.
    """

    def __init__(self, model: GpModel, lead: np.ndarray):
        lead = np.atleast_2d(np.asarray(lead, dtype=float))
        g, c = lead.shape
        if not 0 < c < model.d:
            raise ValueError(f"lead must have 1..{model.d - 1} columns, got {c}")
        if len(model.kernels) != 1:
            raise ValueError("SplitPredictor needs one kernel shared by every output")
        n, s = model.n, model.n // g
        q = (lead - model.in_lo[:c]) / model.in_span[:c]
        if n != g * s or not np.array_equal(model.x[:, :c], np.repeat(q, s, axis=0)):
            raise ValueError("SplitPredictor needs the training rows in len(lead) "
                             "consecutive equal groups, group g at lead[g]")
        kc = model.kernels[0]
        self.model, self.n, self.sv = model, n, kc.signal_variance
        self.k_u = kc.signal_variance * np.exp(
            -0.5 * _sq_dists(q, q, kc.lengthscales[:c]))              # (G, G)
        tail_ls = kc.lengthscales[c:]
        # scaled tail columns, one (G, s) plane per column, so a call's
        # differences run over contiguous planes
        self.x_tail = np.ascontiguousarray(
            (model.x[:, c:] / tail_ls).T).reshape(-1, g, s)            # (d-c, G, s)
        # a raw tail t maps to the scaled tail columns as t * scale - shift
        self.scale = 1.0 / (model.in_span[c:] * tail_ls)
        self.shift = model.in_lo[c:] * self.scale
        # linv[g, k] = [column k of group g's rows of L^-1 | the alphas at that row]
        self.linv = np.hstack([solve_triangular(model.chols[0], np.eye(n), lower=True,
                                                check_finite=False).T,
                               model.alpha]).reshape(g, s, n + model.m)

    def standardized(self, tails: np.ndarray):
        """Standardized posterior means (K, m, G) and the variances (K, G) that
        every output shares, at a float (K, d - c) array of tails."""
        ts = tails * self.scale - self.shift                              # (K, d-c)
        diff = self.x_tail[:, :, None, :] - ts.T[:, None, :, None]        # (d-c, G, K, s)
        diff *= diff
        k_tail = diff.sum(axis=0)
        k_tail *= -0.5
        np.exp(k_tail, out=k_tail)                                        # (G, K, s)
        va = np.matmul(k_tail, self.linv)                                 # (G, K, n+m)
        g, k, w = va.shape
        za = (self.k_u @ va.reshape(g, k * w)).reshape(g, k, w)           # (G, K, n+m)
        z = za[:, :, :self.n]
        s2 = self.sv - np.einsum("gkn,gkn->kg", z, z)
        if s2.min() < -1e-8:
            raise FloatingPointError("predictive variance significantly negative")
        np.maximum(s2, 0.0, out=s2)
        return za[:, :, self.n:].transpose(1, 2, 0), s2


def loo_cv(model: GpModel) -> list[dict]:
    """Exact leave-one-out metrics per output from the cached factorization.

    Uses mu_i = y_i - alpha_i / Kinv_ii (no refits), with diag(K^-1) once per
    kernel. R^2 is NaN (with a warning) when the output column is constant.
    """
    if model.n < 3:
        raise ValueError("need at least 3 training points for LOO")
    resid_std = np.empty_like(model.alpha)  # y_i - mu_{-i} on standardized scale
    for low, cols in zip(model.chols, model.blocks()):
        diag = np.sum(solve_triangular(low, np.eye(model.n), lower=True) ** 2, axis=0)
        resid_std[:, cols] = model.alpha[:, cols] / diag[:, None]
    metrics = []
    for j in range(model.m):
        resid = resid_std[:, j] * model.out_std[j]
        yraw = model.y[:, j] * model.out_std[j] + model.out_mean[j]
        sse = float(np.sum(resid**2))
        sst = float(np.sum((yraw - yraw.mean()) ** 2))
        if sst == 0.0:
            warnings.warn("constant outputs: LOO R^2 undefined")
            r2 = float("nan")
        else:
            r2 = 1.0 - sse / sst
        metrics.append(
            {
                "mae": float(np.mean(np.abs(resid))),
                "rmse": float(np.sqrt(np.mean(resid**2))),
                "coefficient_of_determination": r2,
            }
        )
    return metrics


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def save_model(model: GpModel, path, extra: dict | None = None) -> None:
    """Serialize to JSON; floats round-trip exactly via repr. The fit's
    per-restart record (key "restarts") and the keys of extra are appended
    to the document; load_model ignores them."""
    doc = {
        "format": "mbcal-gp-1",
        "x": _arr(model.x),
        "y": _arr(model.y),
        "in_lo": _arr(model.in_lo),
        "in_span": _arr(model.in_span),
        "out_mean": _arr(model.out_mean),
        "out_std": _arr(model.out_std),
        "kernels": [
            {
                "lengthscales": _arr(kc.lengthscales),
                "signal_variance": kc.signal_variance,
                "nugget": kc.nugget,
            }
            for kc, cols in zip(model.kernels, model.blocks()) for _ in cols
        ],
        "lml": _arr(model.lml) if model.lml is not None else None,
        **({"restarts": model.restarts} if model.restarts is not None else {}),
        **(extra or {}),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(doc: dict) -> GpModel:
    """Rebuild a model from the parsed JSON document of a save_model file.
    The file holds one kernel per output, so m equal entries are one shared
    kernel."""
    if doc.get("format") != "mbcal-gp-1":
        raise ValueError("unrecognized GP model file")
    entries = doc["kernels"]
    if all(k == entries[0] for k in entries):
        entries = entries[:1]
    return _factorize(GpModel(
        x=np.array(doc["x"], dtype=float),
        y=np.array(doc["y"], dtype=float),
        kernels=[
            KernelConfig(
                np.array(k["lengthscales"], dtype=float),
                k["signal_variance"],
                k["nugget"],
            )
            for k in entries
        ],
        in_lo=np.array(doc["in_lo"], dtype=float),
        in_span=np.array(doc["in_span"], dtype=float),
        out_mean=np.array(doc["out_mean"], dtype=float),
        out_std=np.array(doc["out_std"], dtype=float),
        lml=np.array(doc["lml"], dtype=float) if doc["lml"] is not None else None,
    ))
