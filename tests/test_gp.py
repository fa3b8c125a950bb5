import json

import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dpotri
from scipy.spatial.distance import cdist

import mbcal.gp as gp
from mbcal.sampler import lhs_sample
from mbcal.synthbench import code_model_arrays


def small_instance(seed, n=10, d=2):
    rng = np.random.default_rng(seed)
    x = rng.random((n, d))
    y = np.sin(2 * x.sum(axis=1)) + 0.05 * rng.standard_normal(n)
    return x, y


def test_two_point_interpolation():
    model = gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), seed=1)
    mean, var = gp.predict(model, [[0.0], [1.0]])
    np.testing.assert_allclose(mean[:, 0], [0.0, 1.0], atol=1e-6)
    assert np.all(var >= 0)


def test_predict_at_training_points_relative():
    rng = np.random.default_rng(3)
    x = rng.random((15, 2))
    y = 1.0 + np.cos(3 * x[:, 0]) * x[:, 1]
    model = gp.fit(x, y, seed=3)
    mean, _ = gp.predict(model, x)
    np.testing.assert_allclose(mean[:, 0], y, rtol=1e-6, atol=1e-6)


def test_prior_reversion_far_away():
    kc = gp.KernelConfig(np.array([0.05]), 1.0, 1e-10)
    x = np.linspace(0.4, 0.6, 8)[:, None]
    y = np.sin(20 * x[:, 0])
    model = gp.build_model(x, y, [kc])
    # standardized coordinate 100 is far outside the data in lengthscale units
    far = model.in_lo + model.in_span * 100.0
    mean, var = gp.predict(model, far[None, :])
    assert abs(mean[0, 0] - y.mean()) < 1e-3 * max(1, abs(y.mean()))
    assert abs(var[0, 0] - 1.0 * model.out_std[0] ** 2) < 1e-3


def test_lml_single_point_closed_form():
    for s2 in (1e-6, 0.1, 1.0):
        log_params = np.log([1.0, 1.0, s2])  # lengthscale, signal variance, nugget
        val, _ = gp.lml_and_grad(log_params, np.array([[0.0]]), np.array([0.0]))
        expected = -0.5 * np.log(2 * np.pi * (1 + s2))
        assert abs(val - expected) < 1e-12


def test_lml_matches_dense_evaluation():
    for seed in range(5):
        x, y = small_instance(seed)
        rng = np.random.default_rng(seed + 100)
        p = rng.normal(0, 0.5, x.shape[1] + 2)
        lml, _ = gp.lml_and_grad(p, x, y)
        kc = gp.KernelConfig(
            np.exp(p[:2]), float(np.exp(p[2])), float(np.exp(p[3]))
        )
        k = gp.kernel_matrix(kc, x)
        n = x.shape[0]
        direct = (
            -0.5 * y @ np.linalg.solve(k, y)
            - 0.5 * np.linalg.slogdet(k)[1]
            - 0.5 * n * np.log(2 * np.pi)
        )
        assert abs(lml - direct) < 1e-8


def test_gradient_vs_finite_differences():
    for seed in range(20):
        x, y = small_instance(seed)
        rng = np.random.default_rng(seed + 500)
        p = rng.normal(0, 0.4, x.shape[1] + 2)
        _, grad = gp.lml_and_grad(p, x, y)
        h = 1e-5
        for k in range(p.size):
            pp, pm = p.copy(), p.copy()
            pp[k] += h
            pm[k] -= h
            fd = (gp.lml_and_grad(pp, x, y)[0] - gp.lml_and_grad(pm, x, y)[0]) / (2 * h)
            assert abs(grad[k] - fd) < 1e-4 * max(1.0, abs(fd))


def test_duplicate_inputs_rejected():
    x = np.array([[0.1, 0.2], [0.1, 0.2], [0.5, 0.7]])
    with pytest.raises(ValueError, match="duplicate"):
        gp.fit(x, np.array([1.0, 1.0, 2.0]), seed=0)


def test_too_few_points_rejected():
    with pytest.raises(ValueError, match="d\\+1"):
        gp.fit(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]), seed=0)


def test_affine_input_invariance():
    rng = np.random.default_rng(9)
    x = rng.random((12, 2))
    y = np.sin(3 * x[:, 0]) + x[:, 1]
    q = rng.random((5, 2))
    scale, shift = np.array([10.0, 0.2]), np.array([-3.0, 7.0])

    # fixed hyperparameters (standardized units): invariance is exact
    kc = gp.KernelConfig(np.array([0.3, 0.5]), 1.0, 1e-8)
    a = gp.build_model(x, y, [kc])
    b = gp.build_model(x * scale + shift, y, [kc])
    ma, va = gp.predict(a, q)
    mb, vb = gp.predict(b, q * scale + shift)
    np.testing.assert_allclose(ma, mb, atol=1e-8)
    np.testing.assert_allclose(va, vb, atol=1e-8)

    # full fit: the optimizer's floating-point path differs slightly
    a = gp.fit(x, y, seed=4)
    b = gp.fit(x * scale + shift, y, seed=4)
    ma, va = gp.predict(a, q)
    mb, vb = gp.predict(b, q * scale + shift)
    np.testing.assert_allclose(ma, mb, atol=1e-4)
    np.testing.assert_allclose(va, vb, atol=1e-4)


def test_variance_monotone_in_data():
    kc = gp.KernelConfig(np.array([0.3]), 1.0, 1e-8)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = np.sort(rng.random(6))[:, None]
        y = np.sin(5 * x[:, 0])
        small = gp.build_model(x[:-1], y[:-1], [kc])
        big = gp.build_model(x, y, [kc])
        q = rng.random((20, 1))
        # compare on the standardized scale of the smaller model
        _, v_small = gp.predict(small, q)
        _, v_big = gp.predict(big, q)
        scale = (big.out_std[0] / small.out_std[0]) ** 2
        assert np.all(v_big <= v_small * scale + 1e-8)


def test_loo_linear_data():
    x = np.linspace(0, 1, 10)[:, None]
    model = gp.fit(x, 2 * x[:, 0], seed=2)
    metrics = gp.loo_cv(model)
    assert metrics[0]["coefficient_of_determination"] > 0.999


def test_loo_constant_outputs_nan():
    x = np.linspace(0, 1, 8)[:, None]
    with pytest.warns(UserWarning):
        model = gp.fit(x, np.full(8, 3.0), seed=0)
        metrics = gp.loo_cv(model)
    assert np.isnan(metrics[0]["coefficient_of_determination"])


def test_loo_needs_three_points():
    model = gp.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), seed=0)
    with pytest.raises(ValueError):
        gp.loo_cv(model)


def test_loo_matches_brute_force():
    # fast-LOO identity vs dense leave-one-out solves at fixed hyperparameters,
    # carried out on the model's own standardized data
    kc = gp.KernelConfig(np.array([0.4]), 1.0, 1e-8)
    rng = np.random.default_rng(21)
    x = np.sort(rng.random(9))[:, None]
    y = np.sin(4 * x[:, 0])
    model = gp.build_model(x, y, [kc])
    loo = gp.loo_cv(model)

    xs, ys = model.x, model.y[:, 0]
    k = gp.kernel_matrix(model.kernels[0], xs)
    resid = []
    for i in range(9):
        mask = np.arange(9) != i
        k_sub = k[np.ix_(mask, mask)]
        k_cross = k[i, mask]
        mu = k_cross @ np.linalg.solve(k_sub, ys[mask])
        resid.append((ys[i] - mu) * model.out_std[0])
    resid = np.abs(resid)
    assert abs(loo[0]["mae"] - resid.mean()) < 1e-8


def test_predictive_variance_nonnegative_sweep():
    rng = np.random.default_rng(5)
    x = rng.random((30, 3))
    y = code_model_arrays(
        np.hstack([x, np.full((30, 1), 0.7)]), np.ones((30, 4))
    )
    model = gp.fit(x, y, seed=6)
    q = lhs_sample(200, [(0, 1)] * 3, seed=1)
    _, var = gp.predict(model, q)
    assert np.all(var >= 0)


def test_dimension_mismatch():
    model = gp.fit(np.random.default_rng(0).random((6, 2)),
                   np.arange(6.0), seed=0)
    with pytest.raises(ValueError, match="dimension"):
        gp.predict(model, [[0.5]])


def test_serialization_roundtrip(tmp_path):
    x, y = small_instance(7)
    model = gp.fit(x, y, seed=7)
    path = tmp_path / "model.json"
    gp.save_model(model, path)
    loaded = gp.load_model(json.loads(path.read_text()))
    q = np.random.default_rng(8).random((9, 2))
    m1, v1 = gp.predict(model, q)
    m2, v2 = gp.predict(loaded, q)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(v1, v2)


def test_load_model_from_parsed_document(tmp_path):
    x, y = small_instance(7)
    model = gp.fit(x, y, seed=7)
    path = tmp_path / "model.json"
    gp.save_model(model, path, {"note": "extra keys are ignored"})
    with open(path) as fh:
        doc = json.load(fh)
    loaded = gp.load_model(doc)
    for a, b in zip(model.chols, loaded.chols):
        np.testing.assert_array_equal(a, b)


def test_fit_records_restarts_and_save_model_writes_them(tmp_path):
    x = np.random.default_rng(5).random((12, 2))
    y = np.column_stack([np.sin(3 * x[:, 0]) + x[:, 1], np.cos(2 * x.sum(axis=1))])
    model = gp.fit(x, y, restarts=4, seed=5)
    assert len(model.restarts) == model.m
    for j, runs in enumerate(model.restarts):
        assert len(runs["lml"]) == len(runs["nfev"]) == 4
        assert all(k >= 1 for k in runs["nfev"])
        assert max(runs["lml"]) == model.lml[j]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        gp.save_model(gp.fit(x, y, restarts=4, seed=5), path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["restarts"] == model.restarts
    loaded = gp.load_model(doc)
    assert loaded.restarts is None
    np.testing.assert_array_equal(loaded.lml, model.lml)


def test_load_model_escalates_nugget_like_build_model(tmp_path):
    # a nugget too small to factorize is raised tenfold until the Cholesky
    # succeeds, on every path that factorizes, and the factor is the plain
    # one at the raised nugget
    x = np.linspace(0, 1, 30)[:, None]
    y = np.sin(3 * x[:, 0])
    tiny = gp.KernelConfig(np.array([1.0]), 1.0, 1e-20)
    built = gp.build_model(x, y, [tiny])
    kc = built.kernels[0]
    assert kc.nugget > tiny.nugget
    np.testing.assert_array_equal(
        built.chols[0], cholesky(gp.kernel_matrix(kc, built.x), lower=True))
    path = tmp_path / "model.json"
    gp.save_model(built, path)
    doc = json.loads(path.read_text())
    doc["kernels"][0]["nugget"] = tiny.nugget  # a file holding the unraised nugget
    loaded = gp.load_model(doc)
    assert loaded.kernels[0].nugget == kc.nugget
    np.testing.assert_array_equal(loaded.chols[0], built.chols[0])


@pytest.mark.parametrize("build", ["fit", "build_model"])
@pytest.mark.parametrize("where", ["inputs", "outputs"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_data_rejected(build, where, bad):
    x, y = small_instance(4)
    if where == "inputs":
        x[3, 1] = bad
    else:
        y[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        if build == "fit":
            gp.fit(x, y, seed=0)
        else:
            gp.build_model(x, y, [gp.KernelConfig(np.array([0.3, 0.3]), 1.0, 1e-8)])


def _lml_and_grad_per_dimension(log_params, x, y):
    """Reference: dense K^-1 from cho_solve(L, I) and dK/d(log l_j) rebuilt
    one input dimension at a time."""
    n, d = x.shape
    ls = np.exp(log_params[:d])
    sv, ng = float(np.exp(log_params[d])), float(np.exp(log_params[d + 1]))
    s = np.zeros((n, n))
    for j in range(d):
        s += ((x[:, j, None] - x[None, :, j]) / ls[j]) ** 2
    kse = sv * np.exp(-0.5 * s)
    k = kse + ng * np.eye(n)
    low = cholesky(k, lower=True)
    alpha = cho_solve((low, True), y)
    lml = -0.5 * y @ alpha - np.sum(np.log(np.diag(low))) - 0.5 * n * np.log(2 * np.pi)
    w = np.outer(alpha, alpha) - cho_solve((low, True), np.eye(n))
    grad = np.empty(d + 2)
    for j in range(d):
        diff = x[:, j, None] - x[None, :, j]
        grad[j] = 0.5 * np.sum(w * kse * (diff / ls[j]) ** 2)
    grad[d] = 0.5 * np.sum(w * kse)
    grad[d + 1] = 0.5 * ng * np.trace(w)
    return float(lml), grad


def _lml_and_grad_out_of_place(log_params, x, y):
    """Reference: lml_and_grad's arithmetic with a fresh array per step
    (K_se, K, L, a symmetrized K^-1 from tril, W and W * K_se)."""
    n, d = x.shape
    ls = np.exp(log_params[:d])
    sv = float(np.exp(log_params[d]))
    ng = float(np.exp(log_params[d + 1]))
    xs = x / ls
    kse = sv * np.exp(-0.5 * cdist(xs, xs, "sqeuclidean"))
    k = kse.copy()
    k[np.diag_indices_from(k)] += ng
    low = cholesky(k, lower=True, check_finite=False)
    alpha = cho_solve((low, True), y, check_finite=False)
    lml = -0.5 * y @ alpha - np.sum(np.log(np.diag(low))) - 0.5 * n * np.log(2 * np.pi)
    inv = np.tril(dpotri(low, lower=1)[0])
    w = np.outer(alpha, alpha) - (inv + np.tril(inv, -1).T)
    m = w * kse
    r = m.sum(axis=1)
    grad = np.empty(d + 2)
    grad[:d] = (xs * xs).T @ r - np.einsum("ij,ij->j", xs, m @ xs)
    grad[d] = 0.5 * r.sum()
    grad[d + 1] = 0.5 * ng * np.trace(w)
    return float(lml), grad


@pytest.mark.parametrize("nugget", [1e-8, 1e-4])
def test_lml_and_grad_matches_per_dimension_loop(nugget):
    # GP_CC-shaped: 200 rows of [x (4), theta (4)] on the unit cube
    x = lhs_sample(200, [(0, 1)] * 8, seed=3)
    y = code_model_arrays(x[:, :4], 0.05 + 4.95 * x[:, 4:])[:, 0]
    y = (y - y.mean()) / y.std()
    rng = np.random.default_rng(17)
    for _ in range(4):
        p = np.concatenate([rng.uniform(np.log(0.2), np.log(3.0), 8),
                            [rng.uniform(-1.0, 1.0), np.log(nugget)]])
        lml, grad = gp.lml_and_grad(p, x, y)
        ref_lml, ref_grad = _lml_and_grad_per_dimension(p, x, y)
        assert abs(lml - ref_lml) <= 1e-8 * abs(ref_lml)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-8, atol=0)
        # the in-place steps reorder no arithmetic, so the fit's L-BFGS path
        # and the fitted GP_CC do not change in the last digit
        ref_lml, ref_grad = _lml_and_grad_out_of_place(p, x, y)
        assert lml == ref_lml
        assert np.array_equal(grad, ref_grad)


# the kernel shared by the three outputs of a GP_CC fitted on perfbench's
# selfcheck workload, rounded
SELFCHECK_GP_CC_KERNEL = gp.KernelConfig(
    np.array([1.08, 0.95, 1.77, 0.60, 0.31, 0.72, 0.71, 1.38]), 0.80, 1e-8)


def _lead_tail_model(sizes, seed, kernels=(SELFCHECK_GP_CC_KERNEL,)):
    """A GP_CC-shaped model as build_gp_cc lays it out: consecutive groups of
    rows sharing a boundary-condition (lead) row, with sizes[g] theta (tail)
    rows each, and by default one kernel shared by the three outputs."""
    rng = np.random.default_rng(seed)
    lead_rows = rng.random((len(sizes), 4))
    n = int(np.sum(sizes))
    x = np.hstack([np.repeat(lead_rows, sizes, axis=0),
                   lhs_sample(n, [(0.05, 5.0)] * 4, seed=seed)])
    return gp.build_model(x, code_model_arrays(x[:, :4], x[:, 4:]), kernels), lead_rows


@pytest.mark.parametrize("sizes", [[25] * 20, [30] * 8])  # selfcheck's and two_modes' GP_CC
def test_split_predictor_matches_predict(sizes):
    model, lead_rows = _lead_tail_model(sizes, seed=len(sizes))
    split = gp.SplitPredictor(model, lead_rows)
    assert split.k_u.shape == (len(sizes), len(sizes))
    assert split.linv.shape == (len(sizes), sizes[0], model.n + model.m)
    tails = lhs_sample(25, [(0.05, 5.0)] * 4, seed=7)
    m2, v2 = split.standardized(tails)  # every tail in one call
    for tail, m2_k, v2_k in zip(tails, m2, v2):
        pts = np.hstack([lead_rows, np.tile(tail, (len(lead_rows), 1))])
        mean, var = gp.predict(model, pts)
        np.testing.assert_allclose(m2_k.T * model.out_std + model.out_mean, mean,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(v2_k[:, None] * model.out_std**2, var, rtol=0, atol=1e-12)


def test_split_predictor_refuses_other_row_layouts():
    # only consecutive equal groups, in the order of the leads, are accepted
    model, lead_rows = _lead_tail_model([25] * 4, seed=4)
    gp.SplitPredictor(model, lead_rows)
    raw = model.raw_inputs()
    shuffled = gp.build_model(raw[np.random.default_rng(0).permutation(model.n)],
                              code_model_arrays(raw[:, :4], raw[:, 4:]),
                              model.kernels)
    refused = [(shuffled, lead_rows), (model, lead_rows[::-1]), (model, lead_rows[:3])]
    for sizes in ([20, 23, 25], [24, 26]):
        unequal, leads = _lead_tail_model(sizes, seed=5)
        refused.append((unequal, leads))
    for refused_model, leads in refused:
        with pytest.raises(ValueError, match="consecutive equal groups"):
            gp.SplitPredictor(refused_model, leads)


def test_split_predictor_rejects_per_output_kernels():
    kernels = [SELFCHECK_GP_CC_KERNEL, SELFCHECK_GP_CC_KERNEL,
               gp.KernelConfig(SELFCHECK_GP_CC_KERNEL.lengthscales, 0.80, 1e-4)]
    model, lead_rows = _lead_tail_model([25] * 4, seed=4, kernels=kernels)
    with pytest.raises(ValueError, match="one kernel shared"):
        gp.SplitPredictor(model, lead_rows)


def test_factorize_shares_one_cholesky_per_distinct_kernel(tmp_path):
    # a shared model has one kernel and one factor; its file repeats the
    # kernel once per output, and the reloaded model is the same model
    model, _ = _lead_tail_model([25] * 4, seed=4)
    assert len(model.kernels) == len(model.chols) == 1
    assert model.alpha.shape == (model.n, model.m)
    np.testing.assert_array_equal(model.alpha, cho_solve((model.chols[0], True), model.y))
    path = tmp_path / "gp_cc.json"
    gp.save_model(model, path)
    doc = json.loads(path.read_text())
    assert len(doc["kernels"]) == model.m
    assert all(k == doc["kernels"][0] for k in doc["kernels"])
    loaded = gp.load_model(doc)
    assert len(loaded.kernels) == len(loaded.chols) == 1
    np.testing.assert_array_equal(loaded.chols[0], model.chols[0])
    np.testing.assert_array_equal(loaded.alpha, model.alpha)
    q = np.random.default_rng(3).random((7, 8))
    for a, b in zip(gp.predict(model, q), gp.predict(loaded, q)):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("m", [2, 3])
def test_lml_and_grad_sums_columns_sharing_one_kernel(m):
    # A1's random instances with m output columns: the LML is the sum of the
    # per-column dense LMLs and the gradient matches central differences
    rng = np.random.default_rng(m)
    for k in range(20):
        n, d = int(rng.integers(8, 25)), int(rng.integers(1, 5))
        xs = rng.random((n, d))
        ys = np.column_stack([np.sin((2 + j) * xs.sum(axis=1)) for j in range(m)])
        ys += 0.1 * rng.standard_normal((n, m))
        log_params = np.concatenate([
            rng.uniform(-1.5, 1.0, d), rng.uniform(-0.5, 0.5, 1),
            rng.uniform(np.log(1e-6), np.log(1e-4), 1),
        ])
        lml, grad = gp.lml_and_grad(log_params, xs, ys)
        kc = gp.KernelConfig(np.exp(log_params[:d]), float(np.exp(log_params[d])),
                             float(np.exp(log_params[d + 1])))
        K = gp.kernel_matrix(kc, xs)
        logdet = np.linalg.slogdet(K)[1]
        direct = sum(-0.5 * (y @ np.linalg.solve(K, y) + logdet + n * np.log(2 * np.pi))
                     for y in ys.T)
        assert abs(lml - direct) <= 1e-8 * max(1.0, abs(direct)), k
        h = 1e-4
        for j in range(d + 2):
            up, dn = log_params.copy(), log_params.copy()
            up[j] += h
            dn[j] -= h
            fd = (gp.lml_and_grad(up, xs, ys)[0] - gp.lml_and_grad(dn, xs, ys)[0]) / (2 * h)
            assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-4, (k, j)


def test_shared_kernel_loo_mae_sweep():
    # A2's sweep and bounds, with the three outputs fit as one shared block
    x_fixed = np.array([0.5, 0.3, 0.5, 0.8])
    maes = []
    for n in (20, 40, 60, 80, 100):
        design = lhs_sample(n, [(0.05, 5.0)] * 4, seed=n)
        y = code_model_arrays(np.tile(x_fixed, (n, 1)), design)
        model = gp.fit(design, y, restarts=8, seed=0, shared=True)
        assert len(model.restarts) == 1 and len(model.lml) == 1
        maes.append(float(np.mean([m["mae"] for m in gp.loo_cv(model)])))
    assert maes[-1] <= 0.02, maes
    assert maes[-1] <= maes[0], maes
    for a, b in zip(maes, maes[1:]):
        assert b <= 1.2 * a, maes


def test_fit_flags_restarts_on_the_white_noise_plateau():
    # a sign-alternating output on an even grid has no smooth structure, so
    # every restart ends at K = I: LML -(m n / 2)(log 2 pi + 1)
    x = np.linspace(0, 1, 12)[:, None]
    noise = (-1.0) ** np.arange(12)
    for outputs, shared in ((np.column_stack([noise, np.sin(3 * x[:, 0])]), False),
                            (np.column_stack([noise, -noise]), True)):
        model = gp.fit(x, outputs, restarts=3, seed=0, shared=shared)
        for j, runs in enumerate(model.restarts):
            width = 2 if shared else 1
            plateau = -0.5 * width * 12 * (np.log(2 * np.pi) + 1)
            expected = [bool(abs(v - plateau) <= 1e-9 * abs(plateau)) for v in runs["lml"]]
            assert runs["white_noise"] == expected
            assert all(expected) == (j == 0)
