import json
import math

import numpy as np
import pytest

from hilbench.core import rng_stream
from hilbench.registration import (
    DegenerateGeometryError,
    DistortionField,
    GaussianBump,
    MLP_BATCH,
    MLP_HIDDEN,
    MLP_PATIENCE,
    MLP_STEP,
    MLP_VAL_FRACTION,
    MatchedPairs,
    MlpHyper,
    Normalizer,
    RegistrationModel,
    ResidualMlp,
    TrainingDivergedError,
    default_benchmark_field,
    evaluate,
    fit_affine,
    fit_residual_mlp,
    fit_rigid_svd,
    split_indices,
    synth_dataset,
)


def pairs_from(p_t, p_l):
    n = len(p_t)
    return MatchedPairs(np.arange(n, dtype=np.int64), np.asarray(p_t, float), np.asarray(p_l, float))


def reference_fit(pairs, train_idx, affine, hyper):
    """The allocating training loop ``fit_residual_mlp`` must reproduce bit
    for bit: fresh arrays for every layer, delta and gradient, and Adam on a
    concatenated gradient.  Returns the trained ``theta`` and the number of
    epochs run."""
    a_mat, t_vec = affine
    idx = np.asarray(train_idx, dtype=int)
    rng = rng_stream(hyper.seed, "reg.mlp")
    x_all = pairs.p_tracker[idx]
    resid = pairs.p_reference[idx] - (x_all @ a_mat.T + t_vec)
    xn = Normalizer.fit(x_all)(x_all)
    n = idx.size
    order = rng.permutation(n)
    n_val = max(int(round(MLP_VAL_FRACTION * n)), 1)
    x_tr, y_tr = xn[order[n_val:]], resid[order[n_val:]]
    x_val, y_val = xn[order[:n_val]], resid[order[:n_val]]
    mlp = ResidualMlp([pairs.d, *MLP_HIDDEN, pairs.d], rng=rng)
    weights, biases = mlp.weights, mlp.biases

    def forward_with_cache(x):
        acts = [x]
        h = x
        for w, b in zip(weights[:-1], biases[:-1]):
            h = np.tanh(h @ w + b)
            acts.append(h)
        return h @ weights[-1] + biases[-1], acts

    def gradients(acts, err):
        gw, gb = [None] * len(weights), [None] * len(biases)
        delta = err
        for layer in range(len(weights) - 1, -1, -1):
            gw[layer] = acts[layer].T @ delta
            gb[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer].T) * (1.0 - acts[layer] ** 2)
        return gw, gb

    def val_loss():
        return float(np.mean((forward_with_cache(x_val)[0] - y_val) ** 2))

    m = np.zeros_like(mlp.theta)
    v = np.zeros_like(mlp.theta)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step_count = 0
    best = val_loss()
    best_theta = mlp.theta.copy()
    stale = 0
    epochs_run = 0
    n_tr = x_tr.shape[0]
    for _ in range(hyper.epochs):
        epochs_run += 1
        perm = rng.permutation(n_tr)
        for start in range(0, n_tr, MLP_BATCH):
            sel = perm[start:start + MLP_BATCH]
            xb, yb = x_tr[sel], y_tr[sel]
            pred, acts = forward_with_cache(xb)
            err = 2.0 * (pred - yb) / xb.shape[0]
            gw, gb = gradients(acts, err)
            step_count += 1
            corr1 = 1.0 - beta1**step_count
            corr2 = 1.0 - beta2**step_count
            g = np.concatenate([a.ravel() for a in gw + gb])
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g ** 2
            mlp.theta -= MLP_STEP * (m / corr1) / (np.sqrt(v / corr2) + eps)
        loss = val_loss()
        if loss < best - 1e-15:
            best = loss
            best_theta = mlp.theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= MLP_PATIENCE:
                break
    return best_theta, epochs_run


class TestRigidSvd:
    def test_pure_translation(self):
        rng = rng_stream(5, "reg.test")
        src = rng.uniform(0, 4, size=(30, 2))
        p = pairs_from(src, src + [1.5, -2.0])
        r, t = fit_rigid_svd(p, np.arange(30))
        assert np.allclose(r, np.eye(2), atol=1e-9)
        assert np.allclose(t, [1.5, -2.0], atol=1e-9)

    def test_planar_rotation_30deg(self):
        rng = rng_stream(6, "reg.test")
        src = rng.uniform(-2, 2, size=(40, 2))
        th = math.radians(30)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        p = pairs_from(src, src @ rot.T + [0.3, 0.7])
        r, t = fit_rigid_svd(p, np.arange(40))
        assert np.allclose(r, rot, atol=1e-9)
        assert np.allclose(t, [0.3, 0.7], atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        src = np.stack([np.linspace(0, 1, 10), np.linspace(0, 2, 10)], axis=1)  # collinear
        p = pairs_from(src, src)
        with pytest.raises(DegenerateGeometryError):
            fit_rigid_svd(p, np.arange(10))


    def test_too_few_pairs_rejected(self):
        p = pairs_from([[0, 0], [1, 0]], [[0, 0], [1, 0]])
        with pytest.raises(DegenerateGeometryError, match="need at least 3 pairs"):
            fit_rigid_svd(p, [0, 1])


class TestAffine:
    def test_exact_affine_recovery(self):
        rng = rng_stream(7, "reg.test")
        a_true = np.array([[1.1, 0.2], [-0.1, 0.9]])
        t_true = np.array([0.4, -0.6])
        src = rng.uniform(0, 4, size=(50, 2))
        p = pairs_from(src, src @ a_true.T + t_true)
        a, t = fit_affine(p, np.arange(50))
        assert np.allclose(a, a_true, atol=1e-9)
        assert np.allclose(t, t_true, atol=1e-9)

    def test_identity_data(self):
        rng = rng_stream(8, "reg.test")
        src = rng.uniform(0, 1, size=(20, 2))
        a, t = fit_affine(pairs_from(src, src), np.arange(20))
        assert np.allclose(a, np.eye(2), atol=1e-9)
        assert np.allclose(t, 0.0, atol=1e-9)

    def test_too_few_pairs_rejected(self):
        p = pairs_from([[0, 0], [1, 0]], [[0, 0], [1, 0]])
        with pytest.raises(DegenerateGeometryError, match="need at least 3 pairs"):
            fit_affine(p, [0, 1])

    def test_rank_deficient_rejected(self):
        src = np.stack([np.linspace(0, 1, 10), np.linspace(0, 1, 10) * 2], axis=1)
        with pytest.raises(DegenerateGeometryError):
            fit_affine(pairs_from(src, src), np.arange(10))

    def test_residuals_correlate_with_bump(self):
        field = DistortionField(
            a_true=np.eye(2), t_true=np.zeros(2),
            bumps=(GaussianBump(np.array([2.0, 2.0]), np.array([0.05, 0.0]), 0.6),),
            noise_std=0.0, seed=11)
        pairs = synth_dataset(field, 500, ((0, 0), (4, 4)))
        a, t = fit_affine(pairs, np.arange(500))
        resid = pairs.p_reference - (pairs.p_tracker @ a.T + t)
        near = np.linalg.norm(pairs.p_tracker - [2.0, 2.0], axis=1) < 0.6
        assert np.abs(resid[near]).mean() > 2.0 * np.abs(resid[~near]).mean()


class TestResidualMlp:
    def test_zero_residuals_give_near_zero_network(self):
        rng = rng_stream(9, "reg.test")
        src = rng.uniform(0, 4, size=(400, 2))
        a_true = np.array([[1.02, 0.01], [0.0, 0.98]])
        p = pairs_from(src, src @ a_true.T + [0.1, 0.2])
        train = np.arange(300)
        affine = fit_affine(p, train)
        mlp, norm = fit_residual_mlp(p, train, affine, MlpHyper(epochs=200, seed=1))
        out = mlp.forward(norm(p.p_tracker[300:]))
        assert float(np.linalg.norm(out, axis=1).max()) <= 1e-3

    def test_single_bump_correction(self):
        field = DistortionField(
            a_true=np.eye(2), t_true=np.zeros(2),
            bumps=(GaussianBump(np.array([1.5, 2.5]), np.array([0.03, -0.02]), 0.8),),
            noise_std=0.0, seed=13)
        pairs = synth_dataset(field, 800, ((0, 0), (4, 4)))
        train, test = split_indices(800, 0.8, seed=13)
        a, t = fit_affine(pairs, train)
        affine_only = RegistrationModel(a, t, train_idx=train)
        rmse_affine = evaluate(affine_only, pairs, test)["rmse"]
        mlp, norm = fit_residual_mlp(pairs, train, (a, t), MlpHyper(epochs=800, seed=2))
        hybrid = RegistrationModel(a, t, normalizer=norm, mlp=mlp, train_idx=train)
        rmse_hybrid = evaluate(hybrid, pairs, test)["rmse"]
        assert rmse_hybrid <= 0.2 * rmse_affine

    def test_training_is_deterministic(self):
        rng = rng_stream(10, "reg.test")
        src = rng.uniform(0, 4, size=(300, 2))
        p = pairs_from(src, src + 0.01 * np.sin(src))
        train = np.arange(240)
        affine = fit_affine(p, train)
        h = MlpHyper(epochs=50, seed=7)
        mlp1, _ = fit_residual_mlp(p, train, affine, h)
        mlp2, _ = fit_residual_mlp(p, train, affine, h)
        assert np.array_equal(mlp1.params_flat(), mlp2.params_flat())

    @pytest.mark.parametrize("n_points, n_train, epochs, noise", [
        (780, 700, 12, 0.0),  # 630 training rows: two full batches and a short one
        (120, 100, 40, 0.0),  # 90 training rows: less than one batch
        (200, 150, 600, 0.01),  # a noisy fit improves, then stops early on MLP_PATIENCE
    ])
    def test_training_reproduces_the_allocating_loop_bit_for_bit(self, n_points, n_train,
                                                                 epochs, noise):
        rng = rng_stream(21, "reg.test")
        src = rng.uniform(0, 4, size=(n_points, 2))
        dst = src + 0.02 * np.sin(2.0 * src) + noise * rng.standard_normal(src.shape)
        p = pairs_from(src, dst)
        train = np.arange(n_train)
        affine = fit_affine(p, train)
        hyper = MlpHyper(epochs=epochs, seed=5)
        expected, epochs_run = reference_fit(p, train, affine, hyper)
        if noise:
            # Past the patience: the best parameters are a trained copy.
            assert MLP_PATIENCE < epochs_run < epochs
        mlp, _ = fit_residual_mlp(p, train, affine, hyper)
        assert np.array_equal(mlp.theta, expected)

    def test_a_trained_output_is_not_overwritten_by_later_passes(self):
        rng = rng_stream(22, "reg.test")
        src = rng.uniform(0, 4, size=(300, 2))
        p = pairs_from(src, src + 0.01 * np.cos(src))
        train = np.arange(240)
        a, t = fit_affine(p, train)
        mlp, norm = fit_residual_mlp(p, train, (a, t), MlpHyper(epochs=5, seed=4))
        model = RegistrationModel(a, t, normalizer=norm, mlp=mlp, train_idx=train)
        x = norm(p.p_tracker[240:])
        out, predicted = mlp.forward(x), model.predict(p.p_tracker[240:])
        kept_out, kept_predicted = out.copy(), predicted.copy()
        # One more training step through a workspace, then one more forward.
        work = mlp.workspace(MLP_BATCH)
        pred, acts = mlp.forward_with_cache(x[:50], work)
        mlp.gradients(acts, pred, work)
        mlp.theta -= 0.1 * mlp.grad
        mlp.forward(2.0 * x)
        model.predict(p.p_tracker[:10])
        assert np.array_equal(out, kept_out)
        assert np.array_equal(predicted, kept_predicted)

    def test_a_non_finite_training_pair_stops_the_training(self):
        rng = rng_stream(11, "reg.test")
        src = rng.uniform(0, 4, size=(50, 2))
        src[7, 0] = math.nan
        p = pairs_from(src, src)
        affine = (np.eye(2), np.zeros(2))
        with pytest.raises(TrainingDivergedError, match="non-finite network output at step 0"):
            fit_residual_mlp(p, np.arange(50), affine, MlpHyper(epochs=5, seed=1))

    def test_a_non_finite_validation_pair_stops_the_training(self):
        # One training pair: it is the validation set, and no batch trains.
        p = pairs_from([[1.0, 2.0]], [[math.nan, 2.0]])
        affine = (np.eye(2), np.zeros(2))
        with pytest.raises(TrainingDivergedError, match="non-finite validation loss at epoch 0"):
            fit_residual_mlp(p, [0], affine, MlpHyper(epochs=5, seed=1))

    def test_params_flat_is_a_copy(self):
        mlp = ResidualMlp([2, 4, 2], rng=rng_stream(18, "reg.test"))
        theta = mlp.params_flat()
        assert not np.shares_memory(theta, mlp.theta)
        theta[:] = 0.0
        assert np.abs(mlp.params_flat()).max() > 0.0
        assert np.abs(mlp.weights[0]).max() > 0.0

    def test_set_params_flat_changes_the_network_output(self):
        mlp = ResidualMlp([2, 4, 2], rng=rng_stream(19, "reg.test"))
        x = rng_stream(20, "reg.test").normal(size=(6, 2))
        before = mlp.forward(x)
        theta = mlp.params_flat() + 0.5
        mlp.set_params_flat(theta)
        assert np.array_equal(mlp.params_flat(), theta)
        assert np.array_equal(mlp.biases[-1], np.full(2, 0.5))
        assert not np.allclose(mlp.forward(x), before)
        with pytest.raises(ValueError):
            mlp.set_params_flat(theta[:-1])

    def test_gradients_match_central_finite_differences(self):
        # Loss L = sum(out * r), so dL/dout = r: backprop through the cached
        # activations must match the numerical derivative of every parameter.
        rng = rng_stream(11, "reg.test")
        mlp = ResidualMlp([2, 4, 3, 2], rng=rng)
        for b in mlp.biases:
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(5, 2))
        r = rng.normal(size=(5, 2))
        out, acts = mlp.forward_with_cache(x)
        assert np.array_equal(out, mlp.forward(x))
        gw, gb = mlp.gradients(acts, r, mlp.workspace(5))
        analytic = np.concatenate([g.ravel() for g in gw + gb])
        assert np.array_equal(mlp.grad, analytic)
        # A larger workspace, as the last short batch of a training epoch uses.
        work = mlp.workspace(8)
        out_work, acts_work = mlp.forward_with_cache(x, work)
        assert np.array_equal(out_work, out)
        mlp.gradients(acts_work, r, work)
        assert np.array_equal(mlp.grad, analytic)
        theta = mlp.params_flat()
        h = 1e-6
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            step = np.zeros_like(theta)
            step[i] = h
            mlp.set_params_flat(theta + step)
            up = float(np.sum(mlp.forward(x) * r))
            mlp.set_params_flat(theta - step)
            down = float(np.sum(mlp.forward(x) * r))
            numeric[i] = (up - down) / (2.0 * h)
        assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


class TestEvaluate:
    def test_perfect_model_scores_zero(self):
        rng = rng_stream(12, "reg.test")
        src = rng.uniform(0, 4, size=(50, 2))
        model = RegistrationModel(np.eye(2), np.zeros(2))
        s = evaluate(model, pairs_from(src, src), np.arange(50))
        assert s["rmse"] == 0.0 and s["p95"] == 0.0

    def test_noise_floor_on_pure_rotation(self):
        # With reference-frame-isotropic noise mapped through a rotation,
        # the affine fit's test RMSE approaches sigma * sqrt(d).
        sigma = 0.004
        rmses = []
        for seed in range(20):
            rng = rng_stream(seed, "reg.noise")
            th = 0.3
            rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
            src = rng.uniform(0, 4, size=(600, 2))
            dst = src @ rot.T + [0.2, 0.1]
            src = src + sigma * rng.standard_normal(src.shape)
            p = pairs_from(src, dst)
            train, test = split_indices(600, 0.8, seed=seed)
            a, t = fit_affine(p, train)
            rmses.append(evaluate(RegistrationModel(a, t, train_idx=train), p, test)["rmse"])
        assert np.mean(rmses) == pytest.approx(sigma * math.sqrt(2), rel=0.15)

    def test_split_discipline_enforced(self):
        src = rng_stream(14, "reg.test").uniform(0, 1, size=(20, 2))
        p = pairs_from(src, src)
        model = RegistrationModel(np.eye(2), np.zeros(2), train_idx=np.arange(10))
        with pytest.raises(ValueError):
            evaluate(model, p, np.arange(5, 15))
        with pytest.raises(ValueError):
            evaluate(model, p, np.array([], dtype=int))


class TestSynthDataset:
    def test_no_warp_no_noise_is_exactly_affine(self):
        field = DistortionField(
            a_true=np.array([[1.05, 0.0], [0.1, 0.95]]), t_true=np.array([0.3, -0.1]),
            bumps=(), noise_std=0.0, seed=21)
        pairs = synth_dataset(field, 200, ((0, 0), (4, 4)))
        recon = pairs.p_tracker @ field.a_true.T + field.t_true
        assert np.allclose(recon, pairs.p_reference, atol=1e-9)

    def test_benchmark_shape_and_split(self):
        from hilbench.registration import BENCHMARK_N_POINTS, BENCHMARK_TRAIN_FRACTION
        assert BENCHMARK_N_POINTS == 3433
        train, test = split_indices(3433, BENCHMARK_TRAIN_FRACTION, seed=1)
        assert train.size == 2746 and test.size == 687
        assert np.intersect1d(train, test).size == 0

    def test_same_seed_same_dataset(self):
        field = default_benchmark_field()
        a = synth_dataset(field, 150, ((0, 0), (4, 4)))
        b = synth_dataset(field, 150, ((0, 0), (4, 4)))
        assert np.array_equal(a.p_tracker, b.p_tracker)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            synth_dataset(default_benchmark_field(), 50, ((0, 0), (4, 4)))

    def test_inversion_is_exact(self):
        field = default_benchmark_field()
        targets = rng_stream(15, "reg.test").uniform(0, 4.2, size=(20, 2))
        p = field.invert(targets)
        assert p.shape == (20, 2)
        assert np.allclose(field.forward(p), targets, atol=1e-10)

    def test_inversion_of_a_row_does_not_depend_on_the_batch(self):
        # Rows near a bump need more Newton steps than rows far from every
        # bump; each row must stop on its own residual and keep its bits.
        field = default_benchmark_field(7)
        targets = rng_stream(16, "reg.test").uniform(0, 4.2, size=(40, 2))
        batch = field.invert(targets)
        alone = np.vstack([field.invert(targets[i:i + 1]) for i in range(len(targets))])
        assert np.array_equal(batch, alone)

    def test_newton_steps_match_a_one_point_solve_bit_for_bit(self):
        # The one-point solve the batch must reproduce.  Stopping after one
        # or two steps, short of convergence, keeps a change in any step's
        # arithmetic visible in the result.
        field = default_benchmark_field(2)
        targets = rng_stream(18, "reg.test").uniform(0, 4.2, size=(50, 2))

        def one_point(target, iters):
            p = np.linalg.inv(field.a_true) @ (target - field.t_true)
            for _ in range(iters):
                f = field.a_true @ p + field.t_true + field.warp(p[None, :])[0] - target
                if float(f @ f) < 1e-13**2:
                    break
                jac = np.zeros((2, 2))
                for b in field.bumps:
                    diff = p - b.center
                    g = math.exp(-float(diff @ diff) / (2.0 * b.width**2))
                    jac += np.outer(b.amplitude, -diff / b.width**2) * g
                p = p - np.linalg.solve(field.a_true + jac, f)
            return p

        for iters in (1, 2, 60):
            expected = np.vstack([one_point(t, iters) for t in targets])
            assert np.array_equal(field.invert(targets, iters=iters), expected)

    def test_inversion_without_bumps_inverts_the_affine_map(self):
        field = DistortionField(
            a_true=np.array([[1.05, 0.0], [0.1, 0.95]]), t_true=np.array([0.3, -0.1]),
            bumps=(), noise_std=0.0, seed=21)
        targets = rng_stream(17, "reg.test").uniform(0, 4, size=(30, 2))
        p = field.invert(targets)
        assert np.allclose(p, np.linalg.solve(field.a_true, (targets - field.t_true).T).T,
                           atol=1e-12)
        assert np.allclose(field.forward(p), targets, atol=1e-10)


class TestSerialization:
    def test_round_trip_bit_exact_metrics(self, tmp_path):
        field = DistortionField(
            a_true=np.eye(2), t_true=np.zeros(2),
            bumps=(GaussianBump(np.array([2.0, 2.0]), np.array([0.02, 0.01]), 0.7),),
            noise_std=0.001, seed=31)
        pairs = synth_dataset(field, 400, ((0, 0), (4, 4)))
        train, test = split_indices(400, 0.8, seed=31)
        a, t = fit_affine(pairs, train)
        mlp, norm = fit_residual_mlp(pairs, train, (a, t), MlpHyper(epochs=60, seed=3))
        model = RegistrationModel(a, t, normalizer=norm, mlp=mlp, train_idx=train)
        before = evaluate(model, pairs, test)
        f = tmp_path / "model.json"
        model.save(f)
        obj = json.loads(f.read_text())
        loaded = RegistrationModel(np.array(obj["A"]), np.array(obj["t"]),
                                   normalizer=Normalizer(np.array(obj["normalizer"]["mean"]),
                                                         np.array(obj["normalizer"]["scale"])),
                                   mlp=ResidualMlp(obj["mlp"]["sizes"], rng=rng_stream(0, "reg.test")),
                                   train_idx=np.array(obj["train_idx"]))
        loaded.mlp.set_params_flat(np.array(obj["mlp"]["theta"]))
        after = evaluate(loaded, pairs, test)
        assert before == after

    def test_dataset_csv_round_trip(self, tmp_path):
        field = default_benchmark_field()
        pairs = synth_dataset(field, 120, ((0, 0), (4.2, 4.2)))
        f = tmp_path / "pairs.csv"
        pairs.save_csv(f)
        header, *rows = f.read_text().splitlines()
        assert header == "t_ns,pTx,pTy,pLx,pLy"
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(back[:, 0], pairs.t_ns)
        assert np.array_equal(back[:, 1:3], pairs.p_tracker)
        assert np.array_equal(back[:, 3:5], pairs.p_reference)
