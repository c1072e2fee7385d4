import math

import numpy as np
import pytest

from hilbench.core import rng_stream
from hilbench.registration import (
    DegenerateGeometryError,
    DistortionField,
    GaussianBump,
    MatchedPairs,
    MlpHyper,
    Normalizer,
    PoseStream,
    RegistrationModel,
    ResidualMlp,
    TrainingDivergedError,
    default_benchmark_field,
    evaluate,
    fit_affine,
    fit_residual_mlp,
    fit_rigid_svd,
    fuse_streams,
    sg_smooth,
    split_indices,
    synth_dataset,
)


def stream(ts, ps):
    return PoseStream(np.asarray(ts, dtype=np.int64), np.asarray(ps, dtype=float))


def pairs_from(p_t, p_l):
    n = len(p_t)
    return MatchedPairs(np.arange(n, dtype=np.int64), np.asarray(p_t, float), np.asarray(p_l, float))


class TestFuseStreams:
    def test_coincident_sample_passes_through(self):
        high = stream([0, 10, 20, 30], [[0, 0], [1, 0], [2, 0], [3, 0]])
        low = stream([20], [[9, 9]])
        out = fuse_streams(high, low, max_gap_s=1.0)
        assert len(out) == 1
        assert np.allclose(out.p_tracker[0], [2, 0])

    def test_constant_velocity_extrapolates_exactly(self):
        t_high = np.arange(0, 10) * 100
        high = stream(t_high, np.stack([t_high * 0.01, t_high * -0.02], axis=1))
        low = stream([955], [[0, 0]])
        out = fuse_streams(high, low, max_gap_s=1.0)
        assert np.allclose(out.p_tracker[0], [9.55, -19.1], atol=1e-9)

    def test_needs_two_causal_samples(self):
        high = stream([100], [[1, 1]])
        low = stream([150], [[0, 0]])
        assert len(fuse_streams(high, low, max_gap_s=1.0)) == 0

    def test_stale_pairs_rejected(self):
        high = stream([0, 10], [[0, 0], [1, 1]])
        low = stream([int(5e9)], [[0, 0]])
        assert len(fuse_streams(high, low, max_gap_s=0.5)) == 0

    def test_empty_streams_give_empty_result(self):
        empty = stream([], np.empty((0, 2)))
        assert len(fuse_streams(empty, empty, 1.0)) == 0

    def test_smooth_motion_error_bound(self):
        # 50 Hz high stream of a smooth trajectory, 10 Hz low stream:
        # backward extrapolation error stays below v_max * high period.
        t_high = (np.arange(0, 500) * 20_000_000).astype(np.int64)
        def traj(t_ns):
            t = t_ns / 1e9
            return np.stack([np.sin(0.5 * t), np.cos(0.3 * t)], axis=-1)
        high = stream(t_high, traj(t_high))
        t_low = (np.arange(3, 98) * 100_000_000 + 7_000_000).astype(np.int64)
        low = stream(t_low, traj(t_low))
        out = fuse_streams(high, low, max_gap_s=0.5)
        assert len(out) == len(t_low)
        err = np.linalg.norm(out.p_tracker - traj(out.t_ns), axis=1)
        v_max = math.hypot(0.5, 0.3)
        assert err.max() < v_max * 0.02


class TestSgSmooth:
    def test_polynomial_reproduction(self):
        t = (np.arange(60) * 10_000_000).astype(np.int64)
        x = np.arange(60, dtype=float)
        for window in (5, 9, 21):
            for order in range(0, min(window - 1, 5)):
                sig = 0.3 * x**order - x + 2
                s = stream(t, np.stack([sig, sig * 0.5], axis=1))
                out = sg_smooth(s, window, max(order, 1))
                if order <= max(order, 1):
                    assert np.allclose(out.p, s.p, atol=1e-9)

    def test_constant_unchanged(self):
        t = (np.arange(30) * 10).astype(np.int64)
        s = stream(t, np.full((30, 2), 3.25))
        assert np.allclose(sg_smooth(s, 7, 2).p, 3.25)

    def test_noise_reduction_on_sinusoid(self):
        rng = rng_stream(4, "reg.test")
        t = (np.arange(400) * 20_000_000).astype(np.int64)
        clean = np.stack([np.sin(t / 1e9 * 2.0), np.cos(t / 1e9 * 1.3)], axis=1)
        noisy = clean + 0.05 * rng.standard_normal(clean.shape)
        smoothed = sg_smooth(stream(t, noisy), 11, 2)
        rmse_in = np.sqrt(np.mean((noisy - clean) ** 2))
        rmse_out = np.sqrt(np.mean((smoothed.p - clean) ** 2))
        assert rmse_out < rmse_in

    def test_parameter_validation(self):
        t = (np.arange(10) * 10).astype(np.int64)
        s = stream(t, np.zeros((10, 2)))
        with pytest.raises(ValueError):
            sg_smooth(s, 4, 2)
        with pytest.raises(ValueError):
            sg_smooth(s, 5, 5)

    def test_nonuniform_rate_rejected(self):
        t = np.array([0, 10, 20, 35, 40, 50], dtype=np.int64)
        with pytest.raises(ValueError):
            sg_smooth(stream(t, np.zeros((6, 2))), 3, 1)


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
        rmse_affine = evaluate(affine_only, pairs, test).rmse
        mlp, norm = fit_residual_mlp(pairs, train, (a, t), MlpHyper(epochs=800, seed=2))
        hybrid = RegistrationModel(a, t, normalizer=norm, mlp=mlp, train_idx=train)
        rmse_hybrid = evaluate(hybrid, pairs, test).rmse
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
        gw, gb = mlp.gradients(acts, r)
        analytic = np.concatenate([g.ravel() for g in gw + gb])
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
        assert s.rmse == 0.0 and s.p95 == 0.0

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
            rmses.append(evaluate(RegistrationModel(a, t, train_idx=train), p, test).rmse)
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
        rng = rng_stream(15, "reg.test")
        for _ in range(20):
            target = rng.uniform(0, 4.2, size=2)
            p = field.invert(target)
            assert np.allclose(field.forward(p[None, :])[0], target, atol=1e-10)


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
        loaded = RegistrationModel.load(f)
        after = evaluate(loaded, pairs, test)
        assert before == after

    def test_dataset_csv_round_trip(self, tmp_path):
        field = default_benchmark_field()
        pairs = synth_dataset(field, 120, ((0, 0), (4.2, 4.2)))
        f = tmp_path / "pairs.csv"
        pairs.save_csv(f)
        back = MatchedPairs.load_csv(f)
        assert np.array_equal(back.p_tracker, pairs.p_tracker)
        assert np.array_equal(back.p_reference, pairs.p_reference)
