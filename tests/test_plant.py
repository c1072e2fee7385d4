import math

import numpy as np
import pytest

from hilbench.core import rng_stream, s_to_ns
from hilbench.plant import (
    LN10,
    CommandMap,
    FOPDTParams,
    FopdtChannel,
    Plant,
    StepLog,
    fit_fopdt,
    preset,
    run_step_experiment,
)


class TestCommandMap:
    def test_identity(self):
        m = CommandMap.identity()
        assert m(0.5) == (0.5, False)

    def test_uncalibrated_longitudinal_scale(self):
        m = CommandMap.scale(2.11)
        setpoint, clamped = m(1.0)
        assert setpoint == pytest.approx(2.11)
        assert not clamped

    def test_clamp_beyond_table(self):
        m = CommandMap([(0.0, 0.0), (1.0, 2.0)])
        assert m(1.5) == (2.0, True)
        assert m(-0.5) == (0.0, True)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            CommandMap([(0.0, 1.0), (1.0, 0.5)])


class TestFopdtChannel:
    def test_steady_state_gain(self):
        p = FOPDTParams(K=2.11, tau_p=0.22, L=0.0236)
        ch = FopdtChannel(p)
        ch.apply(0, 1.0)
        t = s_to_ns(p.L + 10 * p.tau_p)
        assert ch.value(t) == pytest.approx(2.11, abs=1e-4)

    def test_dead_time_holds_output(self):
        p = FOPDTParams(K=1.0, tau_p=0.1, L=0.05)
        ch = FopdtChannel(p)
        ch.apply(0, 1.0)
        assert ch.value(s_to_ns(0.049)) == 0.0
        assert ch.value(s_to_ns(0.051)) > 0.0

    def test_step_subdivision_bit_identical(self):
        # Querying at dt or dt/2 must give bit-identical values at shared times.
        p = FOPDTParams(K=1.3, tau_p=0.2, L=0.033)
        coarse = FopdtChannel(p)
        fine = FopdtChannel(p)
        coarse.apply(0, 0.7)
        fine.apply(0, 0.7)
        coarse_vals = [coarse.value(s_to_ns(0.02 * k)) for k in range(1, 51)]
        fine_vals = []
        for k in range(1, 101):
            v = fine.value(s_to_ns(0.01 * k))
            if k % 2 == 0:
                fine_vals.append(v)
        assert coarse_vals == fine_vals

    def test_t90_identity_over_seeded_draws(self):
        rng = rng_stream(17, "plant.test")
        period = 0.002
        for _ in range(100):
            p = FOPDTParams(K=float(rng.uniform(0.2, 3.0)),
                            tau_p=float(rng.uniform(0.05, 0.6)),
                            L=float(rng.uniform(0.0, 0.1)))
            ch = FopdtChannel(p)
            ch.apply(0, 1.0)
            target = 0.9 * p.K
            t = 0.0
            while ch.value(s_to_ns(t)) < target:
                t += period
            assert abs(t - p.t90) <= period + 1e-12

    def test_newer_command_supersedes_pending(self):
        p = FOPDTParams(K=1.0, tau_p=0.1, L=0.05)
        ch = FopdtChannel(p)
        ch.apply(0, 1.0)
        ch.apply(s_to_ns(0.001), 2.0)  # due 0.051, replaces nothing
        assert len(ch.pending()) == 2

    def test_jittered_dead_times_keep_activation_order(self):
        # With per-command dead-time jitter a newer command can come due
        # before a pending one; the stale entry must be dropped.
        from hilbench.plant import DeadTimeJitter
        p = FOPDTParams(K=1.0, tau_p=0.1, L=0.03)
        ch = FopdtChannel(p, jitter=DeadTimeJitter(sigma=1.0), rng=rng_stream(3, "jit"))
        for k in range(200):
            ch.apply(s_to_ns(0.02 * k), float(k))
            dues = [due for due, _ in ch.pending()]
            assert dues == sorted(dues)


class TestPlantMotion:
    def test_zero_command_from_rest_keeps_pose(self):
        cfg = preset("calibrated")
        plant = Plant(cfg, 1.0, 2.0, 0.5)
        st = plant.step(0.0, 0.0, cfg.control_period_s)
        assert (st.pose.x, st.pose.y, st.pose.heading) == (1.0, 2.0, 0.5)

    def test_velocity_step_reaches_gain_times_setpoint(self):
        cfg = preset("paper-uncalibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        t_end = cfg.velocity.L + 10 * cfg.velocity.tau_p
        steps = int(t_end / cfg.control_period_s) + 1
        for _ in range(steps):
            plant.step(1.0, 0.0, cfg.control_period_s)
        assert plant.v_actual == pytest.approx(2.11, abs=1e-4)

    def test_steering_response_crosses_90pct_at_t90(self):
        cfg = preset("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        target = 0.3
        t90 = cfg.steering.L + cfg.steering.tau_p * LN10
        t, crossed = 0.0, None
        while t < 2.0:
            plant.step(0.0, target, cfg.control_period_s)
            t += cfg.control_period_s
            if crossed is None and plant.steer_actual >= 0.9 * target:
                crossed = t
        assert crossed == pytest.approx(t90, abs=cfg.control_period_s + 1e-9)

    def test_straight_line_distance(self):
        cfg = preset("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        for _ in range(500):
            plant.step(0.5, 0.0, cfg.control_period_s)
        st = plant.state()
        assert st.pose.y == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < st.pose.x < 0.5 * 500 * cfg.control_period_s  # lag means less than ideal

    def test_steer_limited_flag(self):
        cfg = preset("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        flags = plant.apply_command(0, 0.1, 3.0)
        assert flags.get("steer_limited")

    def test_dt_bounds_enforced(self):
        cfg = preset("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            plant.step(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            plant.step(0.0, 0.0, cfg.control_period_s * 2)


class TestStepExperiment:
    def test_noiseless_matches_channel_closed_form(self):
        cfg = preset("paper-uncalibrated")
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.0, seed=1)
        p = cfg.velocity
        t_step = 0.3
        expected = np.where(
            log.t_s > t_step + p.L,
            p.K * (1.0 - np.exp(-(log.t_s - t_step - p.L) / p.tau_p)),
            0.0,
        )
        assert np.max(np.abs(log.response - expected)) < 1e-9

    def test_seeded_reproducibility(self):
        cfg = preset("calibrated")
        a = run_step_experiment(cfg, "steering", 0.3, 4.0, 0.01, seed=7)
        b = run_step_experiment(cfg, "steering", 0.3, 4.0, 0.01, seed=7)
        assert np.array_equal(a.response, b.response)

    def test_zero_amplitude_flat(self):
        cfg = preset("calibrated")
        log = run_step_experiment(cfg, "velocity", 0.0, 3.0, 0.0, seed=1)
        assert np.all(log.response == 0.0)

    def test_too_short_duration_rejected(self):
        cfg = preset("calibrated")
        with pytest.raises(ValueError):
            run_step_experiment(cfg, "steering", 0.3, 0.5, 0.0, seed=1)

    def test_csv_round_trip(self, tmp_path):
        cfg = preset("calibrated")
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.01, seed=3)
        f = tmp_path / "log.csv"
        log.save_csv(f)
        back = StepLog.load_csv(f, "velocity")
        assert np.array_equal(back.response, log.response)
        assert np.array_equal(back.t_s, log.t_s)


class TestFitFopdt:
    def test_noiseless_recovery(self):
        cfg = preset("paper-uncalibrated")  # velocity K=2.11, tau 0.2199, L 0.0236
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.0, seed=1)
        fit = fit_fopdt(log)
        assert fit.params.K == pytest.approx(2.11, rel=0.005)
        assert abs(fit.params.L - 0.0236) <= 0.02  # one sample period
        assert fit.r2 > 0.999

    def test_noisy_recovery_t90(self):
        # 2% of the response step; t90 anchor 0.53 s for the velocity channel.
        cfg = preset("paper-uncalibrated")
        noise = 0.02 * 2.11
        t90_true = 0.0236 + 0.2199 * LN10
        hits = 0
        for seed in range(20):
            log = run_step_experiment(cfg, "velocity", 1.0, 3.0, noise, seed=seed)
            fit = fit_fopdt(log)
            if fit.r2 > 0.97 and abs(fit.t90 - t90_true) / t90_true < 0.05:
                hits += 1
        assert hits >= 19

    def test_constant_log_rejected(self):
        log = StepLog("velocity", np.arange(100) * 0.02, np.zeros(100), np.zeros(100))
        with pytest.raises(ValueError):
            fit_fopdt(log)

    def test_recovery_error_shrinks_with_noise(self):
        cfg = preset("calibrated")
        t90_true = cfg.steering.L + cfg.steering.tau_p * LN10
        mean_err = []
        for frac in (0.02, 0.01, 0.001, 0.0):
            errs = []
            for seed in range(20):
                log = run_step_experiment(cfg, "steering", 0.3, 4.5, frac * 0.3, seed=seed)
                fit = fit_fopdt(log)
                errs.append(abs(fit.t90 - t90_true) / t90_true)
            mean_err.append(sum(errs) / len(errs))
        assert mean_err[0] >= mean_err[1] >= mean_err[2] >= mean_err[3]
        assert mean_err[3] < 1e-3


def test_presets_distinct():
    cal = preset("calibrated")
    unc = preset("paper-uncalibrated")
    assert cal.velocity.K == 1.0 and cal.steering.K == 1.0
    assert unc.velocity.K == 2.11 and unc.steering.K == 0.26
    assert unc.steering.tau_p == pytest.approx((0.85 - 0.0072) / LN10, abs=5e-5)
    assert unc.velocity.tau_p == pytest.approx((0.53 - 0.0236) / LN10, abs=5e-5)
    with pytest.raises(ValueError):
        preset("nope")
