import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbench.config import ConfigError, resolve_run_config
from hilbench.core import rng_stream, s_to_ns
from hilbench.plant import (
    LN10,
    CommandMap,
    FOPDTParams,
    FopdtChannel,
    Plant,
    StepLog,
    channel_params,
    fit_fopdt,
    run_step_experiment,
)


def plant_section(preset: str = "calibrated") -> dict:
    """The resolved ``plant`` section of a run config with that preset."""
    return resolve_run_config({"seed": 1, "termination": {"duration_s": 1.0},
                               "path": {"preset": "square-sandbox"},
                               "plant": {"preset": preset}})["plant"]


def period_s(cfg: dict) -> float:
    return cfg["control_period_ms"] / 1e3


class TestCommandMap:
    def test_identity(self):
        m = CommandMap(plant_section()["steer_map"])
        assert m(0.5) == (0.5, False)

    def test_uncalibrated_longitudinal_scale(self):
        m = CommandMap([(-10.0, -21.1), (10.0, 21.1)])
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


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def command_tables(draw):
    """(commands, setpoints): strictly increasing commands, and setpoints that
    repeat often enough to give flat segments; both may be infinite."""
    cmds = sorted(draw(st.lists(st.floats(allow_nan=False), min_size=2, max_size=7, unique=True)))
    setpoint = st.one_of(st.floats(allow_nan=False),
                         st.sampled_from([-math.inf, -1.0, 0.0, 2.5, math.inf]))
    setps = sorted(draw(st.lists(setpoint, min_size=len(cmds), max_size=len(cmds))))
    return cmds, setps


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(table=command_tables(), data=st.data())
def test_command_map_is_np_interp_bit_for_bit(table, data):
    cmds, setps = table
    m = CommandMap(list(zip(cmds, setps)))
    j = data.draw(st.integers(0, len(cmds) - 2))
    inside = [] if math.isinf(cmds[j]) or math.isinf(cmds[j + 1]) else \
        data.draw(st.lists(st.floats(cmds[j], cmds[j + 1]), min_size=1, max_size=4))
    commands = cmds + inside + data.draw(st.lists(st.floats(), max_size=4)) + [
        math.nextafter(cmds[0], -math.inf), math.nextafter(cmds[-1], math.inf), math.nan]
    for command in commands:
        setpoint, clamped = m(command)
        assert _bits(setpoint) == _bits(float(np.interp(command, cmds, setps))), command
        assert clamped == (command < cmds[0] or command > cmds[-1]), command


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
        assert len(ch._pending) == 2

    def test_jittered_dead_times_keep_activation_order(self):
        # With per-command dead-time jitter a newer command can come due
        # before a pending one; the stale entry must be dropped.
        p = FOPDTParams(K=1.0, tau_p=0.1, L=0.03)
        ch = FopdtChannel(p, jitter_sigma=1.0, rng=rng_stream(3, "jit"))
        for k in range(200):
            ch.apply(s_to_ns(0.02 * k), float(k))
            dues = [due for due, _ in ch._pending]
            assert dues == sorted(dues)


def step(plant, speed_cmd, steer_cmd, dt_s):
    """Apply one command at the plant's time and integrate ``dt_s`` on, as the
    runner drives the plant; return the pose ``(x, y, heading)`` reached."""
    t_ns = plant._t_ns
    plant.apply_command(t_ns, speed_cmd, steer_cmd)
    plant.advance_to(t_ns + s_to_ns(dt_s))
    return plant.pose


class TestPlantMotion:
    def test_zero_command_from_rest_keeps_pose(self):
        cfg = plant_section("calibrated")
        plant = Plant(cfg, 1.0, 2.0, 0.5)
        assert step(plant, 0.0, 0.0, period_s(cfg)) == (1.0, 2.0, 0.5)

    def test_velocity_step_reaches_gain_times_setpoint(self):
        cfg = plant_section("paper-uncalibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        velocity = channel_params(cfg, "velocity")
        t_end = velocity.L + 10 * velocity.tau_p
        steps = int(t_end / period_s(cfg)) + 1
        for _ in range(steps):
            step(plant, 1.0, 0.0, period_s(cfg))
        assert plant.v_actual == pytest.approx(2.11, abs=1e-4)

    def test_steering_response_crosses_90pct_at_t90(self):
        cfg = plant_section("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        target = 0.3
        steering = channel_params(cfg, "steering")
        t90 = steering.L + steering.tau_p * LN10
        t, crossed = 0.0, None
        while t < 2.0:
            step(plant, 0.0, target, period_s(cfg))
            t += period_s(cfg)
            if crossed is None and plant._steer_ch.value(plant._t_ns) >= 0.9 * target:
                crossed = t
        assert crossed == pytest.approx(t90, abs=period_s(cfg) + 1e-9)

    def test_straight_line_distance(self):
        cfg = plant_section("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        for _ in range(500):
            step(plant, 0.5, 0.0, period_s(cfg))
        x, y, _heading = plant.pose
        assert y == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < x < 0.5 * 500 * period_s(cfg)  # lag means less than ideal

    def test_steer_limited_flag(self):
        cfg = plant_section("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        flags = plant.apply_command(0, 0.1, 3.0)
        assert flags.get("steer_limited")

    def test_dt_bounds_enforced(self):
        cfg = plant_section("calibrated")
        plant = Plant(cfg, 0.0, 0.0, 0.0)
        step(plant, 0.0, 0.0, period_s(cfg))
        # The plant never integrates backwards, and takes finite commands only.
        with pytest.raises(ValueError, match="backwards"):
            plant.advance_to(s_to_ns(period_s(cfg)) - 1)
        with pytest.raises(ValueError, match="finite"):
            plant.apply_command(0, math.nan, 0.0)


class TestStepExperiment:
    def test_noiseless_matches_channel_closed_form(self):
        cfg = plant_section("paper-uncalibrated")
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.0, seed=1)
        p = channel_params(cfg, "velocity")
        t_step = 0.3
        expected = np.where(
            log.t_s > t_step + p.L,
            p.K * (1.0 - np.exp(-(log.t_s - t_step - p.L) / p.tau_p)),
            0.0,
        )
        assert np.max(np.abs(log.response - expected)) < 1e-9

    def test_seeded_reproducibility(self):
        cfg = plant_section("calibrated")
        a = run_step_experiment(cfg, "steering", 0.3, 4.0, 0.01, seed=7)
        b = run_step_experiment(cfg, "steering", 0.3, 4.0, 0.01, seed=7)
        assert np.array_equal(a.response, b.response)

    def test_zero_amplitude_flat(self):
        cfg = plant_section("calibrated")
        log = run_step_experiment(cfg, "velocity", 0.0, 3.0, 0.0, seed=1)
        assert np.all(log.response == 0.0)

    def test_too_short_duration_rejected(self):
        cfg = plant_section("calibrated")
        with pytest.raises(ValueError):
            run_step_experiment(cfg, "steering", 0.3, 0.5, 0.0, seed=1)

    def test_csv_round_trip(self, tmp_path):
        cfg = plant_section("calibrated")
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.01, seed=3)
        f = tmp_path / "log.csv"
        log.save_csv(f)
        header, *rows = f.read_text().splitlines()
        assert header == "t_s,command,response"
        back = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(back[:, 0], log.t_s)
        assert np.array_equal(back[:, 1], log.command)
        assert np.array_equal(back[:, 2], log.response)


class TestFitFopdt:
    def test_noiseless_recovery(self):
        cfg = plant_section("paper-uncalibrated")  # velocity K=2.11, tau 0.2199, L 0.0236
        log = run_step_experiment(cfg, "velocity", 1.0, 3.0, 0.0, seed=1)
        fit = fit_fopdt(log)
        assert fit.params.K == pytest.approx(2.11, rel=0.005)
        assert abs(fit.params.L - 0.0236) <= 0.02  # one sample period
        assert fit.r2 > 0.999

    def test_noisy_recovery_t90(self):
        # 2% of the response step; t90 anchor 0.53 s for the velocity channel.
        cfg = plant_section("paper-uncalibrated")
        noise = 0.02 * 2.11
        t90_true = 0.0236 + 0.2199 * LN10
        hits = 0
        for seed in range(20):
            log = run_step_experiment(cfg, "velocity", 1.0, 3.0, noise, seed=seed)
            fit = fit_fopdt(log)
            if fit.r2 > 0.97 and abs(fit.params.t90 - t90_true) / t90_true < 0.05:
                hits += 1
        assert hits >= 19

    def test_constant_log_rejected(self):
        log = StepLog("velocity", np.arange(100) * 0.02, np.zeros(100), np.zeros(100))
        with pytest.raises(ValueError):
            fit_fopdt(log)

    @pytest.mark.parametrize("command, response, message", [
        (np.where(np.arange(100) >= 20, 1.0, 0.0) + (np.arange(100) >= 60), np.zeros(100),
         "log must contain a single step"),
        (np.where(np.arange(100) >= 5, 1.0, 0.0), np.zeros(100),
         "need at least 10 pre-step baseline samples"),
        (np.where(np.arange(100) >= 20, 1.0, 0.0), np.full(100, 0.5),
         "could not fit a first-order response to this log"),
    ], ids=["two-steps", "short-baseline", "response-never-moves"])
    def test_a_log_without_one_fittable_step_is_rejected(self, command, response, message):
        log = StepLog("velocity", np.arange(100) * 0.02, command, response)
        with pytest.raises(ValueError, match=message):
            fit_fopdt(log)

    def test_recovery_error_shrinks_with_noise(self):
        cfg = plant_section("calibrated")
        steering = channel_params(cfg, "steering")
        t90_true = steering.L + steering.tau_p * LN10
        mean_err = []
        for frac in (0.02, 0.01, 0.001, 0.0):
            errs = []
            for seed in range(20):
                log = run_step_experiment(cfg, "steering", 0.3, 4.5, frac * 0.3, seed=seed)
                fit = fit_fopdt(log)
                errs.append(abs(fit.params.t90 - t90_true) / t90_true)
            mean_err.append(sum(errs) / len(errs))
        assert mean_err[0] >= mean_err[1] >= mean_err[2] >= mean_err[3]
        assert mean_err[3] < 1e-3


def test_presets_distinct():
    cal = plant_section("calibrated")
    unc = plant_section("paper-uncalibrated")
    assert cal["velocity"]["K"] == 1.0 and cal["steering"]["K"] == 1.0
    assert unc["velocity"]["K"] == 2.11 and unc["steering"]["K"] == 0.26
    assert unc["steering"]["tau_p_s"] == pytest.approx((0.85 - 0.0072) / LN10, abs=5e-5)
    assert unc["velocity"]["tau_p_s"] == pytest.approx((0.53 - 0.0236) / LN10, abs=5e-5)
    with pytest.raises(ConfigError) as exc:
        plant_section("nope")
    assert exc.value.path == "plant.preset"
