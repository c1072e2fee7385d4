import json
import math
import re
from pathlib import Path

import pytest

from hilbench.config import (
    ConfigError,
    resolve_distribution,
    resolve_run_config,
    resolve_sweep_config,
)
from hilbench.core import rng_stream
from hilbench.links import sampler
from hilbench.plant import Plant, channel_params


def minimal(**overrides):
    doc = {
        "schema_version": 1,
        "run_id": "cfg-test",
        "seed": 1,
        "termination": {"duration_s": 5.0},
        "path": {"preset": "square-sandbox"},
    }
    doc.update(overrides)
    return doc


class TestDistributions:
    def test_lognormal_mean_std_resolved_to_explicit_params(self):
        out = resolve_distribution({"kind": "lognormal", "mean_ms": 28.68, "std_ms": 23.22}, "d")
        assert set(out) == {"kind", "mu", "sigma"}
        # round trip through the analytic moments
        mean = math.exp(out["mu"] + out["sigma"] ** 2 / 2.0)
        assert mean == pytest.approx(28.68, rel=1e-12)

    def test_lognormal_direct_mu_sigma_kept(self):
        out = resolve_distribution({"kind": "lognormal", "mu": 3.0, "sigma": 0.5}, "d")
        assert out == {"kind": "lognormal", "mu": 3.0, "sigma": 0.5}

    @pytest.mark.parametrize("extra", [{"mean_ms": 28.68}, {"std_ms": 23.22}])
    def test_lognormal_takes_one_form_only(self, extra):
        with pytest.raises(ConfigError) as exc:
            resolve_distribution({"kind": "lognormal", "mu": 3.0, "sigma": 0.5, **extra},
                                 "links.r2v.adv")
        assert exc.value.path == "links.r2v.adv"

    def test_unknown_kind_named(self):
        with pytest.raises(ConfigError) as exc:
            resolve_distribution({"kind": "cauchy"}, "links.r2v.adv")
        assert exc.value.path == "links.r2v.adv.kind"

    def test_builds_samplable_model(self):
        out = resolve_distribution({"kind": "gaussian_truncated", "mean_ms": 5.0,
                                    "std_ms": 1.0}, "d")
        assert sampler(out)(rng_stream(1, "x")) >= 0.0


class TestRunConfig:
    def test_defaults_fill_links_and_report(self):
        resolved = resolve_run_config(minimal())
        assert resolved["links"]["r2v"]["adv"]["kind"] == "lognormal"
        assert resolved["links"]["v2r"]["perturbation"]["loss_probability"] == 0.0
        assert resolved["report"]["ttc_threshold_s"] == 1.5
        assert resolved["sut"]["latency"] == {"mode": "constant", "ms": 15.48}

    def test_missing_seed_reported(self):
        doc = minimal()
        del doc["seed"]
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(doc)
        assert exc.value.path == "seed"

    def test_first_error_field_path(self):
        doc = minimal(links={"v2r": {"perturbation": {"fixed_delay_ms": -1.0}}})
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(doc)
        assert exc.value.path == "links.v2r.perturbation.fixed_delay_ms"

    def test_unknown_report_option_rejected(self):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(report={"corridor": 1.0}))
        assert exc.value.path == "report.corridor"

    def test_unknown_path_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve_run_config(minimal(path={"preset": "figure-eight"}))

    def test_bad_vertices_rejected_with_index(self):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(path={"closed": False, "vertices": [[0, 0], [1]]}))
        assert "vertices[1]" in exc.value.path

    def test_termination_is_required(self):
        doc = minimal(duration_s=5.0)
        del doc["termination"]
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(doc)
        assert exc.value.path == "termination"

    @pytest.mark.parametrize("latency, path", [
        ({"ms": 20.0}, "sut.latency.mode"),
        ({"mode": "constant"}, "sut.latency.ms"),
        ({"mode": "cauchy"}, "sut.latency.mode"),
        ({"mode": "bimodal", "components": [{"mean_ms": 1.0, "std_ms": 1.0, "weight": 0.5}] * 3},
         "sut.latency.components"),
    ], ids=["no-mode", "no-ms", "unknown-mode", "three-components"])
    def test_sut_latency_needs_mode_and_its_parameters(self, latency, path):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(sut={"latency": latency}))
        assert exc.value.path == path

    @pytest.mark.parametrize("doc, path", [
        ({"links": {"r2v": {"ingest": {"kind": "constant", "ms": -1.0}}}}, "links.r2v.ingest.ms"),
        ({"links": {"r2v": {"sense": {"kind": "gaussian_truncated", "mean_ms": 1.0,
                                      "std_ms": 1.0, "min_ms": -0.5}}}}, "links.r2v.sense.min_ms"),
        ({"links": {"r2v": {"sense": {"kind": "gaussian_truncated", "mean_ms": 1.0,
                                      "std_ms": 1.0, "min_ms": 2.0, "max_ms": 1.0}}}},
         "links.r2v.sense.max_ms"),
        ({"links": {"r2v": {"adv": {"kind": "lognormal", "mu": 3.0, "sigma": -0.1}}}},
         "links.r2v.adv.sigma"),
        ({"links": {"r2v": {"adv": {"kind": "lognormal", "mean_ms": 0.0, "std_ms": 1.0}}}},
         "links.r2v.adv.mean_ms"),
        ({"links": {"v2r": {"base": {"kind": "bimodal", "components": [
            {"mean_ms": 1.0, "std_ms": 1.0, "weight": 1.0}]}}}}, "links.v2r.base.components"),
        ({"links": {"v2r": {"base": {"kind": "bimodal", "components": [
            {"mean_ms": 10.0, "std_ms": 1.0, "weight": 0.7},
            {"mean_ms": 20.0, "std_ms": 1.0, "weight": 0.7}]}}}}, "links.v2r.base.components"),
        ({"links": {"v2r": {"base": {"kind": "weird"}}}}, "links.v2r.base.kind"),
        ({"links": {"v2r": {"perturbation": {"fixed_delay_ms": -1.0}}}},
         "links.v2r.perturbation.fixed_delay_ms"),
        ({"links": {"v2r": {"perturbation": {"loss_probability": 1.5}}}},
         "links.v2r.perturbation.loss_probability"),
        ({"links": {"v2r": {"perturbation": {"loss_probability": -0.1}}}},
         "links.v2r.perturbation.loss_probability"),
        ({"plant": {"wheelbase_m": 0.0}}, "plant.wheelbase_m"),
        ({"plant": {"control_period_ms": 0.0}}, "plant.control_period_ms"),
        ({"plant": {"preset": "nope"}}, "plant.preset"),
    ], ids=["negative-constant", "negative-min", "max-below-min", "negative-sigma",
            "zero-lognormal-mean", "one-component", "weights-not-summing-to-1", "unknown-kind",
            "negative-fixed-delay", "loss-above-1", "negative-loss", "zero-wheelbase",
            "zero-control-period", "unknown-plant-preset"])
    def test_values_a_run_cannot_use_fail_at_their_path(self, doc, path):
        # The plant, the links and the latency samplers read these sections
        # as resolved and check nothing themselves.
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(**doc))
        assert exc.value.path == path

    @pytest.mark.parametrize("doc, path, message", [
        ({"run_id": ""}, "run_id", "must be a non-empty string"),
        ({"termination": 5.0}, "termination", "must be an object"),
        ({"sut": {"latency": 15.48}}, "sut.latency", "must be an object"),
        ({"path": {"closed": "yes", "vertices": [[0, 0], [1, 0]]}}, "path.closed",
         "must be a boolean"),
        ({"path": {"closed": False, "vertices": [[0, 0], [0, 0], [1, 0]]}}, "path.vertices",
         "path contains a zero-length segment"),
        ({"path": {"closed": True, "vertices": [[0, 0], [1, 0], [0, 0]]}}, "path.vertices",
         "closed path must not repeat the first vertex"),
        ({"plant": {"speed_map": [[0, 0], [0, 1]]}}, "plant.speed_map",
         "command map commands must be strictly increasing"),
    ], ids=["empty-run-id", "termination-not-object", "latency-not-object", "closed-not-bool",
            "zero-length-segment", "closed-repeats-start", "map-commands-not-increasing"])
    def test_rejections_name_their_path_and_rule(self, doc, path, message):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(**doc))
        assert (exc.value.path, exc.value.message) == (path, message)

    def test_readme_example_resolves(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Run configuration", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        resolved = resolve_run_config(json.loads(example))
        assert resolved["run_id"] == "my-run"

    def test_unsupported_schema_version(self):
        with pytest.raises(ConfigError):
            resolve_run_config(minimal(schema_version=99))


class TestPlantSection:
    def test_preset_with_override_merges(self):
        resolved = resolve_run_config(minimal(
            plant={"preset": "paper-uncalibrated", "steering": {"tau_p_s": 0.1}}))
        plant = resolved["plant"]
        assert plant["steering"]["tau_p_s"] == 0.1
        assert plant["steering"]["K"] == 0.26      # preset value kept
        assert plant["velocity"]["K"] == 2.11
        assert channel_params(plant, "steering").tau_p == 0.1

    def test_dead_time_jitter_toggle(self):
        resolved = resolve_run_config(minimal(
            plant={"preset": "paper-uncalibrated", "dead_time_jitter": {"enabled": True}}))
        jitter = resolved["plant"]["dead_time_jitter"]
        plant = Plant(resolved["plant"], 0.0, 0.0, 0.0, rng_stream(1, "plant.deadtime"))
        assert plant._steer_ch._jitter_sigma == jitter["steering_sigma"]
        assert plant._speed_ch._jitter_sigma == jitter["velocity_sigma"]
        default = Plant(resolve_run_config(minimal())["plant"], 0.0, 0.0, 0.0)
        assert default._steer_ch._jitter_sigma is None
        assert default._speed_ch._jitter_sigma is None

    def test_command_map_validated(self):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(plant={"steer_map": [[0, 1], [1, 0]]}))
        assert exc.value.path == "plant.steer_map"

    @pytest.mark.parametrize("points, path", [
        ([1, 2], "plant.speed_map[0]"),
        ([[-1, -1], [1, 1, 1]], "plant.speed_map[1]"),
        ([[-1, "-1"], [1, "1"]], "plant.speed_map[0][1]"),
        ([[-1, -1], [math.nan, 1]], "plant.speed_map[1][0]"),
        ([[-1, -1], [True, 1]], "plant.speed_map[1][0]"),
    ], ids=["not-a-pair", "triple", "string", "nan", "bool"])
    def test_command_map_points_are_number_pairs(self, points, path):
        with pytest.raises(ConfigError) as exc:
            resolve_run_config(minimal(plant={"speed_map": points}))
        assert exc.value.path == path

    def test_command_map_echoed_as_floats(self):
        resolved = resolve_run_config(minimal(plant={"steer_map": [[-1, -2], [1, 2]]}))
        assert resolved["plant"]["steer_map"] == [[-1.0, -2.0], [1.0, 2.0]]
        assert all(isinstance(v, float) for pt in resolved["plant"]["steer_map"] for v in pt)
        assert resolve_run_config(resolved)["plant"] == resolved["plant"]


class TestJitteredRunDeterminism:
    def test_dead_time_jitter_runs_deterministically(self, tmp_path):
        from hilbench.orchestrator import run_stage1
        doc = minimal(termination={"duration_s": 2.0},
                      plant={"preset": "calibrated", "dead_time_jitter": {"enabled": True}},
                      sut={"name": "pure-pursuit", "goal_speed_mps": 0.3,
                           "latency": {"mode": "constant", "ms": 15.48}})
        resolved = resolve_run_config(doc)
        logs = [tmp_path / "a.ndjson", tmp_path / "b.ndjson"]
        for log in logs:
            run_stage1(resolved, log)
        assert logs[0].read_bytes() == logs[1].read_bytes()


class TestSweepConfig:
    def test_base_errors_prefixed(self):
        with pytest.raises(ConfigError) as exc:
            resolve_sweep_config({"injected_delays_ms": [0], "base": {"run_id": "x"}})
        assert exc.value.path.startswith("base")

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sweep_config({"injected_delays_ms": [-5], "base": minimal()})

    @pytest.mark.parametrize("delays, bad, message", [
        ([40, 40], 1, "must be above the delay before it (40.0)"),
        ([-0.0, 0], 1, "must be above the delay before it (0.0)"),
        ([0, 20, 10], 2, "must be above the delay before it (20.0)"),
        ([40, 40.000001], 1, "has the label 40 of the delay before it; "
                             "a label keeps 6 significant digits"),
        ([5, 123456.1, 123456.4], 2, "has the label 123456 of the delay before it; "
                                     "a label keeps 6 significant digits"),
    ], ids=["equal", "signed-zero", "unsorted", "same-label", "same-label-later"])
    def test_delays_must_rise_and_differ_in_label(self, delays, bad, message):
        with pytest.raises(ConfigError) as exc:
            resolve_sweep_config({"injected_delays_ms": delays, "base": minimal()})
        assert exc.value.path == f"injected_delays_ms[{bad}]"
        assert exc.value.message == message

    def test_a_negative_zero_delay_is_zero(self):
        sweep = resolve_sweep_config({"injected_delays_ms": [-0.0, 5], "base": minimal()})
        assert [f"{delay:g}" for delay in sweep["injected_delays_ms"]] == ["0", "5"]

    def test_close_delays_with_distinct_labels_pass(self):
        delays = [0, 40, 40.0001, 123456, 123457]
        sweep = resolve_sweep_config({"injected_delays_ms": delays, "base": minimal()})
        assert sweep["injected_delays_ms"] == delays

    def test_resolved_shape(self):
        sweep = resolve_sweep_config({"injected_delays_ms": [0, 10], "base": minimal()})
        assert sweep["repetitions"] == 1
        assert sweep["base"]["gts"]["sample_period_ms"] == 20.0
