import json
import tracemalloc
from pathlib import Path

import pytest

from hilbench import presets
from hilbench.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_OK, main
from hilbench.core import AuditLog
from hilbench.orchestrator import Analyzer
from hilbench.plant import Plant


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


BASE = {"seed": 1, "termination": {"duration_s": 1.0}, "path": {"preset": "square-sandbox"}}


def assert_config_error_at(tmp_path, capsys, command, doc, path):
    """``command`` on a 1 s config with the fields of ``doc`` exits 1 before
    any run, naming the JSON ``path``, with no traceback."""
    assert_document_error_at(tmp_path, capsys, command, {**BASE, **doc}, path)


def assert_document_error_at(tmp_path, capsys, command, doc, path, extra_args=()):
    """``command`` on the config document ``doc`` exits 1 before any run,
    naming the JSON ``path`` (the empty path is the document itself), with no
    traceback; returns the error output."""
    cfg = write_json(tmp_path / "cfg.json", doc)
    argv = [command, "--config", cfg, *extra_args]
    if command != "validate-config":
        argv += ["--out", str(tmp_path / "run"), "-q"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: " if path else "config error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
    return err


@pytest.fixture()
def tiny_cfg(tmp_path):
    return write_json(tmp_path / "cfg.json", {
        "schema_version": 1,
        "run_id": "cli-test",
        "seed": 5,
        "termination": {"duration_s": 2.0},
        "path": {"preset": "square-sandbox"},
        "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                "latency": {"mode": "constant", "ms": 15.48}},
    })


class TestStageCommands:
    def test_stage1_produces_artifacts_and_manifest(self, tiny_cfg, tmp_path):
        out = tmp_path / "run"
        assert main(["stage1", "--config", tiny_cfg, "--out", str(out), "-q"]) == EXIT_OK
        for name in ("audit.ndjson", "report.json", "trajectory.csv",
                     "latency.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "stage1"
        assert not manifest["flags"]["aborted"]

    def test_seed_override_beats_config(self, tiny_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["stage1", "--config", tiny_cfg, "--out", str(out1), "--seed", "99", "-q"])
        main(["stage1", "--config", tiny_cfg, "--out", str(out2), "--seed", "99", "-q"])
        assert (out1 / "audit.ndjson").read_bytes() == (out2 / "audit.ndjson").read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert report["seed"] == 99

    def test_stage1_abort_exit_code(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {
            "schema_version": 1, "run_id": "x", "seed": 1,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 900.0}},
        })
        assert main(["stage1", "--config", cfg, "--out", str(tmp_path / "r"), "-q"]) == EXIT_ABORT

    def test_stage2_writes_response_curve(self, tiny_cfg, tmp_path):
        sweep = write_json(tmp_path / "sweep.json", {
            "injected_delays_ms": [0, 10],
            "base": json.loads(Path(tiny_cfg).read_text()),
        })
        out = tmp_path / "s2"
        assert main(["stage2", "--config", sweep, "--out", str(out), "-q"]) == EXIT_OK
        lines = (out / "response_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "delay_ms,cte_rmse_m,cte_mean_m,cte_p95_m,distance_m,completed"
        assert len(lines) == 3
        assert (out / "delay_0ms_rep0" / "report.json").exists()
        assert (out / "delay_10ms_rep0" / "audit.ndjson").exists()

    def test_stage3_with_script_flag(self, tiny_cfg, tmp_path):
        scenario = presets.load("stage3-intersection")["scenario"]
        script = write_json(tmp_path / "script.json", scenario)
        out = tmp_path / "s3"
        assert main(["stage3", "--config", tiny_cfg, "--script", script,
                     "--out", str(out), "-q"]) == EXIT_OK
        assert (out / "safety.csv").exists()
        assert (out / "events.json").exists()

    def test_preset_name_accepted_as_config(self, tmp_path):
        assert main(["validate-config", "--config", "stage1-default", "-q"]) == EXIT_OK


class TestReplayCommand:
    def test_replay_matches_original_report(self, tiny_cfg, tmp_path):
        out = tmp_path / "orig"
        main(["stage1", "--config", tiny_cfg, "--out", str(out), "-q"])
        out2 = tmp_path / "replay"
        assert main(["replay-report", "--log", str(out / "audit.ndjson"),
                     "--out", str(out2), "-q"]) == EXIT_OK
        assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_missing_log_is_config_error(self, tmp_path):
        assert main(["replay-report", "--log", str(tmp_path / "nope.ndjson"),
                     "--out", str(tmp_path / "o"), "-q"]) == EXIT_CONFIG


class TestValidateCommand:
    def test_valid_config_ok(self, tiny_cfg):
        assert main(["validate-config", "--config", tiny_cfg, "-q"]) == EXIT_OK

    def test_invalid_field_reports_path(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "bad.json", {
            "schema_version": 1, "run_id": "x", "seed": 1,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "links": {"v2r": {"perturbation": {"loss_probability": 1.7}}},
        })
        assert main(["validate-config", "--config", cfg, "-q"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "links.v2r.perturbation.loss_probability" in err

    def test_missing_file_is_config_error(self):
        assert main(["validate-config", "--config", "/does/not/exist.json", "-q"]) == EXIT_CONFIG

    def test_unknown_flag_exits_config(self, capsys):
        assert main(["stage1", "--nonsense"]) == EXIT_CONFIG

    def test_sweep_config_validated(self, tiny_cfg, tmp_path):
        sweep = write_json(tmp_path / "sweep.json", {
            "injected_delays_ms": [0, 10],
            "base": json.loads(Path(tiny_cfg).read_text()),
        })
        assert main(["validate-config", "--config", sweep, "-q"]) == EXIT_OK

    @pytest.mark.parametrize("command", ["validate-config", "stage2"])
    def test_sweep_config_without_delays_names_the_delays(self, tmp_path, capsys, command):
        doc = {"repetitions": 2, "base": BASE}
        err = assert_document_error_at(tmp_path, capsys, command, doc, "injected_delays_ms")
        assert err == "config error: injected_delays_ms: missing required field\n"

    @pytest.mark.parametrize("delays", [[40, 40.000001], [40, 40], [-0.0, 0]],
                             ids=["same-label", "equal", "signed-zero"])
    @pytest.mark.parametrize("command", ["validate-config", "stage2"])
    def test_sweep_points_with_one_label_fail_before_the_run(self, tmp_path, capsys, command,
                                                             delays):
        doc = {"injected_delays_ms": delays, "base": BASE}
        assert_document_error_at(tmp_path, capsys, command, doc, "injected_delays_ms[1]")

    @pytest.mark.parametrize("sut, path", [
        ({"params": {"foo": 1}}, "sut.params.foo"),
        ({"params": {"k_v": "fast"}}, "sut.params.k_v"),
        ({"name": "nope"}, "sut.name"),
        ({"latency": {"mode": "bimodal", "components": [1, 2]}}, "sut.latency.components[0]"),
        ({"params": {"l_min": -1, "l_max": -1}}, "sut.params.l_min"),
        ({"params": {"l_min": 0}}, "sut.params.l_min"),
        ({"params": {"l_max": 0.2}}, "sut.params.l_max"),
        ({"params": {"l_min": 0.5, "l_max": 0.4}}, "sut.params.l_max"),
        ({"params": {"k_v": -0.1}}, "sut.params.k_v"),
        ({"params": {"a_lat_max": 0}}, "sut.params.a_lat_max"),
        ({"params": {"t_h": -1}}, "sut.params.t_h"),
        ({"params": {"d_stop": -0.1}}, "sut.params.d_stop"),
        ({"params": {"wheelbase": 0.09}}, "sut.params.wheelbase"),
        ({"params": {"ego_radius": 0.08}}, "sut.params.ego_radius"),
    ], ids=["unknown-param", "non-number-param", "unknown-name", "component-not-object",
            "negative-lookahead", "zero-l-min", "l-max-below-default-l-min", "l-max-below-l-min",
            "negative-k-v", "zero-a-lat-max", "negative-t-h", "negative-d-stop",
            "wheelbase-set-by-plant", "ego-radius-set-by-report"])
    @pytest.mark.parametrize("command", ["validate-config", "stage1"])
    def test_bad_sut_settings_fail_before_the_run(self, tmp_path, capsys, sut, path, command):
        assert_config_error_at(tmp_path, capsys, command, {"sut": sut}, path)

    @pytest.mark.parametrize("doc, path", [
        ({"links": {"r2v": 5}}, "links.r2v"),
        ({"links": {"v2r": [1]}}, "links.v2r"),
        ({"plant": {"steer_map": [1, 2]}}, "plant.steer_map[0]"),
        ({"plant": {"speed_map": [[-1, "-1"], [1, "1"]]}}, "plant.speed_map[0][1]"),
        ({"plant": {"steer_map": [[-1, -1], [1, float("nan")]]}}, "plant.steer_map[1][1]"),
        ({"links": {"r2v": {"adv": {"kind": "lognormal", "mu": 3.0, "sigma": 0.5,
                                    "mean_ms": 20.0}}}}, "links.r2v.adv"),
        ({"plant": {"wheelbase_m": 10**400}}, "plant.wheelbase_m"),
    ], ids=["r2v-not-object", "v2r-not-object", "map-point-not-pair", "map-point-string",
            "map-point-nan", "lognormal-both-forms", "int-beyond-float-range"])
    @pytest.mark.parametrize("command", ["validate-config", "stage1"])
    def test_bad_links_and_plant_fields_fail_before_the_run(self, tmp_path, capsys, doc, path,
                                                            command):
        assert_config_error_at(tmp_path, capsys, command, doc, path)

    @pytest.mark.parametrize("doc, path", [
        ({"linkz": {}}, "linkz"),
        ({"sut": {"latncy": {"mode": "constant", "ms": 900}}}, "sut.latncy"),
        ({"links": {"r2v": {"sens": {"kind": "constant", "ms": 1.0}}}}, "links.r2v.sens"),
        ({"links": {"v2r": {"base": {"kind": "constant", "ms": 2.0, "std_ms": 1.0}}}},
         "links.v2r.base.std_ms"),
        ({"links": {"v2r": {"perturbation": {"fixed_delay": 40}}}},
         "links.v2r.perturbation.fixed_delay"),
        ({"plant": {"steering": {"tau": 0.1}}}, "plant.steering.tau"),
        ({"plant": {"dead_time_jitter": {"enable": True}}}, "plant.dead_time_jitter.enable"),
        ({"gts": {"period_ms": 10}}, "gts.period_ms"),
        ({"termination": {"mode": "laps", "duration_s": 1.0}}, "termination.laps"),
        ({"termination": {"laps": 1, "max_duration_s": 1.0, "duration_s": 1.0}},
         "termination.duration_s"),
        ({"path": {"preset": "square-sandbox", "closed": True}}, "path.closed"),
        ({"scenario": {"trigger_zone": [1.0, 0.4, 1.6, 1.0], "npcs": [{
            "id": "npc1", "spawn": [2.9, 1.6, -1.5707963267948966],
            "route": {"closed": True, "vertices": [[2.9, 1.6], [2.9, 0.1]]},
            "speed": {"accel_mps2": 0.5, "cruise_mps": 0.3, "cruise": 0.3}, "radius_m": 0.1,
        }]}}, "scenario.npcs[0].speed.cruise"),
    ], ids=["top-level", "sut", "r2v-stage", "constant-std", "perturbation", "plant-channel",
            "jitter", "gts", "laps-mode-duration", "laps-and-duration", "preset-and-closed",
            "npc-speed"])
    @pytest.mark.parametrize("command", ["validate-config", "stage1"])
    def test_undeclared_keys_fail_before_the_run(self, tmp_path, capsys, doc, path, command):
        assert_config_error_at(tmp_path, capsys, command, doc, path)

    @pytest.mark.parametrize("command", ["validate-config", "stage2"])
    def test_undeclared_sweep_key_fails_before_the_run(self, tmp_path, capsys, command):
        doc = {"injected_delays_ms": [0], "repeats": 2, "base": BASE}
        assert_document_error_at(tmp_path, capsys, command, doc, "repeats")

    @pytest.mark.parametrize("doc", [5, [1], "x", None], ids=["number", "list", "string", "null"])
    @pytest.mark.parametrize("command, extra_args", [
        ("validate-config", ()),
        ("stage1", ("--seed", "3")),
        ("stage2", ("--seed", "3")),
        ("identify", ("--seed", "3", "--channel", "velocity")),
    ], ids=["validate-config", "stage1", "stage2", "identify"])
    def test_non_object_document_fails_before_the_run(self, tmp_path, capsys, doc, command,
                                                      extra_args):
        err = assert_document_error_at(tmp_path, capsys, command, doc, "", extra_args)
        assert err == "config error: must be an object\n"

    @pytest.mark.parametrize("base", [5, [1], "x", None], ids=["number", "list", "string", "null"])
    def test_non_object_sweep_base_with_a_seed_fails_at_base(self, tmp_path, capsys, base):
        doc = {"injected_delays_ms": [0], "base": base}
        err = assert_document_error_at(tmp_path, capsys, "stage2", doc, "base", ("--seed", "3"))
        assert err == "config error: base: must be an object\n"

    def test_missing_sweep_base_with_a_seed_fails_at_base(self, tmp_path, capsys):
        err = assert_document_error_at(tmp_path, capsys, "stage2", {"injected_delays_ms": [0]},
                                       "base", ("--seed", "3"))
        assert err == "config error: base: missing required field\n"

    def test_unparsable_config_names_no_empty_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        assert main(["validate-config", "--config", str(cfg)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: invalid JSON in {cfg}: ")

    @pytest.mark.parametrize("script", [None, "{bad"], ids=["missing", "malformed"])
    def test_bad_script_is_a_scenario_error(self, tmp_path, capsys, script):
        path = tmp_path / "script.json"
        if script is not None:
            path.write_text(script)
        assert_document_error_at(tmp_path, capsys, "stage3", BASE, "scenario",
                                 extra_args=("--script", str(path)))

    @pytest.mark.parametrize("channel", ["steering", "velocity"])
    @pytest.mark.parametrize("command", ["validate-config", "stage1"])
    def test_zero_plant_gain_fails_before_the_run(self, tmp_path, capsys, channel, command):
        assert_config_error_at(tmp_path, capsys, command, {"plant": {channel: {"K": 0}}},
                               f"plant.{channel}.K")

    def test_sut_params_are_echoed_as_given(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", {
            "seed": 1, "termination": {"duration_s": 0.2}, "path": {"preset": "square-sandbox"},
            "sut": {"params": {"k_v": 1, "l_min": 0.25}},
        })
        assert main(["stage1", "--config", cfg, "--out", str(tmp_path / "run"), "-q"]) == EXIT_OK
        header = json.loads((tmp_path / "run" / "audit.ndjson").read_text().splitlines()[0])
        echoed = json.loads(header["payload"]["config_json"])["sut"]["params"]
        assert echoed == {"k_v": 1, "l_min": 0.25}
        assert isinstance(echoed["k_v"], int)


class TestStreamedAuditLog:
    def test_memory_grows_slower_than_the_log(self, tmp_path, monkeypatch):
        # A run keeps its analysis fold, which grows with the run, but not its
        # log.  From a 10 s to a 40 s run of stage1-default, the traced peak
        # up to the report's build grows by about half the growth of
        # audit.ndjson, and the peak of the whole command, the report's
        # per-cycle latency records included, by about as much as the log;
        # both grew by twice the log or more when every encoded line was held
        # until the run ended.  A 1 s run first makes the allocations of
        # first use, so that neither measured run counts them.
        run_peaks = []
        finish = Analyzer.finish

        def measured_finish(fold):
            run_peaks.append(tracemalloc.get_traced_memory()[1])
            return finish(fold)

        monkeypatch.setattr(Analyzer, "finish", measured_finish)
        peaks, sizes = [], []
        for duration_s in (1.0, 10.0, 40.0):
            doc = presets.load("stage1-default")
            doc["termination"] = {"duration_s": duration_s}
            cfg = write_json(tmp_path / f"cfg{duration_s:g}.json", doc)
            out = tmp_path / f"run{duration_s:g}"
            tracemalloc.start()
            try:
                assert main(["stage1", "--config", cfg, "--out", str(out), "-q"]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append((out / "audit.ndjson").stat().st_size)
        log_growth = sizes[2] - sizes[1]
        assert log_growth > 1_500_000
        assert run_peaks[2] - run_peaks[1] < log_growth
        assert peaks[2] - peaks[1] < 1.5 * log_growth

    def test_a_run_that_raises_leaves_every_record_admitted_before_it(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        clean = tmp_path / "clean"
        assert main(["stage1", "--config", tiny_cfg, "--out", str(clean), "-q"]) == EXIT_OK
        admitted = []
        admit, advance_to = AuditLog.admit, Plant.advance_to

        def counted_admit(log, event):
            admit(log, event)
            admitted.append(event)

        def failing_advance_to(plant, t_ns):
            if t_ns >= 1_000_000_000:
                raise ValueError("plant fault")
            advance_to(plant, t_ns)

        monkeypatch.setattr(AuditLog, "admit", counted_admit)
        monkeypatch.setattr(Plant, "advance_to", failing_advance_to)
        torn = tmp_path / "torn"
        assert main(["stage1", "--config", tiny_cfg, "--out", str(torn), "-q"]) == EXIT_CONFIG
        monkeypatch.undo()
        assert capsys.readouterr().err == "error: plant fault\n"

        text = (torn / "audit.ndjson").read_text()
        lines = text.splitlines(keepends=True)
        clean_lines = (clean / "audit.ndjson").read_text().splitlines(keepends=True)
        assert text.endswith("\n")
        assert 0 < len(lines) == len(admitted) < len(clean_lines)
        assert lines == clean_lines[:len(lines)]
        assert '"stage":"RunEnd"' not in text

        replay = tmp_path / "replay"
        assert main(["replay-report", "--log", str(torn / "audit.ndjson"),
                     "--out", str(replay), "-q"]) == EXIT_OK
        report = json.loads((replay / "report.json").read_text())
        assert report["truncated"] and not report["completed"]


class TestIdentifyCommand:
    def test_identify_writes_fit(self, tiny_cfg, tmp_path):
        out = tmp_path / "ident"
        assert main(["identify", "--config", tiny_cfg, "--channel", "velocity",
                     "--out", str(out), "-q"]) == EXIT_OK
        fit = json.loads((out / "fopdt_fit.json").read_text())
        assert fit["r2"] > 0.97
        assert (out / "step_log.csv").exists()


class TestCalibrateCommand:
    def test_calibrate_writes_model_and_metrics(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--epochs", "5", "-q"]) == EXIT_OK
        metrics = json.loads((out / "calibration_metrics.json").read_text())
        assert metrics["n_train"] == 2746 and metrics["n_test"] == 687
        assert set(metrics["metrics"]) == {"raw", "rigid_svd", "affine", "hybrid"}
        assert (out / "model.json").exists()
        assert (out / "dataset.csv").exists()


class TestNumericFlags:
    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--epochs", "0"], "argument --epochs: must be an integer >= 1, not '0'"),
        (["calibrate", "--epochs", "-3"], "argument --epochs: must be an integer >= 1, not '-3'"),
        (["identify", "--channel", "velocity", "--noise-frac", "-1"],
         "argument --noise-frac: must be a finite number >= 0, not '-1'"),
        (["identify", "--channel", "velocity", "--noise-frac", "nan"],
         "argument --noise-frac: must be a finite number >= 0, not 'nan'"),
        (["identify", "--channel", "steering", "--amplitude", "0"],
         "argument --amplitude: must be a finite number other than 0, not '0'"),
        (["identify", "--channel", "steering", "--amplitude", "nan"],
         "argument --amplitude: must be a finite number other than 0, not 'nan'"),
        (["identify", "--channel", "steering", "--amplitude", "inf"],
         "argument --amplitude: must be a finite number other than 0, not 'inf'"),
    ], ids=["epochs-0", "epochs-negative", "noise-frac-negative", "noise-frac-nan",
            "amplitude-0", "amplitude-nan", "amplitude-inf"])
    def test_out_of_range_value_exits_1_naming_the_flag(self, tiny_cfg, tmp_path, capsys, argv,
                                                         message):
        if argv[0] == "identify":
            argv = [*argv, "--config", tiny_cfg]
        assert main([*argv, "--out", str(tmp_path / "run"), "-q"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"error: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestEnvOutDir(object):
    def test_hilbench_out_env(self, tiny_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("HILBENCH_OUT", str(tmp_path / "envout"))
        assert main(["validate-config", "--config", tiny_cfg, "-q"]) == EXIT_OK
        out = tmp_path / "envout" / "x"
        monkeypatch.setenv("HILBENCH_OUT", str(out))
        assert main(["stage1", "--config", tiny_cfg, "-q"]) == EXIT_OK
        assert (out / "report.json").exists()
