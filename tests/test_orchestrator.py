import concurrent.futures
import json
import math
import multiprocessing
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

import numpy as np
import pytest

from hilbench import cli, orchestrator, presets
from hilbench.config import ConfigError, resolve_run_config, resolve_sweep_config
from hilbench.core import (PAYLOAD_SHAPES, AuditLog, AuditOrderError, Stage, TimedEvent,
                           check_payload, json_document, ms_to_ns, rng_stream)
from hilbench.links import sampler
from hilbench.orchestrator import (
    Analyzer,
    Npc,
    Runner,
    build_report,
    replay_report,
    run_stage1,
    run_stage2,
    sweep_point_seed,
)

PIN_DATA = Path(__file__).parent / "data"
SATURATION_PIN_CONFIG = PIN_DATA / "saturation_pin" / "config.json"
#: The audit logs of the golden fixtures of all three stages.
GOLDEN_LOGS = sorted(PIN_DATA.glob("golden_*/**/audit.ndjson"))


def _sleepy_point(point, directory):
    """A stand-in for ``orchestrator._run_point``: point 1 raises at once,
    every other point sleeps, then makes its directory."""
    if point["index"] == 1:
        raise RuntimeError("point 1 fails")
    time.sleep(0.5)
    directory.mkdir()
    return {}


def logged_run(cfg, log):
    """(report, audit lines) of one run that writes its audit log to ``log``."""
    report, _ = run_stage1(cfg, log)
    return report, log.read_text().splitlines()


def oracle_progress(cfg, lines):
    """(unwrapped progress after each logged GtsSample, path length): each
    sample's closest point on the closed config path, found segment by
    segment with numpy, and the arc-length steps between them wrapped to the
    nearest lap."""
    assert cfg["path"]["closed"]
    a = np.asarray(cfg["path"]["vertices"], dtype=float)
    d = np.roll(a, -1, axis=0) - a
    lengths = np.hypot(d[:, 0], d[:, 1])
    s0 = np.concatenate([[0.0], np.cumsum(lengths)[:-1]])
    total = float(lengths.sum())
    progress, last_s = [], None
    for line in lines:
        rec = json.loads(line)
        if rec["stage"] != "GtsSample":
            continue
        p = np.array([rec["payload"]["x"], rec["payload"]["y"]])
        t = np.clip(((p - a) * d).sum(axis=1) / lengths**2, 0.0, 1.0)
        gaps = np.hypot(*(a + t[:, None] * d - p).T)
        i = int(np.argmin(gaps))
        s = s0[i] + t[i] * lengths[i]
        if last_s is None:
            progress.append(0.0)
        else:
            step = s - last_s
            progress.append(progress[-1] + step - total * round(step / total))
        last_s = s
    return progress, total


def small_cfg(**overrides):
    doc = {
        "schema_version": 1,
        "run_id": "t",
        "seed": 7,
        "termination": {"duration_s": 4.0},
        "path": {"preset": "square-sandbox"},
        "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                "latency": {"mode": "constant", "ms": 15.48}},
    }
    doc.update(overrides)
    return resolve_run_config(doc)


class TestScheduler:
    def test_equal_timestamps_fire_in_insertion_order(self):
        runner = Runner(small_cfg())
        seen = []
        runner._schedule(10, lambda t: seen.append("a"))
        runner._schedule(10, lambda t: seen.append("b"))
        runner._schedule(5, lambda t: seen.append("c"))
        while runner.heap:
            t, _, fn, _args = heappop(runner.heap)
            fn(t)
        assert seen == ["c", "a", "b"]

    def test_no_events_terminates_cleanly(self):
        assert len(Runner(small_cfg()).heap) == 0

    def test_run_rejects_a_handler_that_schedules_into_the_past(self):
        # Every handler writes a record of its time (TestEveryEntryWrites), so
        # the entry scheduled 1 ns into the past fails AuditLog.admit.
        runner = Runner(small_cfg())
        fired = []

        def first(t_ns):
            fired.append(t_ns)
            runner._emit(t_ns, Stage.R2vIngestStart, 1)
            runner._schedule(t_ns - 1, runner._emit, Stage.R2vIngestStart, 2)

        runner._on_gts = lambda t_ns: runner._schedule(10, first)
        with pytest.raises(AuditOrderError, match=r"^t_ns 9 earlier than the previous record's 10$"):
            runner.run()
        assert fired == [10]

    def test_run_rejects_a_heap_entry_earlier_than_the_clock(self):
        runner = Runner(small_cfg())
        fired = []

        def first(t_ns):
            fired.append(t_ns)
            runner._emit(t_ns, Stage.R2vIngestStart, 1)
            heappush(runner.heap, (t_ns - 1, -1, runner._emit, (Stage.R2vIngestStart, 2)))

        runner._on_gts = lambda t_ns: runner._schedule(10, first)
        with pytest.raises(AuditOrderError, match=r"^t_ns 9 earlier than the previous record's 10$"):
            runner.run()
        assert fired == [10]

    def test_a_stage_before_the_clock_fails_the_order_check(self):
        # The R2V link of the third cycle ends its ingest 1 ns before the
        # sample that started it: that stage's record fails AuditLog.admit,
        # the run's one order check, naming its time.
        runner = Runner(small_cfg())
        transmit = runner.r2v.transmit
        t_third = 2 * runner.period_ns

        def early_on_the_third_cycle(t_now_ns):
            sched = transmit(t_now_ns)
            if t_now_ns == t_third:
                sched = sched._replace(t_ingest_done=t_now_ns - 1)
            return sched

        runner.r2v.transmit = early_on_the_third_cycle
        with pytest.raises(AuditOrderError, match=f"^t_ns {t_third - 1} earlier than the "
                                                  f"previous record's {t_third}$"):
            runner.run()
        assert runner.gts_count == 3


class TestEveryEntryWrites:
    """Every heap entry a run pops appends at least one record stamped with
    the entry's time.  This is why the run loop needs no order check of its
    own: an entry that fired before the clock would fail ``AuditLog.admit``."""

    @staticmethod
    def assert_every_entry_writes(cfg):
        runner = Runner(cfg)
        stamps = []
        append = runner.audit.append

        def stamping_append(event, body=None):
            append(event, body)
            stamps.append(event.t_ns)

        schedule = runner._schedule
        fired = []

        def schedule_checked(t_ns, handler, *args):
            def checked(t, *a):
                n = len(stamps)
                handler(t, *a)
                assert t in stamps[n:], f"{handler.__name__} at {t} appended no record of its time"
                fired.append(handler.__name__)

            schedule(t_ns, checked, *args)

        runner.audit.append = stamping_append
        runner._schedule = schedule_checked
        report = runner.run()
        assert not report["aborted"] and runner.heap == []
        return fired

    def test_stage3(self):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 8.0}
        fired = self.assert_every_entry_writes(resolve_run_config(doc))
        assert {"_on_gts", "_emit", "_on_sense_done", "_on_sut_in", "_on_sut_out",
                "_on_actuator"} == set(fired)

    def test_perturbed_stage2_point(self):
        doc = presets.load("stage2-cliff-sweep")
        doc["base"]["termination"] = {"duration_s": 8.0}
        doc["base"]["links"]["v2r"]["perturbation"] = {
            "jitter": {"kind": "gaussian_truncated", "mean_ms": 4.0, "std_ms": 12.0},
            "loss_probability": 0.05,
        }
        point = resolve_sweep_config(doc)["base"]
        point["links"]["v2r"]["perturbation"]["fixed_delay_ms"] = 40.0
        fired = self.assert_every_entry_writes(point)
        assert fired.count("_on_gts") == 400


class TestStage1:
    def test_default_run_completes_and_is_audited(self):
        report, _ = run_stage1(small_cfg())
        assert report["completed"]
        assert report["cycles"]["gts_samples"] == 200
        assert report["completeness"]["fraction"] == 1.0
        assert report["cycles"]["latency_records"] == 200

    def test_determinism_byte_identical_logs(self, tmp_path):
        cfg = small_cfg()
        _, lines1 = logged_run(cfg, tmp_path / "a.ndjson")
        _, lines2 = logged_run(cfg, tmp_path / "b.ndjson")
        assert lines1 == lines2

    def test_each_random_stream_label_is_requested_once(self, monkeypatch):
        # A label requested twice would get a second generator that replays
        # the first one's draws, correlating two noise sources.
        labels = []

        def recording_stream(seed, label):
            labels.append(label)
            return rng_stream(seed, label)

        monkeypatch.setattr(orchestrator, "rng_stream", recording_stream)
        Runner(small_cfg())
        assert sorted(labels) == sorted([
            "plant.deadtime", "sut.lat", "r2v.ingest", "r2v.adv", "r2v.sense", "v2r.base",
            "perturb.loss", "perturb.jitter",
        ])

    def test_identical_reports(self):
        cfg = small_cfg()
        rep1, _ = run_stage1(cfg)
        rep2, _ = run_stage1(cfg)
        assert json_document(rep1) == json_document(rep2)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(termination={"duration_s": 0.0})

    def test_watchdog_aborts_slow_sut(self):
        cfg = small_cfg(sut={"name": "pure-pursuit", "goal_speed_mps": 0.3,
                             "latency": {"mode": "constant", "ms": 500.0}})
        report, _ = run_stage1(cfg)
        assert report["aborted"]
        assert not report["completed"]
        assert "watchdog" in report["abort_reason"]

    @pytest.mark.parametrize("latency", [
        {"mode": "constant", "ms": 15.48},
        {"mode": "bimodal", "components": [
            {"mean_ms": 10.0, "std_ms": 2.0, "weight": 0.6},
            {"mean_ms": 28.0, "std_ms": 3.0, "weight": 0.4},
        ]},
    ])
    def test_runner_draws_the_controller_latency(self, tmp_path, latency):
        # Each command leaves the controller one ``sut.lat`` draw after its
        # SutCmdIn, the draws taken in SutCmdIn order, which is the order
        # ``t_in`` is filled in from the time-ordered log.
        cfg = small_cfg(termination={"duration_s": 1.0},
                        sut={"name": "pure-pursuit", "goal_speed_mps": 0.3, "latency": latency})
        _, lines = logged_run(cfg, tmp_path / "audit.ndjson")
        t_in, t_out = {}, {}
        for line in lines:
            rec = json.loads(line)
            if rec["stage"] in ("SutCmdIn", "SutCmdOut"):
                (t_in if rec["stage"] == "SutCmdIn" else t_out)[rec["cid"]] = rec["t_ns"]
        assert len(t_in) == len(t_out) == 50
        sample_ms = sampler(cfg["sut"]["latency"], kind_key="mode")
        rng = rng_stream(cfg["seed"], "sut.lat")
        latencies = [t_out[cid] - t_in[cid] for cid in t_in]
        assert latencies == [ms_to_ns(sample_ms(rng)) for _ in latencies]
        if latency["mode"] == "constant":
            assert set(latencies) == {15_480_000}
        else:
            assert len(set(latencies)) == len(latencies)

    def test_non_finite_setpoint_aborts_the_run(self):
        runner = Runner(small_cfg())
        runner.goal_speed = math.nan  # the controller's speed setpoint turns NaN
        report = runner.run()
        assert report["aborted"] and not report["completed"]
        assert runner.abort_reason == "sut raised: command setpoints must be finite"
        assert report["abort_reason"] == runner.abort_reason

    def test_dropped_commands_accounted(self):
        cfg = small_cfg(links={"v2r": {"perturbation": {"loss_probability": 0.5}}})
        report, _ = run_stage1(cfg)
        c = report["cycles"]
        assert c["v2r_dropped"] > 0
        assert c["v2r_sent"] == c["v2r_delivered"] + c["v2r_dropped"]
        assert report["completeness"]["fraction"] == 1.0  # complete cycles still consistent

    def test_audit_globally_time_ordered(self, tmp_path):
        _, lines = logged_run(small_cfg(), tmp_path / "audit.ndjson")
        times = [json.loads(line)["t_ns"] for line in lines]
        assert times == sorted(times)

    def test_laps_termination(self, tmp_path):
        # The run stops on the first sample whose unwrapped progress reaches
        # the target: not one sample before, and not one after.
        cfg = small_cfg(termination={"laps": 1, "max_duration_s": 120.0})
        report, lines = logged_run(cfg, tmp_path / "laps.ndjson")
        progress, total_length = oracle_progress(cfg, lines)
        target = 1 * total_length
        assert progress[-2] < target <= progress[-1]
        assert report["completed"]
        assert report["cycles"]["gts_samples"] == len(progress)
        assert report["progress_m"] == pytest.approx(progress[-1], abs=1e-9)

    def test_laps_termination_at_the_duration_cap(self, tmp_path):
        cfg = small_cfg(termination={"laps": 3, "max_duration_s": 10.0})
        report, lines = logged_run(cfg, tmp_path / "cap.ndjson")
        progress, total_length = oracle_progress(cfg, lines)
        assert not report["completed"]
        assert report["progress_m"] == pytest.approx(progress[-1], abs=1e-9)
        assert report["progress_m"] < 3 * total_length
        period_s = cfg["gts"]["sample_period_ms"] / 1e3
        assert report["cycles"]["gts_samples"] == round(10.0 / period_s) == len(progress)

    def test_shipped_default_baseline(self):
        # Frozen after first calibration: the shipped default run stays
        # comfortably inside a 0.1 m mean cross-track error.
        report, _ = run_stage1(resolve_run_config(presets.load("stage1-default")))
        assert report["completed"]
        assert report["cte"]["mean"] < 0.1


class TestReplay:
    def test_replay_reproduces_report_bit_exactly(self, tmp_path):
        cfg = small_cfg()
        log = tmp_path / "audit.ndjson"
        report, _ = run_stage1(cfg, log)
        replayed = replay_report(log)[0]
        assert json_document(replayed) == json_document(report)

    def test_truncated_log_flagged_with_gaps(self, tmp_path):
        cfg = small_cfg()
        _, lines = logged_run(cfg, tmp_path / "full.ndjson")
        log = tmp_path / "audit.ndjson"
        (log).write_text("\n".join(lines[: int(len(lines) * 0.6)]) + "\n")
        partial = replay_report(log)[0]
        assert partial["truncated"]
        assert not partial["completed"]
        assert partial["cycles"]["incomplete"]

    def test_empty_log_rejected(self, tmp_path):
        log = tmp_path / "audit.ndjson"
        log.write_text("")
        with pytest.raises(ValueError):
            replay_report(log)

    def test_a_run_that_ends_before_its_first_delivery_has_no_latency_row(self, tmp_path):
        # The watchdog aborts the first cycle before its command leaves the
        # controller, so no cycle reaches V2rDeliver and the fold assembles
        # no latency row, live or replayed.
        cfg = small_cfg(sut={"name": "pure-pursuit", "goal_speed_mps": 0.3,
                             "latency": {"mode": "constant", "ms": 500.0}})
        log = tmp_path / "audit.ndjson"
        report, _ = run_stage1(cfg, log)
        assert report["cycles"]["latency_records"] == report["cycles"]["v2r_delivered"] == 0
        assert report["cycles"]["incomplete"] == {"1": "SutCmdOut", "2": "R2vAdvDone"}
        assert set(report["latency_ms"].values()) == {None}
        assert json_document(replay_report(log)[0]) == json_document(report)

    def test_a_log_without_its_header_is_rejected_at_line_1(self, tmp_path):
        _, lines = logged_run(small_cfg(termination={"duration_s": 0.2}), tmp_path / "full.ndjson")
        log = tmp_path / "audit.ndjson"
        log.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(ValueError, match="line 1: audit log does not start with a run header"):
            replay_report(log)

    def test_blank_lines_are_skipped(self, tmp_path):
        report, lines = logged_run(small_cfg(termination={"duration_s": 0.2}),
                                   tmp_path / "full.ndjson")
        log = tmp_path / "audit.ndjson"
        log.write_text("\n" + "\n\n".join(lines) + "\n\n")
        assert json_document(replay_report(log)[0]) == json_document(report)

    def test_replay_sees_drop_conservation(self, tmp_path):
        cfg = small_cfg(links={"v2r": {"perturbation": {"loss_probability": 0.2}}})
        log = tmp_path / "audit.ndjson"
        report, _ = run_stage1(cfg, log)
        replayed = replay_report(log)[0]
        assert replayed["cycles"]["v2r_dropped"] == report["cycles"]["v2r_dropped"] > 0


class TestStage2:
    def test_single_zero_delay_row_equals_stage1_with_derived_seed(self, tmp_path):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 11,
            "termination": {"duration_s": 3.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        sweep = resolve_sweep_config({"injected_delays_ms": [0], "base": base})
        rows, _artifacts = run_stage2(sweep, tmp_path)
        solo = dict(base)
        solo["seed"] = sweep_point_seed(11, 0.0, 0)
        solo["run_id"] = "s-d0ms-r0"
        ref, _ = run_stage1(resolve_run_config(solo))
        assert rows[0]["cte_rmse_m"] == ref["cte"]["rmse"]
        assert (tmp_path / "delay_0ms_rep0" / "report.json").read_text() == json_document(ref)

    def test_membership_independence(self, tmp_path):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 13,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        a, b = tmp_path / "a", tmp_path / "b"
        rows_a, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 20], "base": base}), a)
        rows_b, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 10, 20, 40], "base": base}), b)
        by_delay_b = {r["delay_ms"]: r for r in rows_b}
        for row in rows_a:
            assert row == by_delay_b[row["delay_ms"]]
        for point in ("delay_0ms_rep0", "delay_20ms_rep0"):
            for name in ("audit.ndjson", "report.json"):
                assert (a / point / name).read_bytes() == (b / point / name).read_bytes()

    def test_rows_sorted_and_csv_format(self, tmp_path):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 3,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        rows, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 10], "base": base}), tmp_path)
        assert [r["delay_ms"] for r in rows] == [0.0, 10.0]
        lines = (tmp_path / "response_curve.csv").read_text().strip().splitlines()
        assert lines[0] == "delay_ms,cte_rmse_m,cte_mean_m,cte_p95_m,distance_m,completed"
        assert len(lines) == 3

    def test_unsorted_delays_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sweep_config({"injected_delays_ms": [10, 0], "base": {}})

    @staticmethod
    def short_perturbed_sweep() -> dict:
        """3 delays x 2 repetitions of 4 s, with command jitter and loss."""
        doc = presets.load("stage2-cliff-sweep")
        doc["injected_delays_ms"] = [0, 20, 60]
        doc["repetitions"] = 2
        doc["base"]["termination"] = {"duration_s": 4.0}
        doc["base"]["links"]["v2r"]["perturbation"] = {
            "jitter": {"kind": "gaussian_truncated", "mean_ms": 4.0, "std_ms": 12.0},
            "loss_probability": 0.05,
        }
        return doc

    @pytest.fixture
    def pools(self, monkeypatch):
        """The worker count of each process pool made, with two usable CPUs."""
        made = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, mp_context):
                made.append((workers, mp_context.get_start_method()))
                super().__init__(workers, mp_context=mp_context)

        monkeypatch.setattr(orchestrator, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        return made

    @staticmethod
    def in_process(fn, *args):
        """``fn(*args)`` under a no-op profile hook, which keeps a sweep in
        this process."""
        sys.setprofile(lambda frame, event, arg: None)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    @staticmethod
    def files(out):
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    @pytest.mark.skipif(sys.gettrace() is not None, reason="a trace hook keeps the sweep in-process")
    def test_pool_writes_the_bytes_of_the_in_process_sweep(self, tmp_path, pools):
        sweep = resolve_sweep_config(self.short_perturbed_sweep())
        pooled = run_stage2(sweep, tmp_path / "pool")
        assert pools == [(2, "fork")]
        assert multiprocessing.active_children() == []
        serial = self.in_process(run_stage2, sweep, tmp_path / "serial")
        assert pools == [(2, "fork")]
        assert pooled == serial
        files = self.files(tmp_path / "pool")
        assert len(files) == 3 * 2 * 2 + 1
        assert files == self.files(tmp_path / "serial")
        assert b'"dropped":true' in files["delay_60ms_rep1/audit.ndjson"]

    @pytest.mark.skipif(sys.gettrace() is not None, reason="a trace hook keeps the sweep in-process")
    def test_a_failing_point_fails_the_same_way_pooled_and_in_process(self, tmp_path, capsys,
                                                                     pools):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(self.short_perturbed_sweep()))
        out = tmp_path / "out"
        out.mkdir()
        (out / "delay_20ms_rep0").write_text("not a directory\n")
        argv = ["stage2", "--config", str(config), "--out", str(out), "-q"]
        errors = []
        for run in (cli.main, lambda argv: self.in_process(cli.main, argv)):
            assert run(argv) == cli.EXIT_CONFIG
            errors.append(capsys.readouterr().err)
            assert not (out / "manifest.json").exists()
            assert multiprocessing.active_children() == []
        assert pools == [(2, "fork")]
        assert errors[0] == errors[1] == (
            f"error: [Errno 17] File exists: '{out / 'delay_20ms_rep0'}'\n")


    @pytest.mark.skipif(sys.gettrace() is not None, reason="a trace hook keeps the sweep in-process")
    def test_a_failing_point_starts_no_point_left_in_the_queue(self, tmp_path, monkeypatch, pools):
        # Two workers; point 1 fails at once while the others sleep, so no
        # worker is free to take points 6 and 7 before the failure is seen.
        monkeypatch.setattr(orchestrator, "_run_point", _sleepy_point)
        points = [{"index": i} for i in range(8)]
        directories = [tmp_path / f"p{i}" for i in range(8)]
        with pytest.raises(RuntimeError, match="^point 1 fails$"):
            orchestrator._run_points(points, directories)
        assert pools == [(2, "fork")]
        assert multiprocessing.active_children() == []
        started = [i for i, d in enumerate(directories) if d.exists()]
        assert 0 in started and 1 not in started
        assert 6 not in started and 7 not in started

class TestStage3:
    def test_requires_scenario(self, tmp_path, capsys):
        # The ``stage3`` command checks for the scenario before it runs.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 7, "termination": {"duration_s": 1.0},
                                   "path": {"preset": "square-sandbox"}}))
        out = tmp_path / "s3"
        assert cli.main(["stage3", "--config", str(cfg), "--out", str(out), "-q"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: scenario: ")
        assert not out.exists()

    def test_empty_npc_list_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(scenario={"trigger_zone": [0, 0, 1, 1], "npcs": []})

    def test_npc_spawn_must_match_route_start(self):
        with pytest.raises(ConfigError):
            small_cfg(scenario={"trigger_zone": [0, 0, 1, 1], "npcs": [{
                "id": "n", "spawn": [5.0, 5.0, 0.0],
                "route": {"closed": False, "vertices": [[0, 0], [1, 0]]},
                "speed": {"accel_mps2": 0.5, "cruise_mps": 0.3}, "radius_m": 0.1}]})

    @pytest.mark.parametrize("edit, path, message", [
        (lambda s: s.update(trigger_zone=[1.6, 0.4, 1.0, 1.0]), "scenario.trigger_zone",
         "must satisfy x0 < x1 and y0 < y1"),
        (lambda s: s["npcs"][0].update(id="ego"), "scenario.npcs[0].id",
         "duplicate or reserved agent id 'ego'"),
        (lambda s: s["npcs"][2].update(id=s["npcs"][1]["id"]), "scenario.npcs[2].id",
         "duplicate or reserved agent id 'npc2'"),
    ], ids=["trigger-zone-order", "reserved-id", "duplicate-id"])
    def test_scenario_rules_fail_at_their_path(self, edit, path, message):
        scenario = presets.load("stage3-intersection")["scenario"]
        edit(scenario)
        with pytest.raises(ConfigError) as exc:
            small_cfg(scenario=scenario)
        assert (exc.value.path, exc.value.message) == (path, message)

    def test_never_triggered_scenario_sees_no_agents(self):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 0.5}  # ends before the zone
        doc["scenario"]["trigger_zone"] = [3.9, 3.9, 4.1, 4.1]  # unreachable
        report, _ = run_stage1(resolve_run_config(doc))
        assert report["safety"]["triggered"] is False
        assert report["safety"]["d_min_m"] is None  # +inf serialized as null

    def test_trigger_activates_npcs(self):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 8.0}
        report, _ = run_stage1(resolve_run_config(doc))
        assert report["safety"]["triggered"] is True
        assert report["safety"]["n_frames"] == 400

    def test_npc_trapezoid_kinematics(self):
        spec = {
            "id": "n", "spawn": [0.0, 0.0, 0.0],
            "route": {"closed": False, "vertices": [[0.0, 0.0], [3.0, 0.0]]},
            "speed": {"accel_mps2": 0.5, "cruise_mps": 0.5, "decel_mps2": 0.5},
            "radius_m": 0.1,
        }
        npc = Npc(spec)
        a = npc.state_at(int(0.5e9), 0)
        assert a.vx == pytest.approx(0.25)  # accelerating
        mid = npc.state_at(int(3.0e9), 0)
        assert mid.vx == pytest.approx(0.5)  # cruising
        end = npc.state_at(int(60e9), 0)
        assert end.vx == 0.0 and end.x == pytest.approx(3.0)  # stopped at route end

    def test_detections_equal_fresh_npc_states(self, tmp_path):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 8.0}
        doc["report"]["sensing_range_m"] = 50.0  # every active NPC is detected
        runner = Runner(resolve_run_config(doc))

        def fresh(t_ns):
            return tuple(npc.state_at(t_ns, runner.activation_t_ns) for npc in runner.npcs)

        checked = []
        on_sense_done = runner._on_sense_done

        def checking_sense_done(t_ns, cid, pose):
            on_sense_done(t_ns, cid, pose)
            if runner.activation_t_ns is not None and len(checked) < 2:
                # The controller step at this instant sees the states this
                # sense event computed.
                assert runner._detections() == fresh(t_ns)
                assert len(fresh(t_ns)) == len(runner.npcs)
                checked.append(t_ns)

        runner._on_sense_done = checking_sense_done
        log = tmp_path / "audit.ndjson"
        with runner.audit.write_ndjson(log):
            runner.run()
        assert len(checked) == 2 and checked[0] == runner.activation_t_ns
        # A sense record before the activation carries no NPC field; every
        # later one carries all five fields of every NPC.
        every_npc_key = {key for npc in runner.npcs for key in npc.keys}
        before = after = 0
        for line in log.read_text().splitlines():
            ev = TimedEvent.from_json(line)
            if ev.stage is Stage.R2vSenseDone:
                npc_fields = {key for key in ev.payload if key.startswith("npc_")}
                if ev.t_ns < runner.activation_t_ns:
                    assert npc_fields == set()
                    before += 1
                else:
                    assert npc_fields == every_npc_key
                    after += 1
        assert before > 0 and after > 0 and len(every_npc_key) == 5 * len(runner.npcs)

    def test_closed_route_loops(self):
        spec = {
            "id": "n", "spawn": [0.0, 0.0, 0.0],
            "route": {"closed": True, "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]},
            "speed": {"accel_mps2": 1.0, "cruise_mps": 0.5, "decel_mps2": 1.0},
            "radius_m": 0.1,
        }
        npc = Npc(spec)
        late = npc.state_at(int(100e9), 0)
        assert math.hypot(late.vx, late.vy) == pytest.approx(0.5)  # still cruising


class TestReportContent:
    def test_header_echoes_resolved_config(self, tmp_path):
        cfg = small_cfg()
        _, lines = logged_run(cfg, tmp_path / "audit.ndjson")
        header = TimedEvent.from_json(lines[0])
        assert header.stage is Stage.RunHeader
        echoed = json.loads(header.payload["config_json"])
        assert echoed == cfg

    def test_report_recomputable_from_events_alone(self, tmp_path):
        cfg = small_cfg()
        log = tmp_path / "audit.ndjson"
        report, _ = run_stage1(cfg, log)
        fold = Analyzer()
        AuditLog.read_ndjson(log, fold)
        rebuilt = build_report(fold)
        assert json_document(rebuilt) == json_document(report)

    def test_latency_components_present(self):
        report, _ = run_stage1(small_cfg())
        for comp in ("r2v", "ingest", "adv", "sense", "v2r", "sut", "platform", "total"):
            assert report["latency_ms"][comp] is not None
        assert report["latency_ms"]["sut"]["mean_ms"] == pytest.approx(15.48)


class TestEveryLineReencodes:
    """A run writes its most frequent payloads from fixed-shape texts, not
    through the encoder: every line must still be the encoding of its record,
    both as read back and as the analysis fold was fed it.  Every line of
    every pin must also fit the table of payload shapes that replay checks
    (``core.PAYLOAD_SHAPES``)."""

    @pytest.fixture
    def fed(self, monkeypatch):
        records = []
        feed = Analyzer.feed

        def keeping_feed(fold, ev):
            records.append(ev)
            feed(fold, ev)

        monkeypatch.setattr(Analyzer, "feed", keeping_feed)
        return records

    @staticmethod
    def assert_lines_fit_the_table(lines):
        """Check each line against the table; return the ``{(stage, sorted
        payload keys)}`` of the lines, with each NPC's keys as one ``npc``."""
        known, shapes = {}, set()
        for line in lines:
            ev = TimedEvent.from_json(line)
            check_payload(ev, known)
            keys = sorted(key for key in ev.payload if not key.startswith("npc_"))
            shapes.add((ev.stage, tuple(keys) + (("npc",) if len(keys) < len(ev.payload) else ())))
        return shapes

    @classmethod
    def assert_lines_reencode(cls, lines, fed):
        assert [ev.to_json() for ev in fed] == lines
        for line in lines:
            assert TimedEvent.from_json(line).to_json() == line
        cls.assert_lines_fit_the_table(lines)

    @pytest.mark.parametrize("path", GOLDEN_LOGS, ids=lambda p: p.parent.name)
    def test_every_golden_line_fits_the_table(self, path):
        shapes = self.assert_lines_fit_the_table(path.read_text().splitlines())
        # Each stage has its table's fields, with or without its flags, and
        # a sense record of the stage-3 log carries the NPCs or none.
        assert {stage for stage, _keys in shapes} == set(Stage)
        for stage, keys in shapes:
            fields, flags = PAYLOAD_SHAPES[stage]
            assert set(keys) - set(flags) - {"npc"} == set(fields)
        assert ((Stage.R2vSenseDone, ("heading", "stale", "v", "x", "y", "npc")) in shapes) == \
            (path.parent.name == "golden_stage3")

    @pytest.mark.parametrize("name", ["echo_pin", "laps_pin", "scenario_pin"])
    def test_every_line_of_a_pinned_run_fits_the_table(self, tmp_path, name, fed):
        cfg = resolve_run_config(json.loads((PIN_DATA / name / "config.json").read_text()))
        _, lines = logged_run(cfg, tmp_path / "audit.ndjson")
        self.assert_lines_reencode(lines, fed)

    def test_perturbed_stage2_point(self, tmp_path, fed):
        doc = presets.load("stage2-cliff-sweep")
        doc["injected_delays_ms"] = [40]
        doc["base"]["termination"] = {"duration_s": 8.0}
        doc["base"]["links"]["v2r"]["perturbation"] = {
            "jitter": {"kind": "gaussian_truncated", "mean_ms": 4.0, "std_ms": 12.0},
            "loss_probability": 0.05,
        }
        run_stage2(resolve_sweep_config(doc), tmp_path)
        text = (tmp_path / "delay_40ms_rep0" / "audit.ndjson").read_text()
        for seen in ('"dropped":true', '"fifo_clamped":true', '"steer_limited":true'):
            assert seen in text
        self.assert_lines_reencode(text.splitlines(), fed)

    def test_stage3(self, tmp_path, fed):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 8.0}
        _, lines = logged_run(resolve_run_config(doc), tmp_path / "audit.ndjson")
        text = "\n".join(lines)
        for seen in ('"stale":true', '"stale":false', '"npc_'):
            assert seen in text
        self.assert_lines_reencode(lines, fed)

    def test_saturated_actuators(self, tmp_path, fed):
        # The saturation pin commands more than the speed and steering limits
        # and both command maps, so its ActuatorApply lines carry every flag.
        cfg = resolve_run_config(json.loads(SATURATION_PIN_CONFIG.read_text()))
        _, lines = logged_run(cfg, tmp_path / "audit.ndjson")
        text = "\n".join(lines)
        for flag in ("speed_limited", "speed_map_clamped", "steer_limited", "steer_map_clamped"):
            assert f'"{flag}":true' in text
        self.assert_lines_reencode(lines, fed)
