import json
import math
from heapq import heappop, heappush

import pytest

from hilbench import cli, presets
from hilbench.config import ConfigError, resolve_run_config, resolve_sweep_config
from hilbench.core import AuditLog, Stage, TimedEvent
from hilbench.orchestrator import (
    Analyzer,
    Npc,
    Runner,
    SchedulerCorruptionError,
    build_report,
    replay_report,
    report_to_json,
    run_stage1,
    run_stage2,
    sweep_point_seed,
    write_response_curve,
)


def logged_run(cfg, log):
    """(report, audit lines) of one run that writes its audit log to ``log``."""
    report, _ = run_stage1(cfg, log)
    return report, log.read_text().splitlines()


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

    def test_scheduling_in_the_past_is_fatal(self):
        runner = Runner(small_cfg())
        runner.clock.now_ns = 10
        with pytest.raises(SchedulerCorruptionError):
            runner._schedule(5, lambda t: None)

    def test_no_events_terminates_cleanly(self):
        assert len(Runner(small_cfg()).heap) == 0

    def test_run_rejects_a_handler_that_schedules_into_the_past(self):
        runner = Runner(small_cfg())
        fired = []

        def first(t_ns):
            fired.append(t_ns)
            runner._schedule(t_ns - 1, lambda t: fired.append(t))

        runner._on_gts = lambda t_ns: runner._schedule(10, first)
        with pytest.raises(SchedulerCorruptionError, match=r"scheduled in the past \(9 < 10\)"):
            runner.run()
        assert fired == [10]

    def test_run_rejects_a_heap_entry_earlier_than_the_clock(self):
        runner = Runner(small_cfg())
        fired = []

        def first(t_ns):
            fired.append(t_ns)
            heappush(runner.heap, (t_ns - 1, -1, lambda t: fired.append(t), ()))

        runner._on_gts = lambda t_ns: runner._schedule(10, first)
        with pytest.raises(SchedulerCorruptionError, match="popped event at 9 before clock 10"):
            runner.run()
        assert fired == [10]


class TestStage1:
    def test_default_run_completes_and_is_audited(self):
        report, runner = run_stage1(small_cfg())
        assert report["completed"]
        assert report["cycles"]["gts_samples"] == 200
        assert report["completeness"]["fraction"] == 1.0
        assert report["cycles"]["latency_records"] == 200

    def test_determinism_byte_identical_logs(self, tmp_path):
        cfg = small_cfg()
        _, lines1 = logged_run(cfg, tmp_path / "a.ndjson")
        _, lines2 = logged_run(cfg, tmp_path / "b.ndjson")
        assert lines1 == lines2

    def test_identical_reports(self):
        cfg = small_cfg()
        rep1, _ = run_stage1(cfg)
        rep2, _ = run_stage1(cfg)
        assert report_to_json(rep1) == report_to_json(rep2)

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

    def test_laps_termination(self):
        cfg = small_cfg(termination={"laps": 1, "max_duration_s": 120.0})
        report, _ = run_stage1(cfg)
        assert report["completed"]
        assert report["progress_m"] >= 11.2  # one lap of the sandbox square

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
        replayed = replay_report(log)
        assert report_to_json(replayed) == report_to_json(report)

    def test_truncated_log_flagged_with_gaps(self, tmp_path):
        cfg = small_cfg()
        _, lines = logged_run(cfg, tmp_path / "full.ndjson")
        log = tmp_path / "audit.ndjson"
        (log).write_text("\n".join(lines[: int(len(lines) * 0.6)]) + "\n")
        partial = replay_report(log)
        assert partial["truncated"]
        assert not partial["completed"]
        assert partial["cycles"]["incomplete"]

    def test_empty_log_rejected(self, tmp_path):
        log = tmp_path / "audit.ndjson"
        log.write_text("")
        with pytest.raises(ValueError):
            replay_report(log)

    def test_replay_sees_drop_conservation(self, tmp_path):
        cfg = small_cfg(links={"v2r": {"perturbation": {"loss_probability": 0.2}}})
        log = tmp_path / "audit.ndjson"
        report, _ = run_stage1(cfg, log)
        replayed = replay_report(log)
        assert replayed["cycles"]["v2r_dropped"] == report["cycles"]["v2r_dropped"] > 0


class TestStage2:
    def test_single_zero_delay_row_equals_stage1_with_derived_seed(self):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 11,
            "termination": {"duration_s": 3.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        sweep = resolve_sweep_config({"injected_delays_ms": [0], "base": base})
        rows, reports = run_stage2(sweep)
        solo = dict(base)
        solo["seed"] = sweep_point_seed(11, 0.0, 0)
        solo["run_id"] = "s-d0ms-r0"
        ref, _ = run_stage1(resolve_run_config(solo))
        assert rows[0]["cte_rmse_m"] == ref["cte"]["rmse"]
        assert report_to_json(reports[0][0]) == report_to_json(ref)

    def test_membership_independence(self):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 13,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        rows_a, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 20], "base": base}))
        rows_b, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 10, 20, 40], "base": base}))
        by_delay_b = {r["delay_ms"]: r for r in rows_b}
        for row in rows_a:
            assert row == by_delay_b[row["delay_ms"]]

    def test_rows_sorted_and_csv_format(self, tmp_path):
        base = {
            "schema_version": 1, "run_id": "s", "seed": 3,
            "termination": {"duration_s": 2.0},
            "path": {"preset": "square-sandbox"},
            "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                    "latency": {"mode": "constant", "ms": 15.48}},
        }
        rows, _ = run_stage2(resolve_sweep_config(
            {"injected_delays_ms": [0, 10], "base": base}))
        out = tmp_path / "curve.csv"
        write_response_curve(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delay_ms,cte_rmse_m,cte_mean_m,cte_p95_m,distance_m,completed"
        assert len(lines) == 3

    def test_unsorted_delays_rejected(self):
        with pytest.raises(ConfigError):
            resolve_sweep_config({"injected_delays_ms": [10, 0], "base": {}})


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
        assert npc.state_at(0) is None  # dormant
        npc.activate(0)
        a = npc.state_at(int(0.5e9))
        assert a.vx == pytest.approx(0.25)  # accelerating
        mid = npc.state_at(int(3.0e9))
        assert mid.vx == pytest.approx(0.5)  # cruising
        end = npc.state_at(int(60e9))
        assert end.vx == 0.0 and end.x == pytest.approx(3.0)  # stopped at route end

    def test_detections_equal_fresh_npc_states(self):
        doc = presets.load("stage3-intersection")
        doc["termination"] = {"duration_s": 8.0}
        doc["report"]["sensing_range_m"] = 50.0  # every active NPC is detected
        runner = Runner(resolve_run_config(doc))

        def fresh(t_ns):
            return tuple(a for a in (npc.state_at(t_ns) for npc in runner.npcs) if a is not None)

        checked = []
        on_sense_done = runner._on_sense_done

        def checking_sense_done(t_ns, cid, pose):
            on_sense_done(t_ns, cid, pose)
            if runner.scenario_triggered and len(checked) < 2:
                # At this sense event (cached states) and one period later
                # (recomputed ones).
                for t in (t_ns, t_ns + runner.period_ns):
                    assert runner._detections(t) == fresh(t)
                    assert len(fresh(t)) == len(runner.npcs)
                checked.append(t_ns)

        runner._on_sense_done = checking_sense_done
        runner.run()
        assert len(checked) == 2 and checked[0] == runner.npcs[0].activation_t_ns

    def test_closed_route_loops(self):
        spec = {
            "id": "n", "spawn": [0.0, 0.0, 0.0],
            "route": {"closed": True, "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]},
            "speed": {"accel_mps2": 1.0, "cruise_mps": 0.5, "decel_mps2": 1.0},
            "radius_m": 0.1,
        }
        npc = Npc(spec)
        npc.activate(0)
        late = npc.state_at(int(100e9))
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
        assert report_to_json(rebuilt) == report_to_json(report)

    def test_latency_components_present(self):
        report, _ = run_stage1(small_cfg())
        for comp in ("r2v", "ingest", "adv", "sense", "v2r", "sut", "platform", "total"):
            assert report["latency_ms"][comp] is not None
        assert report["latency_ms"]["sut"]["mean_ms"] == pytest.approx(15.48)
