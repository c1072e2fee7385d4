"""Regression pins against the stored golden fixture.

The fixture was produced by a 1 s run of the shipped square-sandbox config
(seed 20240808).  Replaying its audit log must reproduce the stored report
byte for byte, and re-running the same config must reproduce the stored log
byte for byte.  A failure here means behavior changed in a way that breaks
reproducibility of previously recorded experiments.
"""

import json
import re
from pathlib import Path

import pytest

from hilbench.cli import EXIT_CONFIG, EXIT_OK, main
from hilbench.config import resolve_run_config
from hilbench.orchestrator import replay_report, report_to_json, run_stage1

DATA = Path(__file__).parent / "data" / "golden_stage1"

GOLDEN_CONFIG = {
    "schema_version": 1,
    "run_id": "golden-stage1",
    "seed": 20240808,
    "termination": {"duration_s": 1.0},
    "path": {"preset": "square-sandbox"},
    "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
            "latency": {"mode": "constant", "ms": 15.48}},
}


def test_replay_of_stored_log_matches_stored_report():
    replayed = replay_report(DATA / "audit.ndjson")
    assert report_to_json(replayed) == (DATA / "report.json").read_text()


def test_rerun_reproduces_stored_log_bytes(tmp_path):
    _, runner = run_stage1(resolve_run_config(GOLDEN_CONFIG))
    out = tmp_path / "audit.ndjson"
    runner.ctx.audit.write_ndjson(out)
    assert out.read_bytes() == (DATA / "audit.ndjson").read_bytes()


def test_stored_report_sanity():
    report = json.loads((DATA / "report.json").read_text())
    assert report["completed"]
    assert report["cycles"]["gts_samples"] == 50
    assert report["completeness"]["fraction"] == 1.0


def _golden_lines() -> list[str]:
    return (DATA / "audit.ndjson").read_text().splitlines(keepends=True)


def test_replay_rejects_a_changed_run_id_naming_the_line(tmp_path):
    lines = _golden_lines()
    lines[200] = lines[200].replace('"run_id":"golden-stage1"', '"run_id":"golden-stage1x"')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match="line 201: .*run_id 'golden-stage1x'"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG


@pytest.mark.parametrize("first, message", [
    # cid 1's R2vSenseDone and SutCmdIn share a timestamp: only the chain
    # order breaks.
    (9, "line 10: cid 1: stage R2vSenseDone after SutCmdIn violates chain order"),
    # cid 1's R2vAdvDone and cid 2's GtsSample: only the time order breaks.
    (5, "line 6: t_ns 15232362 earlier than the previous record's 20000000"),
])
def test_replay_rejects_swapped_records_naming_the_line(tmp_path, first, message):
    lines = _golden_lines()
    lines[first - 1], lines[first] = lines[first], lines[first - 1]
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=message):
        replay_report(log)


@pytest.mark.parametrize("keep_lines", [551, 300])
def test_replay_drops_a_torn_final_line_and_reports_truncation(tmp_path, keep_lines):
    lines = _golden_lines()
    torn = lines[keep_lines][: len(lines[keep_lines]) // 2]
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines[:keep_lines]) + torn)
    report = replay_report(log)
    assert report["truncated"] and not report["completed"]
    complete = tmp_path / "complete.ndjson"
    complete.write_text("".join(lines[:keep_lines]))
    assert report_to_json(report) == report_to_json(replay_report(complete))
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_OK
    assert json.loads((tmp_path / "r" / "report.json").read_text())["truncated"] is True


@pytest.mark.parametrize("bad_line, damage", [
    (1, lambda line: line[:40] + "\n"),
    (300, lambda line: line[:40] + "\n"),
    (552, lambda line: line[:40] + "\n"),
    (2, lambda line: line.replace('"payload":{"heading":0.0,"v":0.0,"x":0.7,"y":0.7}',
                                  '"payload":[0.7,0.7]')),
    # A mistyped cid, t_ns or payload value, which a lenient parse would
    # coerce or carry into the report.
    pytest.param(2, lambda line: line.replace('"x":0.7', '"x":null'), id="x-null"),
    pytest.param(2, lambda line: line.replace('"t_ns":0}', '"t_ns":0.5}'), id="t_ns-float"),
    pytest.param(2, lambda line: line.replace('"t_ns":0}', '"t_ns":false}'), id="t_ns-bool"),
    pytest.param(2, lambda line: line.replace('"cid":1,', '"cid":"1",'), id="cid-string"),
])
def test_replay_rejects_any_other_bad_line_naming_it(tmp_path, bad_line, damage):
    lines = _golden_lines()
    damaged = damage(lines[bad_line - 1])
    assert damaged != lines[bad_line - 1]
    lines[bad_line - 1] = damaged
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"line {bad_line}: not an audit record"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG


@pytest.mark.parametrize("value", ['"a"', "true"], ids=["x-string", "x-bool"])
def test_replay_rejects_a_non_number_pose_field_naming_it(tmp_path, capsys, value):
    lines = _golden_lines()
    lines[1] = lines[1].replace('"x":0.7', f'"x":{value}')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    assert f"GtsSample cid 1: payload field 'x' must be a number, not {json.loads(value)!r}" \
        in capsys.readouterr().err


def test_replay_flags_a_hand_off_no_component_counts(tmp_path):
    # Line 10 is cid 1's SutCmdIn, at the instant its sensing finished; 1 ns
    # later leaves a 1 ns gap between the sense and sut intervals.
    lines = _golden_lines()
    record = json.loads(lines[9])
    assert (record["cid"], record["stage"]) == (1, "SutCmdIn")
    lines[9] = lines[9].replace(f'"t_ns":{record["t_ns"]}}}', f'"t_ns":{record["t_ns"] + 1}}}')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    report = replay_report(log)
    assert report["completeness"] == {"fraction": 0.98, "violations": [1]}
    assert report["cycles"]["latency_records"] == 50


def _echo(damage):
    """Apply ``damage`` to the config echoed in a run header's payload."""
    def apply(payload):
        echo = json.loads(payload["config_json"])
        damage(echo)
        payload["config_json"] = json.dumps(echo)
    return apply


@pytest.mark.parametrize("damage, message", [
    (_echo(lambda c: c.pop("path")), "path: missing required field"),
    (_echo(lambda c: c["report"].update(completion_corridor_m="x")),
     "report.completion_corridor_m: must be a number"),
    (_echo(lambda c: c["sut"].update(goal_speed_mps=None)), "sut.goal_speed_mps: must be a number"),
    (_echo(lambda c: c.update(linkz={})), "linkz: unexpected field"),
    (lambda p: p.pop("config_json"), "config_json: missing or not a string"),
    (lambda p: p.update(config_json="{bad"), "Expecting property name"),
], ids=["path-missing", "corridor-string", "goal-speed-null", "extra-key", "echo-missing",
        "echo-not-json"])
def test_replay_rejects_a_damaged_config_echo_naming_the_field(tmp_path, capsys, damage, message):
    lines = _golden_lines()
    header = json.loads(lines[0])
    damage(header["payload"])
    lines[0] = json.dumps(header) + "\n"
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"^{re.escape(str(log))}: line 1: config echo: {message}"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: line 1: config echo: {message}")
    assert "Traceback" not in err
