"""Regression pins against the stored golden fixture.

The fixture was produced by a 1 s run of the shipped square-sandbox config
(seed 20240808).  Replaying its audit log must reproduce the stored report
byte for byte, and re-running the same config must reproduce the stored log
byte for byte.  A failure here means behavior changed in a way that breaks
reproducibility of previously recorded experiments.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from hilbench.cli import EXIT_CONFIG, EXIT_OK, main
from hilbench.config import resolve_run_config
from hilbench.core import json_document
from hilbench.orchestrator import replay_report, run_stage1

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
    replayed = replay_report(DATA / "audit.ndjson")[0]
    assert json_document(replayed) == (DATA / "report.json").read_text()


def test_rerun_reproduces_stored_log_bytes(tmp_path):
    out = tmp_path / "audit.ndjson"
    run_stage1(resolve_run_config(GOLDEN_CONFIG), out)
    assert out.read_bytes() == (DATA / "audit.ndjson").read_bytes()


def test_stored_report_sanity():
    report = json.loads((DATA / "report.json").read_text())
    assert report["completed"]
    assert report["cycles"]["gts_samples"] == 50
    assert report["completeness"]["fraction"] == 1.0


#: sha256 of the files ``calibrate --seed 1 --epochs 5`` writes: the synthetic
#: dataset, the trained hybrid model and the metrics of the model ladder.
#: Recorded where NumPy dispatches its AVX-512 loops: ``np.exp`` (distortion
#: field) and ``np.tanh`` (network) round differently on other SIMD paths.
CALIBRATE_SHA256 = {
    "dataset.csv": "6114cfec8677bf3da78cd9a7516685da7302e43c78435c89926b5e08f094383c",
    "model.json": "adb2d20acb694a16e881ac97f7010733431df0d5115f58afc930dc40bc01d545",
    "calibration_metrics.json": "0ecc4b865f1b0b6500c89a27d5ad4d92df812810f576ba9d7055b37fbe1d82f5",
}


def test_calibrate_reproduces_pinned_output_digests(tmp_path):
    assert main(["calibrate", "--seed", "1", "--epochs", "5", "--out", str(tmp_path), "-q"]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in CALIBRATE_SHA256}
    assert digests == CALIBRATE_SHA256, (
        f"calibrate digests differ; the pins were recorded with AVX-512 dispatch, and this "
        f"NumPy enables {_simd_dispatch()}")


def _simd_dispatch() -> list[str]:
    """The enabled NumPy CPU features among X86_V3, X86_V4 and AVX512_*."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return [name for name, enabled in __cpu_features__.items()
            if enabled and (name in ("X86_V3", "X86_V4") or name.startswith("AVX512_"))]


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
    report = replay_report(log)[0]
    assert report["truncated"] and not report["completed"]
    complete = tmp_path / "complete.ndjson"
    complete.write_text("".join(lines[:keep_lines]))
    assert json_document(report) == json_document(replay_report(complete)[0])
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
    pytest.param(300, lambda line: line.replace("}\n", "} {}\n"), id="text-after-object"),
    pytest.param(300, lambda line: "[" + line.rstrip("\n") + "]\n", id="array-line"),
    pytest.param(2, lambda line: line.replace('"GtsSample"', '"GtsSampel"'), id="unknown-stage"),
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


def _header_on_cid(lines):
    """Insert after line 51 a second run header, on cid 99999, echoing seed 123."""
    header = json.loads(lines[0])
    echo = json.loads(header["payload"]["config_json"])
    echo["seed"] = 123
    header["payload"]["config_json"] = json.dumps(echo)
    header["cid"] = 99999
    header["t_ns"] = json.loads(lines[50])["t_ns"]
    lines.insert(51, json.dumps(header) + "\n")


def _on_cid(line_no, cid):
    def move(lines):
        old = f'"cid":{json.loads(lines[line_no - 1])["cid"]},'
        lines[line_no - 1] = lines[line_no - 1].replace(old, f'"cid":{cid},')
    return move


@pytest.mark.parametrize("damage, message", [
    (_header_on_cid, "line 52: cid 99999: stage RunHeader is a run record, which only cid 0 "
                     "carries"),
    (_on_cid(552, 5), "line 552: cid 5: stage RunEnd is a run record, which only cid 0 carries"),
    (_on_cid(2, 0), "line 2: cid 0: stage GtsSample is a cycle stage, which needs a cid above 0"),
], ids=["header-on-cid-99999", "end-on-cid-5", "sample-on-cid-0"])
def test_replay_rejects_a_record_on_the_wrong_side_of_cid_0(tmp_path, capsys, damage, message):
    lines = _golden_lines()
    damage(lines)
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_replay_rejects_a_record_after_the_end_record(tmp_path):
    lines = _golden_lines()
    assert json.loads(lines[-1])["stage"] == "RunEnd"
    after = lines[1].replace('"cid":1,', '"cid":51,').replace('"t_ns":0}', '"t_ns":1019847117}')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines) + after)
    with pytest.raises(ValueError, match="line 553: cid 51: stage GtsSample after RunEnd"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG


@pytest.mark.parametrize("bad_line, old, new, message", [
    pytest.param(552, '"gts_samples":50', '"gts_samples":49', "RunEnd cid 0: payload field "
                 "'gts_samples' is 49, but the log holds 50 GtsSample records", id="count-short"),
    pytest.param(552, '"gts_samples":50', '"gts_samples":50.0', "RunEnd cid 0: payload field "
                 "'gts_samples' must be an integer, not 50.0", id="count-float"),
    pytest.param(552, '"aborted":false', '"aborted":"no"', "RunEnd cid 0: payload field "
                 "'aborted' must be a bool, not 'no'", id="aborted-string"),
    pytest.param(552, '"aborted":false,', "", "RunEnd cid 0: payload field 'aborted' must be a "
                 "bool, not None", id="aborted-missing"),
    pytest.param(552, '"abort_reason":""', '"abort_reason":5', "RunEnd cid 0: payload field "
                 "'abort_reason' must be a string, not 5", id="reason-int"),
    pytest.param(12, '"payload":{}', '"payload":{"dropped":1}', "PerturbIn cid 1: payload "
                 "field 'dropped' must be a bool, not 1", id="dropped-int"),
])
def test_replay_rejects_a_mistyped_end_or_drop_field_naming_it(tmp_path, capsys, bad_line, old,
                                                                new, message):
    lines = _golden_lines()
    assert old in lines[bad_line - 1]
    lines[bad_line - 1] = lines[bad_line - 1].replace(old, new)
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"line {bad_line}: {re.escape(message)}$"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    assert f"line {bad_line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ['"a"', "true"], ids=["x-string", "x-bool"])
def test_replay_rejects_a_non_number_pose_field_naming_it(tmp_path, capsys, value):
    lines = _golden_lines()
    lines[1] = lines[1].replace('"x":0.7', f'"x":{value}')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    assert f"line 2: GtsSample cid 1: payload field 'x' must be a number, not " \
        f"{json.loads(value)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, reason", [
    pytest.param('"npc_npc1_r":0.1', '"npc_npc1_r":0', "footprint radius must be positive",
                 id="radius-zero"),
    pytest.param('"npc_npc1_r":0.1', '"npc_npc1_r":NaN', "footprint radius must be positive",
                 id="radius-nan"),
    pytest.param('"npc_npc1_vx":0.0', '"npc_npc1_vx":1e999', "agent kinematics must be finite",
                 id="vx-infinite"),
])
def test_replay_rejects_a_damaged_agent_naming_it(tmp_path, capsys, old, new, reason):
    # Line 733 of the stage-3 fixture is cid 67's sense event, the first that
    # carries the five NPCs.
    lines = (DATA.parent / "golden_stage3" / "audit.ndjson").read_text().splitlines(keepends=True)
    assert lines[732].count(old) == 1
    lines[732] = lines[732].replace(old, new)
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    message = f"line 733: R2vSenseDone cid 67: agent 'npc1': {reason}"
    with pytest.raises(ValueError, match=f"{re.escape(message)}$"):
        replay_report(log)
    assert main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"), "-q"]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_replay_flags_a_hand_off_no_component_counts(tmp_path):
    # Line 10 is cid 1's SutCmdIn, at the instant its sensing finished; 1 ns
    # later leaves a 1 ns gap between the sense and sut intervals.
    lines = _golden_lines()
    record = json.loads(lines[9])
    assert (record["cid"], record["stage"]) == (1, "SutCmdIn")
    lines[9] = lines[9].replace(f'"t_ns":{record["t_ns"]}}}', f'"t_ns":{record["t_ns"] + 1}}}')
    log = tmp_path / "audit.ndjson"
    log.write_text("".join(lines))
    report = replay_report(log)[0]
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
    (_echo(lambda c: c.update(run_id="other-run")),
     "run_id: 'other-run' differs from the records' run_id 'golden-stage1'"),
    (lambda p: p.pop("config_json"), "config_json: missing or not a string"),
    (lambda p: p.update(config_json="{bad"), "Expecting property name"),
], ids=["path-missing", "corridor-string", "goal-speed-null", "extra-key", "other-run-id",
        "echo-missing", "echo-not-json"])
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
