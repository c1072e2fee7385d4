"""The analysis fold against oracles, on gapped, hand-edited, torn and
out-of-order logs, and the memory it holds per cycle.

``Analyzer`` assembles each cycle as its last required stage is fed and keeps
only fixed-size columns.  The oracle is ``temporal.assemble_all`` run over
the stage times of every cycle, rebuilt from the whole log: the report's
``cycles.incomplete``, ``completeness`` and ``latency_ms`` must equal what
the oracle gives.  A negative interval cannot reach the fold: the order
check rejects its record first.
"""

import json
import tracemalloc
from pathlib import Path

import pytest

from hilbench import cli, presets
from hilbench.config import resolve_run_config
from hilbench.core import AuditLog, Stage, TimedEvent
from hilbench.orchestrator import Analyzer, replay_report, run_stage1
from hilbench.temporal import COMPONENTS, assemble_all, summarize_latency

DATA = Path(__file__).parent / "data"


def golden_lines():
    return (DATA / "golden_stage1" / "audit.ndjson").read_text().splitlines(keepends=True)


def line_of(lines, cid, stage):
    """Index in ``lines`` of the record of ``cid`` at ``stage``."""
    return next(i for i, line in enumerate(lines)
                if (json.loads(line)["cid"], json.loads(line)["stage"]) == (cid, stage))


def logged_stage_times(log):
    """``{cid: [t_ns or None, indexed by Stage]}`` of every cycle record of an
    audit log file; a final line that lacks its newline is torn, and dropped
    as replay drops it."""
    times = {}
    for line in Path(log).read_text().splitlines(keepends=True):
        if not line.endswith("\n"):
            break
        ev = TimedEvent.from_json(line.strip())
        if ev.cid > 0:
            times.setdefault(ev.cid, [None] * len(Stage))[ev.stage] = ev.t_ns
    return times


def assert_report_matches_oracle(log):
    """Replay ``log``, check its latency fields against ``assemble_all`` over
    the log's stage times, and return the report."""
    report = replay_report(log)[0]
    records, incomplete, gapped = assemble_all(logged_stage_times(log))
    assert list(report["cycles"]["incomplete"].items()) == \
        [(str(cid), stage.name) for cid, stage in incomplete.items()]
    assert report["completeness"] == {
        "fraction": (len(records) - len(gapped)) / len(records) if records else 1.0,
        "violations": gapped,
    }
    assert report["cycles"]["latency_records"] == len(records)
    assert report["latency_ms"] == summarize_latency(
        {name: [rec[name] for rec in records.values()] for name in COMPONENTS})
    return report


def write_log(path, lines):
    path.write_text("".join(lines))
    return path


def test_the_golden_log_matches_the_oracle():
    report = assert_report_matches_oracle(DATA / "golden_stage1" / "audit.ndjson")
    assert report["cycles"]["incomplete"] == {}


def test_a_delivery_with_an_earlier_stage_missing_is_incomplete(tmp_path):
    # cid 3 loses its R2vAdvDone; its V2rDeliver and ActuatorApply still come.
    lines = golden_lines()
    del lines[line_of(lines, 3, "R2vAdvDone")]
    report = assert_report_matches_oracle(write_log(tmp_path / "audit.ndjson", lines))
    assert report["cycles"]["incomplete"] == {"3": "R2vAdvDone"}
    assert report["cycles"]["latency_records"] == 49
    assert report["truncated"] is False


def test_a_cid_whose_only_record_is_an_actuator_apply_is_incomplete(tmp_path):
    lines = golden_lines()
    i = line_of(lines, 7, "ActuatorApply")
    lone = json.loads(lines[i])
    lone["cid"] = 999
    lines.insert(i + 1, json.dumps(lone, sort_keys=True, separators=(",", ":")) + "\n")
    report = assert_report_matches_oracle(write_log(tmp_path / "audit.ndjson", lines))
    assert report["cycles"]["incomplete"] == {"999": "R2vIngestStart"}
    assert report["cycles"]["latency_records"] == 50


@pytest.mark.parametrize("after", [(20, "SutCmdIn"), (20, "V2rDeliver")],
                         ids=["before-delivery", "between-delivery-and-apply"])
def test_a_log_torn_in_the_middle_of_a_cycle(tmp_path, after):
    # Every line up to the record ``after``, then half of the next line.
    lines = golden_lines()
    i = line_of(lines, *after)
    torn = lines[:i + 1] + [lines[i + 1][:40]]
    report = assert_report_matches_oracle(write_log(tmp_path / "audit.ndjson", torn))
    assert report["truncated"] is True
    incomplete = report["cycles"]["incomplete"]
    assert list(incomplete) == sorted(incomplete, key=int)
    assert ("20" in incomplete) == (after[1] == "SutCmdIn")
    assert len(incomplete) >= 2


def short_run_config(r2v=None, perturbation=None):
    """A 4 s square-sandbox run with the given R2V stages and injector."""
    return {
        "schema_version": 1, "run_id": "out-of-order", "seed": 7,
        "termination": {"duration_s": 4.0}, "path": {"preset": "square-sandbox"},
        "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                "latency": {"mode": "constant", "ms": 15.48}},
        "links": {"r2v": r2v or {}, "v2r": {"perturbation": perturbation or {}}},
    }


@pytest.mark.parametrize("doc", [
    short_run_config(r2v={"adv": {"kind": "gaussian_truncated", "mean_ms": 30.0,
                                  "std_ms": 30.0}}),
    short_run_config(perturbation={"reorder_allowed": True, "jitter": {
        "kind": "gaussian_truncated", "mean_ms": 20.0, "std_ms": 25.0}}),
], ids=["r2v-jitter", "reorder-allowed"])
def test_cycles_completing_out_of_cid_order(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert cli.main(["stage1", "--config", str(cfg), "--out", str(live), "-q"]) == cli.EXIT_OK
    assert cli.main(["replay-report", "--log", str(live / "audit.ndjson"),
                     "--out", str(replay), "-q"]) == cli.EXIT_OK
    log = live / "audit.ndjson"
    delivered = [TimedEvent.from_json(line).cid for line in log.read_text().splitlines()
                 if '"stage":"V2rDeliver"' in line]
    assert delivered != sorted(delivered)
    report = assert_report_matches_oracle(log)
    assert report["cycles"]["latency_records"] == len(delivered)
    assert (replay / "report.json").read_text() == (live / "report.json").read_text()


def test_a_negative_interval_fails_the_order_check_naming_its_line(tmp_path):
    # cid 1 delivered 1 ns before it entered the injector: replay rejects the
    # record at the order check, before the fold would assemble the cycle.
    events = [TimedEvent.from_json(line) for line in golden_lines()]
    i = next(i for i, ev in enumerate(events) if (ev.cid, ev.stage) == (1, Stage.V2rDeliver))
    t_in = next(ev.t_ns for ev in events if (ev.cid, ev.stage) == (1, Stage.PerturbIn))
    events[i] = events[i]._replace(t_ns=t_in - 1)
    log = write_log(tmp_path / "audit.ndjson", [ev.to_json() + "\n" for ev in events])
    with pytest.raises(ValueError, match=f"line {i + 1}: t_ns {t_in - 1} earlier than"):
        replay_report(log)


@pytest.mark.parametrize("cid, old, new, message", [
    (1, '"x":0.7', f'"x":{10**400}', "int too large to convert to float"),
    (50, '"cid":50,', f'"cid":{2**63},', "int too big to convert"),
], ids=["x-beyond-double", "cid-beyond-int64"])
def test_a_number_beyond_its_column_fails_naming_its_line(tmp_path, capsys, cid, old, new,
                                                           message):
    # The fold keeps sample values in double columns and cids in int64 ones.
    lines = golden_lines()
    for i, line in enumerate(lines):
        if json.loads(line)["cid"] == cid:
            lines[i] = line.replace(old, new)
    i = line_of(golden_lines(), cid, "V2rDeliver" if cid == 50 else "GtsSample")
    log = write_log(tmp_path / "audit.ndjson", lines)
    with pytest.raises(ValueError, match=f"line {i + 1}: {message}$"):
        replay_report(log)
    assert cli.main(["replay-report", "--log", str(log), "--out", str(tmp_path / "r"),
                     "-q"]) == cli.EXIT_CONFIG
    assert f"line {i + 1}: {message}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage3_log(tmp_path_factory):
    """The audit log of a full stage3-intersection run, 5,000 cycles."""
    log = tmp_path_factory.mktemp("stage3") / "audit.ndjson"
    report, _fold = run_stage1(resolve_run_config(presets.load("stage3-intersection")), log)
    return log, report["cycles"]["gts_samples"]


def test_the_fold_holds_a_fixed_number_of_bytes_per_cycle(stage3_log):
    log, cycles = stage3_log
    assert cycles == 5000
    # A short stage-3 log first makes the allocations of first use.
    warm = Analyzer()
    AuditLog.read_ndjson(DATA / "golden_stage3" / "audit.ndjson", warm)
    warm.finish()
    del warm
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fold = Analyzer()
        AuditLog.read_ndjson(log, fold)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        fold.finish()
        finish_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # About 145 B a cycle: 17 values of 8 B (a latency row of 10, a sample
    # row of 4, a safety frame of 3) and the arrays' spare capacity.  The
    # fold held about 2.2 KB a cycle when it kept each record's values.
    assert held <= 200 * cycles
    assert finish_peak - held <= 1_500_000
