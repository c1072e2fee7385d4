"""Property tests over random short runs: the report rebuilt from the audit
log alone equals the live report byte for byte, ``latency.csv`` is the
report's ``latency_ms`` section formatted, row for row, and every cycle's
total latency spans exactly its first and last logged boundary.

Hypothesis runs derandomized and without its example database, so the cases
are the same on every run.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hilbench import cli
from hilbench.config import resolve_run_config
from hilbench.core import Stage, TimedEvent
from hilbench.orchestrator import run_stage1
from hilbench.temporal import COMPONENTS, assemble_all

PATHS = (
    {"preset": "square-sandbox"},
    {"closed": True, "vertices": [[1.5, 0.7], [2.7, 0.7], [3.5, 1.5], [3.5, 2.7],
                                  [2.7, 3.5], [1.5, 3.5], [0.7, 2.7], [0.7, 1.5]]},
    {"closed": False, "vertices": [[0.7, 0.7], [3.5, 0.7], [3.5, 3.5]]},
)

jitters = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "kind": st.just("gaussian_truncated"),
        "mean_ms": st.floats(0.0, 10.0),
        "std_ms": st.floats(0.0, 15.0),
    }),
)


@st.composite
def run_configs(draw):
    return {
        "schema_version": 1,
        "run_id": "property",
        "seed": draw(st.integers(0, 2**32 - 1)),
        "termination": {"duration_s": draw(st.floats(0.5, 2.0))},
        "path": draw(st.sampled_from(PATHS)),
        "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3,
                "latency": {"mode": "constant", "ms": 15.48}},
        "links": {"v2r": {"perturbation": {
            "fixed_delay_ms": draw(st.floats(0.0, 80.0)),
            "jitter": draw(jitters),
            "loss_probability": draw(st.floats(0.0, 0.3)),
        }}},
    }


def _latency_rows(latency_ms: dict) -> str:
    rows = ["component,mean_ms,std_ms,cv,p95_ms,n"]
    for name in COMPONENTS:
        s = latency_ms[name]
        rows.append(f"{name},{s['mean_ms']:.4f},{s['std_ms']:.4f},{s['cv']:.2f},"
                    f"{s['p95_ms']:.4f},{s['n']}")
    return "\n".join(rows) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(config=run_configs())
def test_replay_and_latency_csv_agree_with_the_live_report(config):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = root / "config.json"
        cfg.write_text(json.dumps(config))
        live, replay = root / "live", root / "replay"
        assert cli.main(["stage1", "--config", str(cfg), "--out", str(live), "-q"]) == cli.EXIT_OK
        assert cli.main(["replay-report", "--log", str(live / "audit.ndjson"),
                         "--out", str(replay), "-q"]) == cli.EXIT_OK
        report = (live / "report.json").read_text()
        assert (replay / "report.json").read_text() == report
        latency_ms = json.loads(report)["latency_ms"]
        assert (live / "latency.csv").read_text() == _latency_rows(latency_ms)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(config=run_configs())
def test_total_latency_spans_ingest_start_to_delivery(config):
    # total sums the stage intervals; it equals the end-to-end span only
    # because the sense -> controller and controller -> injector hand-offs
    # take no time.  A gap that no component counts would break this.
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "audit.ndjson"
        run_stage1(resolve_run_config(config), log)
        events = [TimedEvent.from_json(line) for line in log.read_text().splitlines()]
    t = {(ev.cid, ev.stage): ev.t_ns for ev in events}
    times = {}
    for ev in events:
        if ev.cid > 0:
            times.setdefault(ev.cid, [None] * len(Stage))[ev.stage] = ev.t_ns
    records, _incomplete, _gapped = assemble_all(times)
    assert records
    for cid, rec in records.items():
        span = t[cid, Stage.V2rDeliver] - t[cid, Stage.R2vIngestStart]
        assert rec["total"] == span, cid
