import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbench.config import resolve_run_config
from hilbench.core import (
    PAYLOAD_SHAPES,
    AuditLog,
    AuditOrderError,
    Stage,
    TimedEvent,
    canonical_json,
    command_text,
    float_text,
    pose_text,
    rng_stream,
    sense_text,
    substream_seed,
)
from hilbench.orchestrator import Runner, run_stage1

GOLDEN_LOGS = sorted((Path(__file__).parent / "data").glob("golden_*/**/audit.ndjson"))


def run_config(duration_s=4.0):
    return resolve_run_config({
        "schema_version": 1,
        "run_id": "r",
        "seed": 3,
        "termination": {"duration_s": duration_s},
        "path": {"preset": "square-sandbox"},
        "sut": {"name": "pure-pursuit", "goal_speed_mps": 0.3},
    })


def clock_readings(runner, times_ns):
    """The runner's clock as each of a chain of handlers sees it; the first
    handler fires at ``times_ns[0]`` and each schedules the next."""
    seen = []

    def fire(t_ns, i):
        seen.append(runner.now_ns)
        if i + 1 < len(times_ns):
            runner._schedule(times_ns[i + 1], fire, i + 1)

    runner._on_gts = lambda t_ns: runner._schedule(times_ns[0], fire, 0)
    runner.run()
    return seen


class TestClock:
    """The virtual clock is the Runner's ``now_ns``, set by its event loop."""

    def test_fresh_clock_starts_at_zero(self):
        assert Runner(run_config()).now_ns == 0

    def test_advance_accumulates(self):
        runner = Runner(run_config())
        assert clock_readings(runner, [5_000_000, 8_000_000]) == [5_000_000, 8_000_000]
        assert runner.now_ns == 8_000_000

    def test_zero_advance_is_noop(self):
        runner = Runner(run_config())
        assert clock_readings(runner, [7, 7]) == [7, 7]
        assert runner.now_ns == 7

    def test_monotone_over_many_advances(self):
        times = list(np.cumsum([3, 0, 11, 2, 0, 1000]))
        runner = Runner(run_config())
        seen = clock_readings(runner, times)
        assert seen == times
        assert all(a <= b for a, b in zip(seen, seen[1:]))


class TestCorrelationIds:
    """Cycle ``n`` of a run gets correlation ID ``n``; the run records carry 0."""

    @staticmethod
    def records(tmp_path, duration_s):
        report, _ = run_stage1(run_config(duration_s), tmp_path / "audit.ndjson")
        lines = (tmp_path / "audit.ndjson").read_text().splitlines()
        return report, [json.loads(line) for line in lines]

    def test_first_id_is_one(self, tmp_path):
        _, recs = self.records(tmp_path, 0.5)
        assert recs[0]["stage"] == "RunHeader" and recs[0]["cid"] == 0
        assert recs[-1]["stage"] == "RunEnd" and recs[-1]["cid"] == 0
        cids = [r["cid"] for r in recs if r["stage"] == "GtsSample"]
        assert cids[:2] == [1, 2]

    def test_many_ids_unique_and_increasing(self, tmp_path):
        report, recs = self.records(tmp_path, 4.0)
        ids = [r["cid"] for r in recs if r["stage"] == "GtsSample"]
        assert len(ids) == report["cycles"]["gts_samples"] == 200
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids) == list(range(1, len(ids) + 1))


class Collected(list):
    """An audit-log consumer that keeps every record it is fed."""

    feed = list.append


class TestAuditLog:
    def test_append_in_chain_order(self, tmp_path):
        log = AuditLog("r")
        with log.write_ndjson(tmp_path / "a.ndjson"):
            log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
            log.append(TimedEvent("r", 1, Stage.R2vIngestStart, 12))
        assert len((tmp_path / "a.ndjson").read_text().splitlines()) == 2

    def test_a_log_with_no_sink_encodes_and_keeps_nothing(self):
        log = AuditLog("r")
        with pytest.raises(TypeError):
            log.append(TimedEvent("r", 1, Stage.GtsSample, 10, {"x": object()}))
        log.append(TimedEvent("r", 1, Stage.GtsSample, 10, {"x": 0.5}))  # the bad one was not admitted
        assert vars(log).keys() == {"run_id", "consumer", "sink", "ended", "_last_t", "_last_stage"}

    def test_log_file_must_be_opened_before_the_first_record(self, tmp_path):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
        with pytest.raises(ValueError, match="opened before its first record"):
            log.write_ndjson(tmp_path / "a.ndjson")
        assert not (tmp_path / "a.ndjson").exists()

    def test_each_record_reaches_the_file_as_it_is_appended(self, tmp_path):
        log = AuditLog("r")
        p = tmp_path / "a.ndjson"
        with log.write_ndjson(p) as fh:
            log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
            fh.flush()
            assert p.read_text() == TimedEvent("r", 1, Stage.GtsSample, 10).to_json() + "\n"

    def test_stage_reorder_rejected(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.R2vSenseDone, 9))
        with pytest.raises(AuditOrderError):
            log.append(TimedEvent("r", 1, Stage.R2vAdvDone, 5))

    def test_time_regression_rejected(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
        with pytest.raises(AuditOrderError):
            log.append(TimedEvent("r", 1, Stage.R2vIngestStart, 9))

    def test_time_regression_across_cids_rejected(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
        with pytest.raises(AuditOrderError, match="t_ns 9 earlier than the previous record's 10"):
            log.append(TimedEvent("r", 2, Stage.GtsSample, 9))

    def test_nothing_follows_the_end_record(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 0, Stage.RunEnd, 10))
        with pytest.raises(AuditOrderError, match="cid 1: stage GtsSample after RunEnd"):
            log.append(TimedEvent("r", 1, Stage.GtsSample, 10))

    def test_gaps_allowed(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 3, Stage.GtsSample, 0))
        log.append(TimedEvent("r", 3, Stage.SutCmdOut, 50))  # chain gap is fine

    def test_independent_cids_interleave(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.GtsSample, 0))
        log.append(TimedEvent("r", 2, Stage.GtsSample, 20))
        log.append(TimedEvent("r", 1, Stage.R2vIngestStart, 21))
        log.append(TimedEvent("r", 2, Stage.R2vIngestStart, 22))

    def test_json_round_trip(self):
        ev = TimedEvent("r", 5, Stage.V2rDeliver, 123456789,
                        {"speed": 0.1230000987, "dropped": False, "note": "x"})
        back = TimedEvent.from_json(ev.to_json())
        assert back == ev

    def test_ndjson_file_round_trip(self, tmp_path):
        log = AuditLog("r", Collected())
        p = tmp_path / "a.ndjson"
        pose = {"heading": 0.0, "v": 0.5, "x": 0.1, "y": -2}
        with log.write_ndjson(p):
            log.append(TimedEvent("r", 1, Stage.GtsSample, 0, pose))
            log.append(TimedEvent("r", 1, Stage.R2vSenseDone, 40,
                                  {**pose, "x": 0.30000000000000004, "stale": False}))
        events = Collected()
        AuditLog.read_ndjson(p, events)
        assert events == log.consumer


class TestRngStreams:
    def test_same_seed_label_reproduces(self):
        a = rng_stream(7, "plant").standard_normal(16)
        b = rng_stream(7, "plant").standard_normal(16)
        assert (a == b).all()

    def test_labels_are_independent(self):
        # Consuming from one stream must not shift another's sequence.
        rng_stream(99, "plant").standard_normal(1000)
        after_heavy_use = rng_stream(99, "links").standard_normal(8)
        untouched = rng_stream(99, "links").standard_normal(8)
        assert (after_heavy_use == untouched).all()

    def test_numpy_stream_draws_are_pinned(self):
        # NumPy may change a generator's stream between releases (NEP 19).  A
        # change fails here, by name, before it moves every golden pin at once.
        rng = rng_stream(1, "sut.lat")
        assert [float(rng.random()).hex() for _ in range(3)] == [
            "0x1.a07b3f6fc30f7p-1", "0x1.296f5d8d40420p-2", "0x1.2f941be8e669fp-1"]
        rng = rng_stream(1, "sut.lat")
        assert [float(rng.standard_normal()).hex() for _ in range(3)] == [
            "-0x1.fc1bafa1d3d87p+0", "0x1.17eab09831e38p-2", "-0x1.161a1bfcd117fp+0"]

    def test_different_labels_differ(self):
        a = rng_stream(7, "a").standard_normal(8)
        b = rng_stream(7, "b").standard_normal(8)
        assert not (a == b).all()

    def test_seed_derivation_is_stable(self):
        assert substream_seed(42, "plant") == substream_seed(42, "plant")
        assert substream_seed(42, "plant") != substream_seed(43, "plant")


#: Text with the characters JSON escapes or ASCII-encodes: quotes, backslashes,
#: control characters, DEL, line separators and non-ASCII letters and emoji.
texts = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028é中😀'), st.characters()),
                max_size=6)
scalars = st.one_of(
    st.booleans(),
    st.integers(),
    st.just(2**70),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
    texts,
)
#: Values and keys outside an audit payload, which must encode, or fail, as
#: ``canonical_json`` does with them.
others = st.one_of(st.none(), st.lists(st.integers(), max_size=2), st.builds(object))


def _record(run_id, cid, stage, t_ns, payload) -> dict:
    return {"run_id": run_id, "cid": cid, "stage": stage.name, "t_ns": t_ns, "payload": payload}


class TestLineCodec:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(run_id=texts, cid=st.integers(), stage=st.sampled_from(Stage), t_ns=st.integers(),
           payload=st.one_of(st.dictionaries(texts, scalars, max_size=5),
                             st.dictionaries(st.one_of(texts, st.integers()),
                                             st.one_of(scalars, others), max_size=3),
                             others))
    def test_line_is_canonical_json_of_the_record(self, run_id, cid, stage, t_ns, payload):
        ev = TimedEvent(run_id, cid, stage, t_ns, payload)
        try:
            expected = canonical_json(_record(run_id, cid, stage, t_ns, payload))
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as info:
                ev.to_json()
            assert str(info.value) == str(exc)
            return
        line = ev.to_json()
        assert line == expected
        if isinstance(payload, dict) and all(type(k) is str and type(v) in (bool, int, float, str)
                                             for k, v in payload.items()):
            assert TimedEvent.from_json(line).to_json() == line

    def test_default_payload_is_empty_and_read_only(self):
        ev = TimedEvent("r", 1, Stage.GtsSample, 0)
        assert ev.to_json() == canonical_json(_record("r", 1, Stage.GtsSample, 0, {}))
        with pytest.raises(TypeError):
            ev.payload["x"] = 1.0
        assert TimedEvent("r", 2, Stage.GtsSample, 0).payload == {}

    @pytest.mark.parametrize("path", GOLDEN_LOGS, ids=lambda p: p.parent.name)
    def test_every_golden_line_decodes_and_reencodes_to_its_own_bytes(self, path):
        text = path.read_text(encoding="utf-8")
        assert "".join(TimedEvent.from_json(line).to_json() + "\n"
                       for line in text.splitlines()) == text

    def test_the_golden_logs_of_all_three_stages_are_found(self):
        assert [p.parent.name for p in GOLDEN_LOGS] == [
            "golden_stage1", "delay_0ms_rep0", "delay_40ms_rep0", "golden_stage3"]

    @pytest.mark.parametrize("tail", [" x", '{"cid":2}', " []"])
    def test_text_after_the_record_fails_as_json_loads_does(self, tail):
        line = TimedEvent("r", 1, Stage.GtsSample, 0, {"x": 0.5}).to_json() + tail
        with pytest.raises(ValueError) as expected:
            json.loads(line)
        with pytest.raises(ValueError) as info:
            TimedEvent.from_json(line)
        assert str(info.value) == str(expected.value)


#: Floats, with the ones whose text is easy to get wrong: signed zero, the
#: smallest subnormal, the bounds where ``repr`` switches to exponent form,
#: NaN and the infinities.
floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 1e15, math.nan, math.inf, -math.inf]),
)
#: Every set of the clamp flags ``Plant.apply_command`` can return.
FLAG_SETS = [flags for n in range(5) for flags in combinations(
    ("speed_limited", "speed_map_clamped", "steer_limited", "steer_map_clamped"), n)]


class _FlaggingPlant:
    """A plant whose ``apply_command`` returns the given flags, in order."""

    def __init__(self, flags):
        self.flags = flags

    def advance_to(self, t_ns):
        pass

    def apply_command(self, t_ns, speed, steer):
        return dict(self.flags)


class TestFixedShapeTexts:
    """The fixed-shape payload texts a run writes in place of encoding its
    most frequent payloads: each must equal ``canonical_json`` of the dict."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(v=st.one_of(floats, st.floats().map(np.float64), st.integers(), st.booleans()))
    def test_float_text_is_canonical_json_of_the_value(self, v):
        assert float_text(v) == canonical_json(v)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(heading=floats, v=floats, x=floats, y=floats, stale=st.booleans())
    def test_pose_and_sense_texts(self, heading, v, x, y, stale):
        # Each takes its fields' texts in the table's key order.
        assert list(PAYLOAD_SHAPES[Stage.GtsSample][0]) == ["heading", "v", "x", "y"]
        assert list(PAYLOAD_SHAPES[Stage.R2vSenseDone][0]) == ["heading", "stale", "v", "x", "y"]
        heading_text, v_text, x_text, y_text = (float_text(value) for value in (heading, v, x, y))
        assert pose_text((heading_text, v_text, x_text, y_text)) == canonical_json(
            {"x": x, "y": y, "heading": heading, "v": v})
        assert sense_text((heading_text, float_text(stale), v_text, x_text, y_text)) == \
            canonical_json({"x": x, "y": y, "heading": heading, "v": v, "stale": stale})

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(speed=floats, steer=floats)
    def test_command_text(self, speed, steer):
        # Also the text of an ActuatorApply without flags; a flagged one is
        # encoded whole (TestEveryLineReencodes::test_saturated_actuators).
        assert list(PAYLOAD_SHAPES[Stage.SutCmdOut][0]) == ["speed", "steer"]
        assert PAYLOAD_SHAPES[Stage.ActuatorApply][0] == PAYLOAD_SHAPES[Stage.SutCmdOut][0]
        texts = (float_text(speed), float_text(steer))
        assert command_text(texts) == canonical_json({"speed": speed, "steer": steer})

    @pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(f) or "none")
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(speed=floats, steer=floats)
    def test_command_and_actuator_texts(self, flags, speed, steer):
        # The ActuatorApply line a run writes, with the flags in either order:
        # command_text without flags, the general encoder with them.
        texts = (float_text(speed), float_text(steer))
        for order in (flags, flags[::-1]):
            given_flags = dict.fromkeys(order, True)
            runner = Runner(run_config())
            runner.plant = _FlaggingPlant(given_flags)
            lines = []
            runner.audit.append = lambda event, body=None: lines.append(event.to_json(body))
            runner._on_actuator(5, 1, speed, steer, texts)
            assert lines == [canonical_json(_record(
                "r", 1, Stage.ActuatorApply, 5, {"speed": speed, "steer": steer, **given_flags}))]

    def test_a_given_body_is_the_payload_text_of_the_line(self, tmp_path):
        ev = TimedEvent("r", 1, Stage.SutCmdOut, 5, {"speed": 0.5, "steer": -0.25})
        body = command_text((float_text(0.5), float_text(-0.25)))
        assert ev.to_json(body) == ev.to_json() == canonical_json(
            _record("r", 1, Stage.SutCmdOut, 5, ev.payload))
        log = AuditLog("r")
        with log.write_ndjson(tmp_path / "a.ndjson"):
            log.append(ev, body)
        assert (tmp_path / "a.ndjson").read_text() == ev.to_json() + "\n"
