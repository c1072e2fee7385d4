import pytest

from hilbench.core import (
    AuditLog,
    AuditOrderError,
    ClockError,
    RunContext,
    Stage,
    TimedEvent,
    VirtualClock,
    rng_stream,
    substream_seed,
)


class TestClock:
    def test_fresh_clock_starts_at_zero(self):
        assert VirtualClock().now() == 0

    def test_advance_accumulates(self):
        c = VirtualClock()
        assert c.advance(5_000_000) == 5_000_000
        assert c.advance(3_000_000) == 8_000_000
        assert c.now() == 8_000_000

    def test_zero_advance_is_noop(self):
        c = VirtualClock()
        c.advance(7)
        assert c.advance(0) == 7

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock().advance(-1)

    def test_monotone_over_many_advances(self):
        c = VirtualClock()
        last = 0
        for dt in [3, 0, 11, 2, 0, 1000]:
            now = c.advance(dt)
            assert now >= last
            last = now


class TestCorrelationIds:
    def test_first_id_is_one(self):
        ctx = RunContext("r", 0)
        assert ctx.issue_correlation_id() == 1
        assert ctx.issue_correlation_id() == 2

    def test_many_ids_unique_and_increasing(self):
        ctx = RunContext("r", 0)
        ids = [ctx.issue_correlation_id() for _ in range(10_000)]
        assert len(set(ids)) == 10_000
        assert ids == sorted(ids)


class Collected(list):
    """An audit-log consumer that keeps every record it is fed."""

    feed = list.append


class TestAuditLog:
    def test_append_in_chain_order(self):
        log = AuditLog("r")
        log.append(TimedEvent("r", 1, Stage.GtsSample, 10))
        log.append(TimedEvent("r", 1, Stage.R2vIngestStart, 12))
        assert len(log.lines) == 2

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
        log.append(TimedEvent("r", 1, Stage.GtsSample, 0, {"x": 0.1}))
        log.append(TimedEvent("r", 1, Stage.R2vSenseDone, 40, {"x": 0.30000000000000004}))
        p = tmp_path / "a.ndjson"
        log.write_ndjson(p)
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
        ctx1 = RunContext("r", 99)
        ctx1.stream("plant").standard_normal(1000)
        after_heavy_use = ctx1.stream("links").standard_normal(8)

        ctx2 = RunContext("r", 99)
        untouched = ctx2.stream("links").standard_normal(8)
        assert (after_heavy_use == untouched).all()

    def test_different_labels_differ(self):
        a = rng_stream(7, "a").standard_normal(8)
        b = rng_stream(7, "b").standard_normal(8)
        assert not (a == b).all()

    def test_seed_derivation_is_stable(self):
        assert substream_seed(42, "plant") == substream_seed(42, "plant")
        assert substream_seed(42, "plant") != substream_seed(43, "plant")
