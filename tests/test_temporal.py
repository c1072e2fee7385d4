import numpy as np
import pytest

from hilbench.core import Stage, TimedEvent, ms_to_ns, rng_stream
from hilbench.temporal import (
    COMPONENTS,
    INTERVALS,
    assemble_all,
    summarize_latency,
    write_latency_report,
)


def chain_events(cid=1, t0=0.0, ingest=0.26, adv=28.68, sense=7.64, sut=15.48, v2r=8.58):
    """Millisecond stage offsets -> event list for one full cycle."""
    t = ms_to_ns(t0)
    events = [TimedEvent("r", cid, Stage.GtsSample, t)]
    events.append(TimedEvent("r", cid, Stage.R2vIngestStart, t))
    t_id = t + ms_to_ns(ingest)
    events.append(TimedEvent("r", cid, Stage.R2vIngestDone, t_id))
    t_adv = t_id + ms_to_ns(adv)
    events.append(TimedEvent("r", cid, Stage.R2vAdvDone, t_adv))
    t_sense = t_adv + ms_to_ns(sense)
    events.append(TimedEvent("r", cid, Stage.R2vSenseDone, t_sense))
    events.append(TimedEvent("r", cid, Stage.SutCmdIn, t_sense))
    t_out = t_sense + ms_to_ns(sut)
    events.append(TimedEvent("r", cid, Stage.SutCmdOut, t_out))
    events.append(TimedEvent("r", cid, Stage.PerturbIn, t_out))
    events.append(TimedEvent("r", cid, Stage.PerturbOut, t_out))
    t_del = t_out + ms_to_ns(v2r)
    events.append(TimedEvent("r", cid, Stage.V2rDeliver, t_del))
    events.append(TimedEvent("r", cid, Stage.ActuatorApply, t_del))
    return events

def stage_times(events):
    """``{cid: [t_ns or None, indexed by Stage]}``, the stage times that the
    report's analysis keeps of each cycle."""
    times = {}
    for ev in events:
        times.setdefault(ev.cid, [None] * len(Stage))[ev.stage] = ev.t_ns
    return times


def cycles(n):
    """Events of ``n`` identical full cycles, cids 1..n."""
    return [e for i in range(n) for e in chain_events(cid=i + 1)]


def columns(records):
    """``{component: its values}`` of ``{cid: record}``, in record order, as
    ``summarize_latency`` reads them."""
    return {name: [rec[name] for rec in records.values()] for name in COMPONENTS}


def record(events):
    """The one record ``assemble_all`` builds from one complete chain."""
    records, incomplete, gapped = assemble_all(stage_times(events))
    assert not incomplete and not gapped
    (rec,) = records.values()
    return rec


class TestAssemble:
    def test_characterized_stage_boundaries(self):
        # Stage boundaries at 0, 0.26, 28.94, 36.58 ms decompose into
        # 0.26 / 28.68 / 7.64 with an end-to-end of 36.58 ms.
        rec = record(chain_events())
        assert rec["ingest"] == ms_to_ns(0.26)
        assert rec["adv"] == ms_to_ns(28.68)
        assert rec["sense"] == ms_to_ns(7.64)
        assert rec["r2v"] == ms_to_ns(0.26) + ms_to_ns(28.68) + ms_to_ns(7.64)
        assert rec["r2v"] == pytest.approx(ms_to_ns(36.58), abs=2)

    def test_all_equal_timestamps_give_zero(self):
        rec = record(chain_events(ingest=0, adv=0, sense=0, sut=0, v2r=0))
        assert rec["r2v"] == rec["v2r"] == rec["sut"] == rec["total"] == 0

    def test_missing_stage_named(self):
        events = [e for e in chain_events() if e.stage is not Stage.R2vAdvDone]
        records, incomplete, _gapped = assemble_all(stage_times(events))
        assert records == {}
        assert incomplete == {1: Stage.R2vAdvDone}

    def test_first_missing_stage_reported(self):
        events = [e for e in chain_events()
                  if e.stage not in (Stage.R2vIngestDone, Stage.SutCmdOut)]
        records, incomplete, _gapped = assemble_all(stage_times(events))
        assert records == {}
        assert incomplete == {1: Stage.R2vIngestDone}

    def test_every_interval_runs_from_an_earlier_stage_to_a_later_one(self):
        # With the chain and time order that AuditLog.admit enforces on every
        # record a fold is fed, this is why no interval can be negative.
        for name, (start, end) in INTERVALS.items():
            assert start < end, name

    def test_identities_hold_by_construction(self):
        rng = rng_stream(1, "t.test")
        for _ in range(200):
            ing, adv, sen, sut, v2r = rng.uniform(0, 50, size=5)
            rec = record(chain_events(ingest=ing, adv=adv, sense=sen, sut=sut, v2r=v2r))
            assert rec["r2v"] == rec["ingest"] + rec["adv"] + rec["sense"]
            assert rec["platform"] == rec["v2r"] + rec["r2v"]
            assert rec["total"] == rec["sut"] + rec["platform"]


class TestAggregate:
    def test_characterized_cv(self):
        # A sample with mean 36.58 ms and sample std 23.46 ms has CV 0.641.
        vals = np.array([36.58 - 23.46, 36.58, 36.58 + 23.46])
        scale = 23.46 / float(np.std(vals, ddof=1))
        vals = 36.58 + (vals - 36.58) * scale
        records = {i + 1: {**dict.fromkeys(COMPONENTS, 0), "r2v": ms_to_ns(v)}
                   for i, v in enumerate(vals)}
        st = summarize_latency(columns(records))["r2v"]
        assert st["mean_ms"] == pytest.approx(36.58, abs=1e-6)
        assert st["std_ms"] == pytest.approx(23.46, abs=1e-6)
        assert st["cv"] == pytest.approx(0.641, abs=5e-4)

    def test_constant_series(self):
        records, _, _ = assemble_all(stage_times(cycles(5)))
        st = summarize_latency(columns(records))["r2v"]
        assert st["std_ms"] == 0.0
        assert st["cv"] == 0.0

    def test_two_pass_oracle(self):
        rng = rng_stream(2, "t.test")
        events = []
        for i in range(300):
            events += chain_events(
                cid=i + 1, ingest=rng.uniform(0, 2), adv=rng.uniform(0, 80),
                sense=rng.uniform(0, 10), sut=rng.uniform(0, 30), v2r=rng.uniform(0, 12))
        records, _, _ = assemble_all(stage_times(events))
        stats = summarize_latency(columns(records))
        assert list(stats) == list(COMPONENTS)
        for comp in COMPONENTS:
            st = stats[comp]
            vals = np.array([rec[comp] for rec in records.values()]) / 1e6
            mean = vals.sum() / len(vals)
            var = ((vals - mean) ** 2).sum() / (len(vals) - 1)
            assert st["n"] == 300
            assert st["mean_ms"] == pytest.approx(mean, rel=1e-12)
            assert st["std_ms"] == pytest.approx(var**0.5, rel=1e-12)
            assert st["cv"] == pytest.approx(var**0.5 / mean, rel=1e-12)
            rank = int(np.ceil(0.95 * len(vals)))
            assert st["p95_ms"] == pytest.approx(float(np.sort(vals)[rank - 1]), rel=1e-12)

    def test_permutation_invariance(self):
        rng = rng_stream(3, "t.test")
        events = []
        for i in range(50):
            events += chain_events(cid=i + 1, adv=float(rng.uniform(0, 50)))
        records, _, _ = assemble_all(stage_times(events))
        st1 = summarize_latency(columns(records))["adv"]
        items = list(records.items())
        rng.shuffle(items)
        st2 = summarize_latency(columns(dict(items)))["adv"]
        assert st1 == st2

    def test_needs_two_records(self):
        for n in (0, 1):
            records, _, _ = assemble_all(stage_times(cycles(n)))
            assert summarize_latency(columns(records)) == dict.fromkeys(COMPONENTS)


class TestCompleteness:
    def test_assembled_records_all_complete(self):
        _, _, gapped = assemble_all(stage_times(cycles(20)))
        assert gapped == []

    def test_uncounted_hand_off_flagged(self):
        # cid 2's controller takes its input 1 ns after sensing is done: the
        # components still sum exactly, but their total misses that 1 ns of
        # the ingest-start-to-delivery span.
        gap = [TimedEvent(e.run_id, e.cid, e.stage, e.t_ns + 1) if e.stage >= Stage.SutCmdIn else e
               for e in chain_events(cid=2, t0=20.0)]
        records, incomplete, gapped = assemble_all(stage_times(chain_events(cid=1) + gap))
        assert not incomplete
        assert records[1]["total"] == records[2]["total"]
        assert gapped == [2]

    def test_assemble_all_skips_incomplete(self):
        events = chain_events(cid=1) + [e for e in chain_events(cid=2, t0=20.0)
                                        if e.stage is not Stage.V2rDeliver]
        records, incomplete, gapped = assemble_all(stage_times(events))
        assert list(records) == [1]
        assert incomplete == {2: Stage.V2rDeliver}
        assert gapped == []


def test_report_csv(tmp_path):
    events = [e for i in range(5) for e in chain_events(cid=i + 1, adv=20.0 + i)]
    records, _, _ = assemble_all(stage_times(events))
    out = tmp_path / "latency.csv"
    write_latency_report(summarize_latency(columns(records)), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "component,mean_ms,std_ms,cv,p95_ms,n"
    assert [line.split(",")[0] for line in lines[1:]] == list(COMPONENTS)
    # CV column formatted to 2 decimals
    assert all(len(line.split(",")[3].split(".")[1]) == 2 for line in lines[1:])
