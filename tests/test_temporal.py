import numpy as np
import pytest

from hilbench.core import Stage, TimedEvent, ms_to_ns, rng_stream
from hilbench.temporal import (
    COMPONENT_FIELDS,
    IncompleteCycleError,
    LatencyRecord,
    OrderingCorruptionError,
    aggregate,
    assemble_all,
    assemble_record,
    check_completeness,
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


class TestAssemble:
    def test_characterized_stage_boundaries(self):
        # Stage boundaries at 0, 0.26, 28.94, 36.58 ms decompose into
        # 0.26 / 28.68 / 7.64 with an end-to-end of 36.58 ms.
        rec = assemble_record(chain_events())
        assert rec.dt_ingest == ms_to_ns(0.26)
        assert rec.dt_adv == ms_to_ns(28.68)
        assert rec.dt_sense == ms_to_ns(7.64)
        assert rec.dt_r2v == ms_to_ns(0.26) + ms_to_ns(28.68) + ms_to_ns(7.64)
        assert rec.dt_r2v == pytest.approx(ms_to_ns(36.58), abs=2)

    def test_all_equal_timestamps_give_zero(self):
        rec = assemble_record(chain_events(ingest=0, adv=0, sense=0, sut=0, v2r=0))
        assert rec.dt_r2v == rec.dt_v2r == rec.dt_sut == rec.dt_total == 0

    def test_missing_stage_named(self):
        events = [e for e in chain_events() if e.stage is not Stage.R2vAdvDone]
        with pytest.raises(IncompleteCycleError) as exc:
            assemble_record(events)
        assert exc.value.missing_stage is Stage.R2vAdvDone

    def test_first_missing_stage_reported(self):
        events = [e for e in chain_events()
                  if e.stage not in (Stage.R2vIngestDone, Stage.SutCmdOut)]
        with pytest.raises(IncompleteCycleError) as exc:
            assemble_record(events)
        assert exc.value.missing_stage is Stage.R2vIngestDone

    def test_negative_interval_rejected(self):
        events = chain_events()
        bad = [TimedEvent("r", 1, e.stage, e.t_ns - ms_to_ns(50)) if e.stage is Stage.V2rDeliver else e
               for e in events]
        with pytest.raises(OrderingCorruptionError):
            assemble_record(bad)

    def test_identities_hold_by_construction(self):
        rng = rng_stream(1, "t.test")
        for _ in range(200):
            ing, adv, sen, sut, v2r = rng.uniform(0, 50, size=5)
            rec = assemble_record(chain_events(ingest=ing, adv=adv, sense=sen, sut=sut, v2r=v2r))
            assert rec.identities_hold()


class TestAggregate:
    def test_characterized_cv(self):
        # A sample with mean 36.58 ms and sample std 23.46 ms has CV 0.641.
        vals = np.array([36.58 - 23.46, 36.58, 36.58 + 23.46])
        scale = 23.46 / float(np.std(vals, ddof=1))
        vals = 36.58 + (vals - 36.58) * scale
        records = [
            LatencyRecord(cid=i + 1, dt_sut=0, dt_v2r=0, dt_ingest=0, dt_adv=0, dt_sense=0,
                          dt_r2v=ms_to_ns(v), dt_platform=ms_to_ns(v), dt_total=ms_to_ns(v))
            for i, v in enumerate(vals)
        ]
        st = aggregate(records, "r2v")
        assert st.mean_ms == pytest.approx(36.58, abs=1e-6)
        assert st.std_ms == pytest.approx(23.46, abs=1e-6)
        assert st.cv == pytest.approx(0.641, abs=5e-4)

    def test_constant_series(self):
        records = [assemble_record(chain_events(cid=i + 1)) for i in range(5)]
        st = aggregate(records, "r2v")
        assert st.std_ms == 0.0
        assert st.cv == 0.0

    def test_two_pass_oracle(self):
        rng = rng_stream(2, "t.test")
        records = []
        for i in range(300):
            records.append(assemble_record(chain_events(
                cid=i + 1, ingest=rng.uniform(0, 2), adv=rng.uniform(0, 80),
                sense=rng.uniform(0, 10), sut=rng.uniform(0, 30), v2r=rng.uniform(0, 12))))
        for comp, field in COMPONENT_FIELDS.items():
            st = aggregate(records, comp)
            vals = np.array([getattr(r, field) for r in records]) / 1e6
            mean = vals.sum() / len(vals)
            var = ((vals - mean) ** 2).sum() / (len(vals) - 1)
            assert st.mean_ms == pytest.approx(mean, rel=1e-12)
            assert st.std_ms == pytest.approx(var**0.5, rel=1e-12)
            rank = int(np.ceil(0.95 * len(vals)))
            assert st.p95_ms == pytest.approx(float(np.sort(vals)[rank - 1]), rel=1e-12)

    def test_permutation_invariance(self):
        rng = rng_stream(3, "t.test")
        records = [assemble_record(chain_events(cid=i + 1, adv=float(rng.uniform(0, 50))))
                   for i in range(50)]
        st1 = aggregate(records, "adv")
        rng.shuffle(records)
        st2 = aggregate(records, "adv")
        assert st1 == st2

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            aggregate([assemble_record(chain_events())], "r2v")


class TestCompleteness:
    def test_assembled_records_all_complete(self):
        records = [assemble_record(chain_events(cid=i + 1)) for i in range(20)]
        rep = check_completeness(records)
        assert rep.fraction == 1.0
        assert rep.violations == ()

    def test_tampered_record_flagged(self):
        rec = assemble_record(chain_events())
        bad = LatencyRecord(**{**rec.__dict__, "dt_adv": rec.dt_adv + 1})
        rep = check_completeness([rec, bad])
        assert rep.fraction == 0.5
        assert rep.violations == (1,)

    def test_assemble_all_skips_incomplete(self):
        events = chain_events(cid=1) + [e for e in chain_events(cid=2, t0=20.0)
                                        if e.stage is not Stage.V2rDeliver]
        records, incomplete = assemble_all(events)
        assert [r.cid for r in records] == [1]
        assert incomplete == {2: Stage.V2rDeliver}


def test_report_csv(tmp_path):
    records = [assemble_record(chain_events(cid=i + 1, adv=20.0 + i)) for i in range(5)]
    out = tmp_path / "latency.csv"
    write_latency_report(summarize_latency(records), out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "component,mean_ms,std_ms,cv,p95_ms,n"
    assert len(lines) == 1 + len(COMPONENT_FIELDS)
    # CV column formatted to 2 decimals
    assert all(len(line.split(",")[3].split(".")[1]) == 2 for line in lines[1:])
