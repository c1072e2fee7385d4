import json
import math

import numpy as np
import pytest

from hilbench.core import rng_stream, write_json
from hilbench.safety import (
    AgentState,
    SafetyEvent,
    body_gap,
    d_min_trace,
    extract_events,
    ttc_body,
    write_safety_csv,
)


def agent(aid, t, x, y, vx=0.0, vy=0.0, r=1.0):
    return AgentState(aid, t, x, y, vx, vy, r)


def stepping_oracle(ego, other, horizon=30.0, dt=1e-4):
    """Forward-stepped gap at 0.1 ms resolution; first contact time or inf."""
    s = np.arange(0.0, horizon, dt)
    dx = (other.x - ego.x) + (other.vx - ego.vx) * s
    dy = (other.y - ego.y) + (other.vy - ego.vy) * s
    gap = np.hypot(dx, dy) - (ego.radius + other.radius)
    hit = np.nonzero(gap <= 0.0)[0]
    return float(s[hit[0]]) if hit.size else math.inf


class TestTtcBody:
    def test_head_on(self):
        e = agent("e", 0, 0.0, 0.0, 5.0, 0.0, r=1.0)
        o = agent("o", 0, 12.0, 0.0, 0.0, 0.0, r=1.0)
        assert ttc_body(e, o) == pytest.approx(2.0)

    def test_diverging_is_inf(self):
        e = agent("e", 0, 0.0, 0.0, -1.0, 0.0)
        o = agent("o", 0, 5.0, 0.0, 1.0, 0.0)
        assert ttc_body(e, o) == math.inf

    def test_parallel_same_speed_is_inf(self):
        e = agent("e", 0, 0.0, 0.0, 1.0, 0.0)
        o = agent("o", 0, 5.0, 0.0, 1.0, 0.0)
        assert ttc_body(e, o) == math.inf

    def test_overlap_is_zero(self):
        e = agent("e", 0, 0.0, 0.0)
        o = agent("o", 0, 1.0, 0.0)
        assert ttc_body(e, o) == 0.0

    def test_timestamp_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ttc_body(agent("e", 0, 0, 0), agent("o", 1, 5, 0))

    def test_scale_invariance(self):
        rng = rng_stream(31, "safety.test")
        for _ in range(100):
            e = agent("e", 0, *rng.uniform(-10, 10, 2), *rng.uniform(-3, 3, 2),
                      r=float(rng.uniform(0.1, 2)))
            o = agent("o", 0, *rng.uniform(-10, 10, 2), *rng.uniform(-3, 3, 2),
                      r=float(rng.uniform(0.1, 2)))
            lam = float(rng.uniform(0.5, 4.0))
            e2 = agent("e", 0, e.x * lam, e.y * lam, e.vx * lam, e.vy * lam, r=e.radius * lam)
            o2 = agent("o", 0, o.x * lam, o.y * lam, o.vx * lam, o.vy * lam, r=o.radius * lam)
            t1, t2 = ttc_body(e, o), ttc_body(e2, o2)
            if math.isfinite(t1):
                assert t2 == pytest.approx(t1, abs=1e-9)
            else:
                assert t2 == math.inf

    def test_against_stepping_oracle(self):
        rng = rng_stream(32, "safety.test")
        checked = 0
        while checked < 60:
            e = agent("e", 0, *rng.uniform(-5, 5, 2), *rng.uniform(-2, 2, 2),
                      r=float(rng.uniform(0.2, 1.0)))
            o = agent("o", 0, *rng.uniform(-5, 5, 2), *rng.uniform(-2, 2, 2),
                      r=float(rng.uniform(0.2, 1.0)))
            closed = ttc_body(e, o)
            if math.isfinite(closed) and closed > 25.0:
                continue  # outside the oracle horizon
            oracle = stepping_oracle(e, o)
            if math.isfinite(closed) != math.isfinite(oracle):
                continue_possible = abs(body_gap(e, o)) < 1e-3
                assert continue_possible, f"finiteness disagrees: {closed} vs {oracle}"
                continue
            if math.isfinite(closed):
                assert abs(closed - oracle) < 1e-3
            checked += 1


class TestDminTrace:
    def test_static_npc_fixture_gap(self):
        # Constructed anchor: a single static agent at body gap 5.05 m.
        frames = [[agent("ego", t, 0.0, 0.0, r=0.5), agent("n", t, 6.05, 0.0, r=0.5)]
                  for t in range(10)]
        trace = d_min_trace(frames, "ego")
        assert trace.d_min == pytest.approx(5.05)

    def test_ego_alone_is_inf(self):
        frames = [[agent("ego", t, 0.0, 0.0)] for t in range(5)]
        trace = d_min_trace(frames, "ego")
        assert trace.d_min == math.inf
        assert trace.t_at_d_min is None

    def test_missing_ego_names_frame(self):
        frames = [[agent("ego", 0, 0, 0)], [agent("other", 1, 0, 0)]]
        with pytest.raises(ValueError, match="frame 1"):
            d_min_trace(frames, "ego")

    def test_global_min_matches_exhaustive_scan(self):
        rng = rng_stream(33, "safety.test")
        frames = []
        for t in range(985):
            frame = [agent("ego", t, *rng.uniform(-5, 5, 2), *rng.uniform(-1, 1, 2), r=0.4)]
            for k in range(5):
                frame.append(agent(f"n{k}", t, *rng.uniform(-5, 5, 2),
                                   *rng.uniform(-1, 1, 2), r=0.2 + 0.1 * k))
            frames.append(frame)
        trace = d_min_trace(frames, "ego")
        best = math.inf
        for frame in frames:
            ego = frame[0]
            for a in frame[1:]:
                best = min(best, body_gap(ego, a))
        assert trace.d_min == best
        assert len(trace) == 985


def dipping_trace(values, metric="dmin", dt_s=1.0):
    """Build a trace with the given per-frame metric values (other metric inert)."""
    frames = []
    for i, v in enumerate(values):
        t = int(i * dt_s * 1e9)
        if metric == "dmin":
            frames.append([agent("ego", t, 0.0, 0.0, r=0.5),
                           agent("n", t, v + 1.0, 0.0, r=0.5)])
        else:
            # approach at 1 m/s from gap v: ttc == v
            frames.append([agent("ego", t, 0.0, 0.0, vx=1.0, r=0.5),
                           agent("n", t, v + 1.0, 0.0, r=0.5)])
    return d_min_trace(frames, "ego")


class TestEvents:
    def test_monotone_trace_only_global_min(self):
        trace = dipping_trace([9, 8, 7, 6, 5])
        events = extract_events(trace)
        kinds = [(e.kind, e.metric) for e in events]
        assert ("GlobalMin", "Dmin") in kinds
        assert not any(k == "Valley" for k, _ in kinds)

    def test_two_valleys_ordered_by_depth(self):
        vals = [10, 9, 10, 10, 10, 7, 10, 10, 10, 9.5, 10, 10, 10, 5, 10, 10]
        trace = dipping_trace(vals)
        events = extract_events(trace, dmin_prominence_m=1.0, min_separation_s=2.0)
        valleys = [e for e in events if e.kind == "Valley" and e.metric == "Dmin"]
        assert [v.value for v in valleys] == [7.0, 9.0]  # ascending by depth
        gmin = [e for e in events if e.kind == "GlobalMin" and e.metric == "Dmin"]
        assert gmin[0].value == 5.0

    def test_ttc_threshold_cross_fixture(self):
        # TTC dips to 1.06 s; the 1.5 s alert threshold fires once.
        vals = [4.0, 3.0, 2.0, 1.06, 1.2, 2.5, 4.0]
        trace = dipping_trace(vals, metric="ttc")
        events = extract_events(trace, ttc_threshold_s=1.5)
        crossings = [e for e in events if e.kind == "ThresholdCross" and e.metric == "TTC"]
        assert len(crossings) == 1
        assert crossings[0].value == pytest.approx(1.06, abs=1e-9)

    def test_each_dip_below_threshold_fires_once(self):
        vals = [4, 1.2, 4, 4, 1.0, 0.9, 4, 4, 1.4, 4]
        trace = dipping_trace(vals, metric="ttc")
        events = extract_events(trace, ttc_threshold_s=1.5)
        crossings = [e for e in events if e.kind == "ThresholdCross" and e.metric == "TTC"]
        assert len(crossings) == 3

    def test_collision_emits_dmin_cross(self):
        trace = dipping_trace([2.0, 1.0, 0.0, 0.0, 1.0])
        events = extract_events(trace)
        dmin_cross = [e for e in events if e.kind == "ThresholdCross" and e.metric == "Dmin"]
        assert len(dmin_cross) == 1
        assert dmin_cross[0].value == 0.0

    def test_min_separation_suppresses_near_valleys(self):
        vals = [10, 6, 10, 6.5, 10, 10, 10, 10, 10, 10, 7, 10]
        trace = dipping_trace(vals, dt_s=1.0)
        events = extract_events(trace, dmin_prominence_m=1.0, min_separation_s=5.0)
        valleys = [e for e in events if e.kind == "Valley"]
        # 6 and 6.5 are 2 s apart: the deeper one wins; 7 at t=10 survives.
        assert sorted(v.value for v in valleys) == [6.5, 7.0]

    def test_deterministic_and_idempotent(self):
        vals = [10, 6, 10, 6.5, 10, 3, 10, 9, 10, 7, 10]
        trace = dipping_trace(vals)
        e1 = extract_events(trace)
        e2 = extract_events(trace)
        assert e1 == e2

    def test_appended_calm_frames_keep_valleys(self):
        vals = [10, 6, 10, 10, 7, 10]
        base = extract_events(dipping_trace(vals), min_separation_s=2.0)
        extended = extract_events(dipping_trace(vals + [10, 10, 10, 10, 10, 10]),
                                  min_separation_s=2.0)
        assert [e for e in base if e.kind == "Valley"] == \
            [e for e in extended if e.kind == "Valley"]


def test_csv_and_json_exports(tmp_path):
    trace = dipping_trace([5, 4, 3, 4, 5])
    write_safety_csv(trace, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "t_ns,ttc_s,dmin_m"
    assert len(lines) == 6
    events = extract_events(trace)
    write_json(tmp_path / "e.json", [e.to_dict() for e in events])
    assert json.loads((tmp_path / "e.json").read_text()) == [e.to_dict() for e in events]
