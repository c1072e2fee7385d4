import json
import math

import numpy as np
import pytest

from hilbench.config import resolve_run_config
from hilbench.core import rng_stream, write_json
from hilbench.safety import (
    AgentState,
    _find_valleys,
    contact_gap,
    contact_ttc,
    d_min_trace,
    extract_events,
    frame_metrics,
    write_safety_csv,
)


#: The ``report`` section of a resolved config that sets none of it.
DEFAULT_REPORT = resolve_run_config({
    "schema_version": 1, "seed": 1, "termination": {"duration_s": 1.0},
    "path": {"preset": "square-sandbox"}, "sut": {"name": "pure-pursuit"},
})["report"]


def report(**thresholds):
    """``DEFAULT_REPORT`` with ``thresholds`` in place of its own."""
    return {**DEFAULT_REPORT, **thresholds}


def agent(aid, t, x, y, vx=0.0, vy=0.0, r=1.0):
    return AgentState(aid, t, x, y, vx, vy, r)


def ttc_body(ego, other):
    """``contact_ttc`` of two agents' relative motion."""
    return contact_ttc(other.x - ego.x, other.y - ego.y, other.vx - ego.vx, other.vy - ego.vy,
                       ego.radius + other.radius)


def body_gap(a, b):
    """``contact_gap`` of two agents."""
    return contact_gap(b.x - a.x, b.y - a.y, a.radius + b.radius)


def frame_of(ego, *others):
    """The frame of agent states that share a timestamp: ``(t_ns, ego, others)``."""
    return ego.t_ns, ego, others


def trace_of(frames):
    """The ``d_min_trace`` of ``(t_ns, ego, others)`` frames, each reduced by
    ``frame_metrics``."""
    metrics = [(t_ns, *frame_metrics(ego, others)) for t_ns, ego, others in frames]
    return d_min_trace(*([m[k] for m in metrics] for k in range(3)))


def stepping_oracle(ego, other, horizon=30.0, dt=1e-4):
    """Forward-stepped gap at 0.1 ms resolution; first contact time or inf."""
    s = np.arange(0.0, horizon, dt)
    dx = (other.x - ego.x) + (other.vx - ego.vx) * s
    dy = (other.y - ego.y) + (other.vy - ego.vy) * s
    gap = np.hypot(dx, dy) - (ego.radius + other.radius)
    hit = np.nonzero(gap <= 0.0)[0]
    return float(s[hit[0]]) if hit.size else math.inf


class TestAgentState:
    @pytest.mark.parametrize("kwargs, message", [
        ({"r": 0.0}, "footprint radius must be positive"),
        ({"r": -0.1}, "footprint radius must be positive"),
        ({"r": math.nan}, "footprint radius must be positive"),
        ({"x": math.nan}, "agent kinematics must be finite"),
        ({"y": math.inf}, "agent kinematics must be finite"),
        ({"vx": math.nan}, "agent kinematics must be finite"),
        ({"vy": -math.inf}, "agent kinematics must be finite"),
    ])
    def test_rejects_a_bad_radius_or_kinematics(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            agent("a", 0, **{"x": 0.0, "y": 0.0, **kwargs})

    def test_checks_the_radius_first_then_x_y_vx_vy_in_order(self):
        with pytest.raises(ValueError, match="^footprint radius must be positive$"):
            AgentState("a", 0, math.nan, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(OverflowError):  # an int beyond the float range, before y
            AgentState("a", 0, 10**400, math.nan, 0.0, 0.0, 0.1)

    def test_is_a_slots_dataclass_with_value_equality(self):
        # The benchmark's tracer wraps the class's own ``__init__``.
        assert "__init__" in vars(AgentState)
        assert not hasattr(agent("a", 0, 1.0, 2.0), "__dict__")
        assert agent("a", 0, 1.0, 2.0) == agent("a", 0, 1.0, 2.0) != agent("b", 0, 1.0, 2.0)


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
        frames = [frame_of(agent("ego", t, 0.0, 0.0, r=0.5), agent("n", t, 6.05, 0.0, r=0.5))
                  for t in range(10)]
        trace = trace_of(frames)
        assert trace.d_min == pytest.approx(5.05)

    def test_ego_alone_is_inf(self):
        frames = [frame_of(agent("ego", t, 0.0, 0.0)) for t in range(5)]
        trace = trace_of(frames)
        assert trace.d_min == math.inf
        assert trace.t_at_d_min is None

    def test_global_min_matches_exhaustive_scan(self):
        rng = rng_stream(33, "safety.test")
        frames = []
        for t in range(985):
            frame = [agent("ego", t, *rng.uniform(-5, 5, 2), *rng.uniform(-1, 1, 2), r=0.4)]
            for k in range(5):
                frame.append(agent(f"n{k}", t, *rng.uniform(-5, 5, 2),
                                   *rng.uniform(-1, 1, 2), r=0.2 + 0.1 * k))
            frames.append(frame)
        trace = trace_of([frame_of(*f) for f in frames])
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
            frames.append(frame_of(agent("ego", t, 0.0, 0.0, r=0.5),
                                   agent("n", t, v + 1.0, 0.0, r=0.5)))
        else:
            # approach at 1 m/s from gap v: ttc == v
            frames.append(frame_of(agent("ego", t, 0.0, 0.0, vx=1.0, r=0.5),
                                   agent("n", t, v + 1.0, 0.0, r=0.5)))
    return trace_of(frames)


class TestEvents:
    def test_monotone_trace_only_global_min(self):
        trace = dipping_trace([9, 8, 7, 6, 5])
        events = extract_events(trace, report())
        kinds = [(e["kind"], e["metric"]) for e in events]
        assert ("GlobalMin", "Dmin") in kinds
        assert not any(k == "Valley" for k, _ in kinds)

    def test_two_valleys_ordered_by_depth(self):
        vals = [10, 9, 10, 10, 10, 7, 10, 10, 10, 9.5, 10, 10, 10, 5, 10, 10]
        trace = dipping_trace(vals)
        events = extract_events(trace, report(dmin_prominence_m=1.0, min_separation_s=2.0))
        valleys = [e for e in events if e["kind"] == "Valley" and e["metric"] == "Dmin"]
        assert [v["value"] for v in valleys] == [7.0, 9.0]  # ascending by depth
        gmin = [e for e in events if e["kind"] == "GlobalMin" and e["metric"] == "Dmin"]
        assert gmin[0]["value"] == 5.0

    def test_global_min_is_the_first_frame_that_holds_it(self):
        # Two equal dips: the first is the global minimum, the second a valley.
        trace = dipping_trace([10, 3, 10, 10, 10, 10, 3, 10])
        assert (trace.i_d_min, trace.t_at_d_min) == (1, 1_000_000_000)
        events = extract_events(trace, report(dmin_prominence_m=1.0, min_separation_s=2.0))
        assert [(e["kind"], e["t_ns"]) for e in events if e["metric"] == "Dmin"] == \
            [("GlobalMin", 1_000_000_000), ("Valley", 6_000_000_000)]

    def test_ttc_threshold_cross_fixture(self):
        # TTC dips to 1.06 s; the 1.5 s alert threshold fires once.
        vals = [4.0, 3.0, 2.0, 1.06, 1.2, 2.5, 4.0]
        trace = dipping_trace(vals, metric="ttc")
        events = extract_events(trace, report(ttc_threshold_s=1.5))
        crossings = [e for e in events if e["kind"] == "ThresholdCross" and e["metric"] == "TTC"]
        assert len(crossings) == 1
        assert crossings[0]["value"] == pytest.approx(1.06, abs=1e-9)

    def test_each_dip_below_threshold_fires_once(self):
        vals = [4, 1.2, 4, 4, 1.0, 0.9, 4, 4, 1.4, 4]
        trace = dipping_trace(vals, metric="ttc")
        events = extract_events(trace, report(ttc_threshold_s=1.5))
        crossings = [e for e in events if e["kind"] == "ThresholdCross" and e["metric"] == "TTC"]
        assert len(crossings) == 3

    def test_collision_emits_dmin_cross(self):
        trace = dipping_trace([2.0, 1.0, 0.0, 0.0, 1.0])
        events = extract_events(trace, report())
        dmin_cross = [e for e in events if e["kind"] == "ThresholdCross" and e["metric"] == "Dmin"]
        assert len(dmin_cross) == 1
        assert dmin_cross[0]["value"] == 0.0

    def test_min_separation_suppresses_near_valleys(self):
        vals = [10, 6, 10, 6.5, 10, 10, 10, 10, 10, 10, 7, 10]
        trace = dipping_trace(vals, dt_s=1.0)
        events = extract_events(trace, report(dmin_prominence_m=1.0, min_separation_s=5.0))
        valleys = [e for e in events if e["kind"] == "Valley"]
        # 6 and 6.5 are 2 s apart: the deeper one wins; 7 at t=10 survives.
        assert sorted(v["value"] for v in valleys) == [6.5, 7.0]

    def test_deterministic_and_idempotent(self):
        vals = [10, 6, 10, 6.5, 10, 3, 10, 9, 10, 7, 10]
        trace = dipping_trace(vals)
        e1 = extract_events(trace, report())
        e2 = extract_events(trace, report())
        assert e1 == e2

    def test_appended_calm_frames_keep_valleys(self):
        vals = [10, 6, 10, 10, 7, 10]
        base = extract_events(dipping_trace(vals), report(min_separation_s=2.0))
        extended = extract_events(dipping_trace(vals + [10, 10, 10, 10, 10, 10]),
                                  report(min_separation_s=2.0))
        assert [e for e in base if e["kind"] == "Valley"] == \
            [e for e in extended if e["kind"] == "Valley"]


def quadratic_valley_prominence(values, i):
    """Prominence of the local minimum ``values[i]`` by walking outwards from
    it to the nearest strictly lower value on each side (O(n) per valley)."""
    v = values[i]
    left_peak = -math.inf
    for j in range(i - 1, -1, -1):
        if values[j] < v:
            break
        left_peak = max(left_peak, values[j])
    right_peak = -math.inf
    for j in range(i + 1, len(values)):
        if values[j] < v:
            break
        right_peak = max(right_peak, values[j])
    if not math.isfinite(left_peak) and not math.isfinite(right_peak):
        return 0.0
    ref = min(p for p in (left_peak, right_peak) if math.isfinite(p)) \
        if (math.isfinite(left_peak) and math.isfinite(right_peak)) \
        else max(left_peak, right_peak)
    return float(ref - v)


def valley_prominences(values):
    """``{index: prominence}`` of every valley candidate ``_find_valleys`` sees."""
    values = np.asarray(values, dtype=float)
    t_ns = np.arange(values.size, dtype=np.int64)
    return {i: prom for _v, i, prom in _find_valleys(t_ns, values, 0.0, 0, None)}


def strict_minima(values):
    return [i for i in range(1, len(values) - 1)
            if math.isfinite(values[i]) and values[i - 1] > values[i] < values[i + 1]]


def plateau_series(rng, n, inf_runs):
    """Integer levels (so equal neighbours and plateaus are common), with
    ``inf_runs`` runs of +inf."""
    values = rng.integers(0, 6, size=n).astype(float)
    values = np.repeat(values, rng.integers(1, 4, size=n))[:n]
    for _ in range(inf_runs):
        start = int(rng.integers(0, n))
        values[start:start + int(rng.integers(1, 6))] = math.inf
    return values


class TestValleyProminence:
    @pytest.mark.parametrize("values, expected", [
        ([math.inf, 2.0, math.inf], {1: 0.0}),
        ([3.0, 1.0, math.inf, math.inf], {1: math.inf}),
        ([3.0, 1.0, 2.0, 2.0, 2.0, 0.5, 4.0], {1: 1.0, 5: 2.5}),
        ([4.0, 2.0, 2.5, 1.0, 5.0, 5.0, 3.0, 6.0], {1: 0.5, 3: 3.0, 6: 2.0}),
    ])
    def test_hand_cases(self, values, expected):
        assert valley_prominences(values) == expected
        assert {i: quadratic_valley_prominence(values, i) for i in strict_minima(values)} == expected

    def test_matches_the_quadratic_walk_with_plateaus_and_inf_runs(self):
        rng = rng_stream(51, "safety.valleys")
        checked = 0
        for case in range(300):
            values = plateau_series(rng, int(rng.integers(3, 80)), int(rng.integers(0, 4)))
            expected = {i: quadratic_valley_prominence(values.tolist(), i) for i in strict_minima(values)}
            assert valley_prominences(values) == expected, case
            checked += len(expected)
        assert checked > 400

    def test_matches_scipy_peak_prominences_on_finite_series(self):
        signal = pytest.importorskip("scipy.signal")
        rng = rng_stream(53, "safety.valleys")
        for case in range(200):
            n = int(rng.integers(3, 300))
            values = rng.normal(0.0, 1.0, size=n).cumsum()
            if case % 2:
                values = np.round(values)  # plateaus and repeated levels
            got = valley_prominences(values)
            idx = np.array(sorted(got), dtype=np.intp)
            assert idx.tolist() == strict_minima(values)
            if idx.size:
                assert [got[i] for i in idx.tolist()] == signal.peak_prominences(-values, idx)[0].tolist()


def test_csv_and_json_exports(tmp_path):
    trace = dipping_trace([5, 4, 3, 4, 5])
    write_safety_csv(trace, tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == "t_ns,ttc_s,dmin_m"
    assert len(lines) == 6
    events = extract_events(trace, report())
    write_json(tmp_path / "e.json", events)
    assert json.loads((tmp_path / "e.json").read_text()) == events
