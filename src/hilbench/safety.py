"""Interaction safety metrics over synchronized multi-agent states.

Agents are circles (circumscribed body footprints).  Time-to-collision uses
constant-velocity extrapolation of the inter-body gap and solves the contact
time in closed form; the minimum-gap trace keeps per-frame gaps (floored at
zero: overlap counts as collision) plus the running global minima.  Event
extraction turns a trace into global minima, alert-threshold crossings, and
prominence-filtered valleys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AgentState:
    """One agent's synchronized planar state at a frame time."""

    agent_id: str
    t_ns: int
    x: float
    y: float
    vx: float
    vy: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("footprint radius must be positive")
        for v in (self.x, self.y, self.vx, self.vy):
            if not math.isfinite(v):
                raise ValueError("agent kinematics must be finite")


def ttc_body(ego: AgentState, other: AgentState) -> float:
    """Seconds until the two bodies touch under constant velocities.

    Solves ||dp + dv*s|| = r_ego + r_other for the smallest s > 0; returns
    +inf when the bodies never touch, and 0.0 when they already overlap.
    """
    if ego.t_ns != other.t_ns:
        raise ValueError("agent states must share a timestamp")
    dpx, dpy = other.x - ego.x, other.y - ego.y
    dvx, dvy = other.vx - ego.vx, other.vy - ego.vy
    rsum = ego.radius + other.radius
    c = dpx * dpx + dpy * dpy - rsum * rsum
    if c <= 0.0:
        return 0.0  # already in contact
    a = dvx * dvx + dvy * dvy
    b = 2.0 * (dpx * dvx + dpy * dvy)
    if a == 0.0:
        return math.inf
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return math.inf
    sq = math.sqrt(disc)
    s1 = (-b - sq) / (2.0 * a)
    if s1 > 0.0:
        return s1
    s2 = (-b + sq) / (2.0 * a)
    return s2 if s2 > 0.0 else math.inf


def body_gap(a: AgentState, b: AgentState) -> float:
    """Inter-body gap, floored at 0 (overlap counts as collision)."""
    d = math.hypot(b.x - a.x, b.y - a.y) - (a.radius + b.radius)
    return max(d, 0.0)


@dataclass
class SafetyTrace:
    """Per-frame safety metrics plus global minima with their timestamps."""

    t_ns: np.ndarray
    ttc_s: np.ndarray
    dmin_m: np.ndarray
    frame_gaps: list[dict]
    ttc_min: float = math.inf
    t_at_ttc_min: int | None = None
    d_min: float = math.inf
    t_at_d_min: int | None = None

    def __len__(self) -> int:
        return int(self.t_ns.size)


def d_min_trace(frames: list[list[AgentState]], ego_id: str) -> SafetyTrace:
    """Build the safety trace of an ego agent across frames.

    Every frame must contain the ego.  Frames without any other agent record
    +inf for both metrics.
    """
    ts, ttcs, dmins, gaps_per_frame = [], [], [], []
    for i, frame in enumerate(frames):
        ego = next((a for a in frame if a.agent_id == ego_id), None)
        if ego is None:
            raise ValueError(f"frame {i} does not contain ego agent {ego_id!r}")
        others = [a for a in frame if a.agent_id != ego_id]
        gaps = {a.agent_id: body_gap(ego, a) for a in others}
        frame_ttc = min((ttc_body(ego, a) for a in others), default=math.inf)
        frame_dmin = min(gaps.values(), default=math.inf)
        ts.append(ego.t_ns)
        ttcs.append(frame_ttc)
        dmins.append(frame_dmin)
        gaps_per_frame.append(gaps)
    trace = SafetyTrace(
        t_ns=np.array(ts, dtype=np.int64),
        ttc_s=np.array(ttcs, dtype=float),
        dmin_m=np.array(dmins, dtype=float),
        frame_gaps=gaps_per_frame,
    )
    for i in range(len(trace)):
        if trace.ttc_s[i] < trace.ttc_min:
            trace.ttc_min = float(trace.ttc_s[i])
            trace.t_at_ttc_min = int(trace.t_ns[i])
        if trace.dmin_m[i] < trace.d_min:
            trace.d_min = float(trace.dmin_m[i])
            trace.t_at_d_min = int(trace.t_ns[i])
    return trace


def finite_or_none(v: float | None) -> float | None:
    """A metric as written to JSON, which has no infinity: non-finite is null."""
    return v if v is not None and math.isfinite(v) else None


@dataclass(frozen=True)
class SafetyEvent:
    kind: str        # GlobalMin | Valley | ThresholdCross
    metric: str      # TTC | Dmin
    t_ns: int
    value: float
    prominence: float | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "metric": self.metric,
            "t_ns": self.t_ns,
            "value": finite_or_none(self.value),
            "prominence": finite_or_none(self.prominence),
        }


def _valley_prominence(values: np.ndarray, i: int) -> float:
    """Topographic prominence of a local minimum in a 1-D series."""
    v = values[i]
    left_peak = -math.inf
    for j in range(i - 1, -1, -1):
        if values[j] < v:
            break
        left_peak = max(left_peak, values[j])
    right_peak = -math.inf
    for j in range(i + 1, values.size):
        if values[j] < v:
            break
        right_peak = max(right_peak, values[j])
    if not math.isfinite(left_peak) and not math.isfinite(right_peak):
        return 0.0
    ref = min(p for p in (left_peak, right_peak) if math.isfinite(p)) \
        if (math.isfinite(left_peak) and math.isfinite(right_peak)) \
        else max(left_peak, right_peak)
    return float(ref - v)


def _find_valleys(t_ns, values, min_prominence, min_separation_ns, exclude_idx):
    candidates = []
    for i in range(1, values.size - 1):
        if not math.isfinite(values[i]) or i == exclude_idx:
            continue
        if values[i - 1] > values[i] < values[i + 1]:
            prom = _valley_prominence(values, i)
            if prom >= min_prominence:
                candidates.append((float(values[i]), int(i), prom))
    candidates.sort()  # ascending by value, then index
    chosen = []
    for val, i, prom in candidates:
        if all(abs(int(t_ns[i]) - int(t_ns[j])) >= min_separation_ns for _, j, _ in chosen):
            chosen.append((val, i, prom))
    return chosen


def extract_events(
    trace: SafetyTrace,
    ttc_threshold_s: float = 1.5,
    ttc_prominence_s: float = 0.3,
    dmin_prominence_m: float = 1.0,
    min_separation_s: float = 5.0,
) -> list[SafetyEvent]:
    """Global minima, TTC alert crossings, collisions, and valleys of a trace.

    Valleys are strict local minima with at least the requested prominence
    and pairwise separation; the global-minimum frame itself is excluded from
    valley candidates and reported as its own event.  Every fall of the TTC
    below the alert threshold emits one crossing; entering body contact
    (gap 0) emits a crossing on the distance metric.
    """
    if len(trace) == 0:
        raise ValueError("trace is empty")
    events: list[SafetyEvent] = []
    sep_ns = round(min_separation_s * 1e9)

    specs = [
        ("TTC", trace.ttc_s, trace.ttc_min, trace.t_at_ttc_min, ttc_prominence_s),
        ("Dmin", trace.dmin_m, trace.d_min, trace.t_at_d_min, dmin_prominence_m),
    ]
    for metric, series, gmin, t_gmin, prom_min in specs:
        if t_gmin is not None and math.isfinite(gmin):
            events.append(SafetyEvent("GlobalMin", metric, t_gmin, gmin))

    # Falling crossings of the TTC alert threshold.
    below = trace.ttc_s < ttc_threshold_s
    for i in range(len(trace)):
        if below[i] and (i == 0 or not below[i - 1]):
            events.append(SafetyEvent("ThresholdCross", "TTC", int(trace.t_ns[i]), float(trace.ttc_s[i])))
    # Collision onset: the body gap reaching zero.
    zero = trace.dmin_m <= 0.0
    for i in range(len(trace)):
        if zero[i] and (i == 0 or not zero[i - 1]):
            events.append(SafetyEvent("ThresholdCross", "Dmin", int(trace.t_ns[i]), 0.0))

    for metric, series, gmin, t_gmin, prom_min in specs:
        exclude = None
        if t_gmin is not None:
            hits = np.nonzero((trace.t_ns == t_gmin) & (series == gmin))[0]
            exclude = int(hits[0]) if hits.size else None
        for val, i, prom in _find_valleys(trace.t_ns, series, prom_min, sep_ns, exclude):
            events.append(SafetyEvent("Valley", metric, int(trace.t_ns[i]), val, prominence=prom))
    return events


def write_safety_csv(trace: SafetyTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_ns,ttc_s,dmin_m\n")
        for t, ttc, dm in zip(trace.t_ns, trace.ttc_s, trace.dmin_m):
            ttc_s = "inf" if not math.isfinite(ttc) else repr(float(ttc))
            dm_s = "inf" if not math.isfinite(dm) else repr(float(dm))
            fh.write(f"{int(t)},{ttc_s},{dm_s}\n")
