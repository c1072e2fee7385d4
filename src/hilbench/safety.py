"""Interaction safety metrics over synchronized multi-agent states.

Agents are circles (circumscribed body footprints), each one ``AgentState``,
which rejects a radius that is not positive (NaN too) or non-finite
kinematics as it is built.  Time-to-collision uses constant-velocity
extrapolation of the inter-body gap and solves the contact time in closed
form; ``frame_metrics`` scores one frame, the ego against the other agents,
and the minimum-gap trace keeps the per-frame columns it is given (gaps
floored at zero: overlap counts as collision) plus the frame of each global
minimum, found once.  Event extraction turns a trace into global minima,
alert-threshold crossings, and prominence-filtered valleys, each the dict that
the report lists.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(slots=True)
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
        if not self.radius > 0.0:
            raise ValueError("footprint radius must be positive")
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.vx) and math.isfinite(self.vy)):
            raise ValueError("agent kinematics must be finite")


def contact_ttc(dpx: float, dpy: float, dvx: float, dvy: float, rsum: float) -> float:
    """Seconds until two bodies at relative position ``(dpx, dpy)`` and
    relative velocity ``(dvx, dvy)`` touch, with ``rsum`` the sum of their radii.

    Solves ||dp + dv*s|| = rsum for the smallest s > 0; returns +inf when the
    bodies never touch, and 0.0 when they already overlap.
    """
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


def contact_gap(dpx: float, dpy: float, rsum: float) -> float:
    """Gap between two bodies at relative position ``(dpx, dpy)`` whose radii
    sum to ``rsum``, floored at 0 (overlap counts as collision)."""
    return max(math.hypot(dpx, dpy) - rsum, 0.0)


@dataclass
class SafetyTrace:
    """Per-frame safety metrics, the three columns ``d_min_trace`` is given,
    plus each global minimum with the index and time of the first frame that
    holds it (None when the metric is +inf in every frame)."""

    t_ns: Sequence[int]
    ttc_s: Sequence[float]
    dmin_m: Sequence[float]
    ttc_min: float = math.inf
    i_ttc_min: int | None = None
    t_at_ttc_min: int | None = None
    d_min: float = math.inf
    i_d_min: int | None = None
    t_at_d_min: int | None = None

    def __len__(self) -> int:
        return len(self.t_ns)


def frame_metrics(ego: AgentState, others) -> tuple[float, float]:
    """One frame of a safety trace: ``(ttc, dmin)``, the least time-to-contact
    and body gap between ``ego`` and any agent of ``others``.  Without any
    other agent both metrics are +inf.
    """
    ex, ey, evx, evy, er = ego.x, ego.y, ego.vx, ego.vy, ego.radius
    ttc = dmin = math.inf
    for a in others:
        dpx, dpy, rsum = a.x - ex, a.y - ey, er + a.radius
        ttc = min(ttc, contact_ttc(dpx, dpy, a.vx - evx, a.vy - evy, rsum))
        dmin = min(dmin, contact_gap(dpx, dpy, rsum))
    return ttc, dmin


def d_min_trace(t_ns, ttc_s, dmin_m) -> SafetyTrace:
    """The safety trace of the frames whose times and ``frame_metrics`` are
    given as three columns of equal length, in frame order; the trace keeps
    the columns themselves.  Each global minimum is the first frame that
    holds it; a metric that is +inf in every frame has no frame.
    """
    trace = SafetyTrace(t_ns, ttc_s, dmin_m)
    for i, (t, ttc, dmin) in enumerate(zip(t_ns, ttc_s, dmin_m)):
        if ttc < trace.ttc_min:
            trace.ttc_min, trace.i_ttc_min, trace.t_at_ttc_min = ttc, i, t
        if dmin < trace.d_min:
            trace.d_min, trace.i_d_min, trace.t_at_d_min = dmin, i, t
    return trace


def finite_or_none(v: float | None) -> float | None:
    """A metric as written to JSON, which has no infinity: non-finite is null."""
    return v if v is not None and math.isfinite(v) else None


def _event(kind: str, metric: str, t_ns: int, value: float,
           prominence: float | None = None) -> dict:
    """One event as the report lists it: ``kind`` is GlobalMin, Valley or
    ThresholdCross and ``metric`` TTC or Dmin; a non-finite value or
    prominence is null (``finite_or_none``)."""
    return {"kind": kind, "metric": metric, "t_ns": t_ns, "value": finite_or_none(value),
            "prominence": finite_or_none(prominence)}


def _peaks_before_lower(values: list[float]) -> list[float]:
    """For each index i, the highest value between i and the nearest value to
    its left that is strictly lower than ``values[i]`` (the series start if
    none is); -inf when nothing lies between.

    One pass with a stack of ``(value, highest value since the entry below)``
    whose values strictly increase upwards.
    """
    peaks, stack = [], []
    for v in values:
        peak = -math.inf
        while stack and not stack[-1][0] < v:
            peak = max(peak, stack.pop()[1])
        peaks.append(peak)
        stack.append((v, max(peak, v)))
    return peaks


def _valley_prominence(v: float, left_peak: float, right_peak: float) -> float:
    """Topographic prominence of a local minimum ``v`` whose left and right
    peaks (``_peaks_before_lower``) are given."""
    if not math.isfinite(left_peak) and not math.isfinite(right_peak):
        return 0.0
    ref = min(left_peak, right_peak) \
        if (math.isfinite(left_peak) and math.isfinite(right_peak)) \
        else max(left_peak, right_peak)
    return float(ref - v)


def _find_valleys(t_ns, values, min_prominence, min_separation_ns, exclude_idx):
    left = _peaks_before_lower(values)
    right = _peaks_before_lower(values[::-1])[::-1]
    candidates = []
    for i in range(1, len(values) - 1):
        v = values[i]
        if not math.isfinite(v) or i == exclude_idx:
            continue
        if values[i - 1] > v < values[i + 1]:
            prom = _valley_prominence(v, left[i], right[i])
            if prom >= min_prominence:
                candidates.append((v, i, prom))
    candidates.sort()  # ascending by value, then index
    chosen = []
    for val, i, prom in candidates:
        if all(abs(t_ns[i] - t_ns[j]) >= min_separation_ns for _, j, _ in chosen):
            chosen.append((val, i, prom))
    return chosen


def extract_events(trace: SafetyTrace, report: dict) -> list[dict]:
    """Global minima, TTC alert crossings, collisions, and valleys of a trace,
    as the report's event dicts (``_event``), with the thresholds of
    ``report``, a resolved config's ``report`` section.

    Valleys are strict local minima with at least the section's prominence
    (``ttc_prominence_s``, ``dmin_prominence_m``) and pairwise separation
    (``min_separation_s``); the global-minimum frame itself is excluded from
    valley candidates and reported as its own event.  Every fall of the TTC
    below the alert threshold (``ttc_threshold_s``) emits one crossing;
    entering body contact (gap 0) emits a crossing on the distance metric.
    """
    events = []
    sep_ns = round(report["min_separation_s"] * 1e9)
    ttc_threshold_s = report["ttc_threshold_s"]

    t_ns = trace.t_ns
    specs = [
        ("TTC", trace.ttc_s, trace.ttc_min, trace.i_ttc_min, report["ttc_prominence_s"]),
        ("Dmin", trace.dmin_m, trace.d_min, trace.i_d_min, report["dmin_prominence_m"]),
    ]
    for metric, series, gmin, i_gmin, prom_min in specs:
        if i_gmin is not None and math.isfinite(gmin):
            events.append(_event("GlobalMin", metric, t_ns[i_gmin], gmin))

    # Falling crossings of the TTC alert threshold, then collision onsets:
    # the body gap reaching zero.
    below = zero = False
    for t, ttc in zip(t_ns, trace.ttc_s):
        if ttc < ttc_threshold_s and not below:
            events.append(_event("ThresholdCross", "TTC", t, ttc))
        below = ttc < ttc_threshold_s
    for t, dmin in zip(t_ns, trace.dmin_m):
        if dmin <= 0.0 and not zero:
            events.append(_event("ThresholdCross", "Dmin", t, 0.0))
        zero = dmin <= 0.0

    for metric, series, gmin, i_gmin, prom_min in specs:
        for val, i, prom in _find_valleys(t_ns, series, prom_min, sep_ns, i_gmin):
            events.append(_event("Valley", metric, t_ns[i], val, prom))
    return events


def write_safety_csv(trace: SafetyTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_ns,ttc_s,dmin_m\n")
        for t, ttc, dm in zip(trace.t_ns, trace.ttc_s, trace.dmin_m):
            ttc_s = "inf" if not math.isfinite(ttc) else repr(ttc)
            dm_s = "inf" if not math.isfinite(dm) else repr(dm)
            fh.write(f"{t},{ttc_s},{dm_s}\n")
