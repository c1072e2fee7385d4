"""Reference-path error metrology.

A reference path is an arc-length-parameterized 2-D polyline (optionally
closed).  Trajectory points are scored against it with the cross-track error
(distance to the closest path point) and the along-track error (signed
arc-length deviation from a scheduled position).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TAU = 2.0 * math.pi


def normalize_heading(h: float) -> float:
    """Wrap a heading into (-pi, pi]."""
    r = math.remainder(h, TAU)
    if r <= -math.pi:
        r += TAU
    return r


@dataclass(frozen=True)
class TrajectorySample:
    """One measured vehicle state: time, planar position, heading."""

    t_ns: int
    x: float
    y: float
    heading: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError("trajectory sample must have finite coordinates")


class Projection(NamedTuple):
    """Closest path point to a query: the point ``(x, y)``, its arc length,
    its segment."""

    point: tuple[float, float]
    arclength: float
    segment_index: int


class PathError(ValueError):
    """Raised for degenerate path definitions or out-of-range queries."""


class ReferencePath:
    """Arc-length-parameterized polyline, open or closed.

    For a closed path the first vertex must differ from the last; the
    wrap-around segment from the last vertex back to the first is implied.
    """

    def __init__(self, vertices, closed: bool = False) -> None:
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 2:
            raise PathError("path needs at least 2 planar vertices")
        if not np.isfinite(v).all():
            raise PathError("path vertices must be finite")
        if closed and np.array_equal(v[0], v[-1]):
            raise PathError("closed path must not repeat the first vertex")
        seg_start = v
        seg_end = np.vstack([v[1:], v[:1]]) if closed else v[1:]
        if not closed:
            seg_start = v[:-1]
        d = seg_end - seg_start
        lengths = np.hypot(d[:, 0], d[:, 1])
        if np.any(lengths <= 0.0):
            raise PathError("path contains a zero-length segment")
        self.vertices = v
        self.closed = bool(closed)
        # Arc length at each vertex; for closed paths total includes the wrap.
        self.cumulative_arclength = np.concatenate([[0.0], np.cumsum(lengths)])[: v.shape[0]]
        self.total_length = float(np.sum(lengths))
        # Per-segment Python floats (x0, y0, dx, dy, length, length^2, arc length
        # at the start) for the per-sample kernels below: on a path of a few
        # segments, numpy's per-call overhead costs more than the arithmetic.
        self._cum = self.cumulative_arclength.tolist()
        self._segs = [(x0, y0, dx, dy, ln, ln * ln, s0) for (x0, y0), (dx, dy), ln, s0
                      in zip(seg_start.tolist(), d.tolist(), lengths.tolist(), self._cum)]

    def pose_at(self, s: float) -> tuple[float, float, float, float]:
        """``(x, y, tx, ty)``: position and unit tangent at arc length ``s``
        (wraps on closed paths)."""
        s = self._wrap_s(s)
        idx = min(max(bisect_right(self._cum, s) - 1, 0), len(self._segs) - 1)
        x0, y0, dx, dy, ln, _ln2, s0 = self._segs[idx]
        frac = (s - s0) / ln
        return x0 + frac * dx, y0 + frac * dy, dx / ln, dy / ln

    def start_pose(self) -> list[float]:
        """``[x, y, heading]`` at the first vertex, facing along the first segment."""
        _x, _y, tx, ty = self.pose_at(0.0)
        return [float(self.vertices[0][0]), float(self.vertices[0][1]), math.atan2(ty, tx)]

    def _wrap_s(self, s: float) -> float:
        if self.closed:
            s = math.fmod(s, self.total_length)
            if s < 0.0:
                s += self.total_length
            return s
        return min(max(s, 0.0), self.total_length)

    def lap_delta(self, d: float) -> float:
        """Arc-length difference ``d`` wrapped to the nearest lap on a closed
        path, so ``|d| <= total_length / 2``; unchanged on an open path."""
        if not self.closed:
            return d
        half = self.total_length / 2.0
        d = math.fmod(d + half, self.total_length)
        if d < 0.0:
            d += self.total_length
        return d - half


def project(path: ReferencePath, p) -> Projection:
    """Closest point on the path to ``p``; ties resolved to the lowest segment index.

    Closed-form per segment: clamp the scalar projection onto each segment and
    keep the strictly best candidate, so earlier segments win exact ties.
    """
    px, py = float(p[0]), float(p[1])
    best = math.inf
    for i, (x0, y0, dx, dy, ln, ln2, s0) in enumerate(path._segs):
        t = ((px - x0) * dx + (py - y0) * dy) / ln2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        cx, cy = x0 + t * dx, y0 + t * dy
        ex, ey = px - cx, py - cy
        d2 = ex * ex + ey * ey
        # Strict: the lowest segment index wins a tie; segment 0 is kept even
        # when no distance compares (a NaN query), as np.argmin would.
        if d2 < best or i == 0:
            best, idx, bx, by, s = d2, i, cx, cy, s0 + t * ln
    return Projection((bx, by), s, idx)


def ate(path: ReferencePath, p, s_d: float) -> float:
    """Along-track error: arc length of the projection minus the scheduled
    arc length ``s_d`` (positive = ahead of schedule).

    On closed paths the difference is wrapped to the nearest lap, so
    ``|ate| <= total_length / 2``.
    """
    if not (0.0 <= s_d <= path.total_length):
        raise PathError(f"scheduled arc length {s_d} outside [0, {path.total_length}]")
    return float(path.lap_delta(project(path, p).arclength - s_d))


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate error statistics of one series (same unit as the input)."""

    mean: float
    std: float
    rmse: float
    mae: float
    p95: float
    n: int


def nearest_rank_p95(values: np.ndarray) -> float:
    """Nearest-rank 95th percentile of the absolute values."""
    a = np.sort(np.abs(np.asarray(values, dtype=float)))
    rank = math.ceil(0.95 * a.size)  # 1-based
    return float(a[max(rank, 1) - 1])


def summarize(values) -> MetricSummary:
    """Mean / sample std / RMSE / MAE / nearest-rank P95 of a series."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise ValueError("cannot summarize an empty series")
    mean = float(np.mean(a))
    std = float(np.std(a, ddof=1)) if a.size > 1 else 0.0
    rmse = float(np.sqrt(np.mean(a**2)))
    mae = float(np.mean(np.abs(a)))
    return MetricSummary(mean=mean, std=std, rmse=rmse, mae=mae, p95=nearest_rank_p95(a), n=int(a.size))


def track_errors(path: ReferencePath, samples, goal_speed: float):
    """Yield ``(arc length of the path projection, cross-track error,
    along-track error)`` for each ``(t_ns, x, y, heading)`` sample.

    The along-track schedule assumes constant progress at ``goal_speed``
    from the first sample, wrapped on a closed path and clamped at the end
    of an open one.
    """
    t0 = samples[0][0] if samples else 0
    for t_ns, x, y, _heading in samples:
        sched = path._wrap_s(goal_speed * (t_ns - t0) / 1e9)
        proj = project(path, (x, y))
        yield (proj.arclength, math.hypot(x - proj.point[0], y - proj.point[1]),
               ate(path, (x, y), sched))


def write_trajectory_csv(path_obj: ReferencePath, samples, out_path, goal_speed: float) -> None:
    """Export ``t_ns,x,y,heading,cte,ate`` rows for ``(t_ns, x, y, heading)`` samples."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_ns,x,y,heading,cte,ate\n")
        errors = track_errors(path_obj, samples, goal_speed)
        for (t_ns, x, y, heading), (_s, c, a) in zip(samples, errors):
            fh.write(f"{t_ns},{x!r},{y!r},{heading!r},{c!r},{a!r}\n")
