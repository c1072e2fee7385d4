"""Reference-path error metrology.

A reference path is an arc-length-parameterized 2-D polyline (optionally
closed).  Trajectory points are scored against it with the cross-track error
(distance to the closest path point) and the along-track error (signed
arc-length deviation from a scheduled position).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Projection:
    """Closest path point to a query: the point, its arc length, its segment."""

    point: np.ndarray
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
        self._seg_start = seg_start
        self._seg_dir = d
        self._seg_len = lengths
        # Arc length at each vertex; for closed paths total includes the wrap.
        self.cumulative_arclength = np.concatenate([[0.0], np.cumsum(lengths)])[: v.shape[0]]
        self.total_length = float(np.sum(lengths))

    @property
    def n_segments(self) -> int:
        return self._seg_start.shape[0]

    def point_at(self, s: float) -> np.ndarray:
        """Position at arc length ``s`` (wraps on closed paths)."""
        s = self._wrap_s(s)
        idx = int(np.searchsorted(self.cumulative_arclength, s, side="right") - 1)
        idx = min(max(idx, 0), self.n_segments - 1)
        local = s - self.cumulative_arclength[idx]
        frac = local / self._seg_len[idx]
        return self._seg_start[idx] + frac * self._seg_dir[idx]

    def tangent_at(self, s: float) -> np.ndarray:
        s = self._wrap_s(s)
        idx = int(np.searchsorted(self.cumulative_arclength, s, side="right") - 1)
        idx = min(max(idx, 0), self.n_segments - 1)
        return self._seg_dir[idx] / self._seg_len[idx]

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

    def to_json_dict(self) -> dict:
        return {"closed": self.closed, "vertices": [[float(x), float(y)] for x, y in self.vertices]}

    @staticmethod
    def from_json_dict(obj: dict) -> "ReferencePath":
        return ReferencePath(obj["vertices"], closed=bool(obj["closed"]))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @staticmethod
    def load(path) -> "ReferencePath":
        with open(path, "r", encoding="utf-8") as fh:
            return ReferencePath.from_json_dict(json.load(fh))


def project(path: ReferencePath, p) -> Projection:
    """Closest point on the path to ``p``; ties resolved to the lowest segment index.

    Closed-form per segment: clamp the scalar projection onto each segment and
    keep the strictly best candidate, so earlier segments win exact ties.
    """
    p = np.asarray(p, dtype=float)
    rel = p - path._seg_start
    t = (rel[:, 0] * path._seg_dir[:, 0] + rel[:, 1] * path._seg_dir[:, 1]) / (path._seg_len**2)
    t = np.clip(t, 0.0, 1.0)
    cand = path._seg_start + t[:, None] * path._seg_dir
    d2 = (p[0] - cand[:, 0]) ** 2 + (p[1] - cand[:, 1]) ** 2
    idx = int(np.argmin(d2))  # argmin returns the first (lowest) index on ties
    s = float(path.cumulative_arclength[idx] + t[idx] * path._seg_len[idx])
    return Projection(point=cand[idx].copy(), arclength=s, segment_index=idx)


def cte(path: ReferencePath, p) -> float:
    """Cross-track error: Euclidean distance from ``p`` to its path projection."""
    p = np.asarray(p, dtype=float)
    proj = project(path, p)
    return float(np.hypot(p[0] - proj.point[0], p[1] - proj.point[1]))


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


def trajectory_stats(path: ReferencePath, traj) -> MetricSummary:
    """Summary of per-sample cross-track errors for a trajectory."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    values = [cte(path, (s.x, s.y)) for s in traj]
    return summarize(values)


def track_errors(path: ReferencePath, samples, goal_speed: float):
    """Yield the path projection and the along-track error of each
    ``(t_ns, x, y, heading)`` sample.

    The along-track schedule assumes constant progress at ``goal_speed``
    from the first sample, wrapped on a closed path and clamped at the end
    of an open one.
    """
    t0 = samples[0][0] if samples else 0
    for t_ns, x, y, _heading in samples:
        sched = path._wrap_s(goal_speed * (t_ns - t0) / 1e9)
        yield project(path, (x, y)), ate(path, (x, y), sched)


def write_trajectory_csv(path_obj: ReferencePath, samples, out_path, goal_speed: float) -> None:
    """Export ``t_ns,x,y,heading,cte,ate`` rows for ``(t_ns, x, y, heading)`` samples."""
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t_ns,x,y,heading,cte,ate\n")
        errors = track_errors(path_obj, samples, goal_speed)
        for (t_ns, x, y, heading), (proj, a) in zip(samples, errors):
            # np.hypot, as ``cte`` computes it; the report's math.hypot can
            # differ from it in the last bit on diagonal segments.
            c = float(np.hypot(x - proj.point[0], y - proj.point[1]))
            fh.write(f"{t_ns},{x!r},{y!r},{heading!r},{c!r},{a!r}\n")
