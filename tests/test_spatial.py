import math

import numpy as np
import pytest

from hilbench.core import rng_stream
from hilbench.spatial import (
    PathError,
    ReferencePath,
    TrajectorySample,
    ate,
    normalize_heading,
    project,
    summarize,
    track_errors,
)

UNIT_SQUARE = ReferencePath([(0, 0), (1, 0), (1, 1), (0, 1)], closed=True)


def cte(path, p):
    """Cross-track error of one point, as ``track_errors`` reports it."""
    ((c, _a),) = track_errors(path, [(0, float(p[0]), float(p[1]), 0.0)], 0.0)
    return c


def cte_summary(path, traj):
    """Summary of the ``track_errors`` cross-track errors of a trajectory."""
    samples = [(q.t_ns, q.x, q.y, q.heading) for q in traj]
    return summarize([c for c, _a in track_errors(path, samples, 0.0)])


def random_path(rng, n=20, closed=False):
    # Random walk with non-degenerate steps.
    steps = rng.uniform(0.1, 1.0, size=(n - 1, 1)) * _unit(rng, n - 1)
    verts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
    return ReferencePath(verts, closed=False) if not closed else ReferencePath(verts, closed=True)


def _unit(rng, n):
    ang = rng.uniform(0, 2 * math.pi, size=n)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def dense_min_distance(path, p, n=1_000_000):
    """Brute-force oracle: min distance over ~n path samples.

    Samples are spread per segment (endpoints included) so polyline vertices
    are sampled exactly; this keeps the oracle's own discretization error
    second order everywhere.
    """
    verts = path.vertices
    if path.closed:
        verts = np.vstack([verts, verts[:1]])
    seg = np.diff(verts, axis=0)
    lengths = np.hypot(seg[:, 0], seg[:, 1])
    best = math.inf
    for i, ln in enumerate(lengths):
        k = max(int(round(n * ln / lengths.sum())), 2)
        t = np.linspace(0.0, 1.0, k)
        x = verts[i, 0] + t * seg[i, 0]
        y = verts[i, 1] + t * seg[i, 1]
        d2 = (x - p[0]) ** 2 + (y - p[1]) ** 2
        best = min(best, float(d2.min()))
    return math.sqrt(best)


class TestPathConstruction:
    def test_requires_two_vertices(self):
        with pytest.raises(PathError):
            ReferencePath([(0, 0)])

    def test_rejects_zero_length_segment(self):
        with pytest.raises(PathError):
            ReferencePath([(0, 0), (0, 0), (1, 0)])

    def test_closed_path_must_not_repeat_first_vertex(self):
        with pytest.raises(PathError):
            ReferencePath([(0, 0), (1, 0), (0, 0)], closed=True)

    def test_arclength_table(self):
        p = ReferencePath([(0, 0), (3, 0), (3, 4)])
        assert list(p.cumulative_arclength) == [0.0, 3.0, 7.0]
        assert p.total_length == 7.0

    def test_closed_total_includes_wrap(self):
        assert UNIT_SQUARE.total_length == 4.0


class TestTrajectorySample:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "heading"])
    def test_non_finite_coordinate_rejected(self, field, bad):
        coords = {"x": 1.0, "y": 2.0, "heading": 0.5, field: bad}
        with pytest.raises(ValueError, match="^trajectory sample must have finite coordinates$"):
            TrajectorySample(0, **coords)

    def test_fields(self):
        q = TrajectorySample(7, 1.0, 2.0, 0.5)
        assert (q.t_ns, q.x, q.y, q.heading) == (7, 1.0, 2.0, 0.5)


class TestProjection:
    def test_point_on_path(self):
        pr = project(UNIT_SQUARE, (0.5, 0.0))
        assert np.allclose(pr.point, [0.5, 0.0])
        assert pr.arclength == pytest.approx(0.5)
        assert pr.segment_index == 0

    def test_center_tie_breaks_to_lowest_segment(self):
        pr = project(UNIT_SQUARE, (0.5, 0.5))
        assert pr.segment_index == 0
        assert np.allclose(pr.point, [0.5, 0.0])

    def test_matches_dense_oracle(self):
        rng = rng_stream(7, "spatial.test")
        for _ in range(25):
            path = random_path(rng)
            p = rng.uniform(-2, 8, size=2)
            d = cte(path, p)
            oracle = dense_min_distance(path, p, n=200_000)
            assert d <= oracle + 1e-9
            assert abs(d - oracle) < 1e-6

    def test_cte_projection_consistency(self):
        rng = rng_stream(11, "spatial.test")
        for _ in range(50):
            path = random_path(rng, n=8)
            p = rng.uniform(-1, 5, size=2)
            pr = project(path, p)
            assert cte(path, p) == pytest.approx(
                math.hypot(p[0] - pr.point[0], p[1] - pr.point[1]), abs=0.0)


def reference_segments(path):
    """The per-segment arrays of the numpy kernels below: start, direction, length."""
    v = path.vertices
    end = np.vstack([v[1:], v[:1]]) if path.closed else v[1:]
    start = v if path.closed else v[:-1]
    d = end - start
    return start, d, np.hypot(d[:, 0], d[:, 1])


def reference_project(path, p):
    """The array formulation of ``project``: every segment at once, np.argmin."""
    start, d, length = reference_segments(path)
    p = np.asarray(p, dtype=float)
    rel = p - start
    t = np.clip((rel[:, 0] * d[:, 0] + rel[:, 1] * d[:, 1]) / (length**2), 0.0, 1.0)
    cand = start + t[:, None] * d
    d2 = (p[0] - cand[:, 0]) ** 2 + (p[1] - cand[:, 1]) ** 2
    idx = int(np.argmin(d2))
    s = float(path.cumulative_arclength[idx] + t[idx] * length[idx])
    return cand[idx].copy(), s, idx


def _reference_segment_at(path, s):
    s = path._wrap_s(s)
    idx = int(np.searchsorted(path.cumulative_arclength, s, side="right") - 1)
    return s, min(max(idx, 0), len(reference_segments(path)[2]) - 1)


def reference_point_at(path, s):
    start, d, length = reference_segments(path)
    s, idx = _reference_segment_at(path, s)
    return start[idx] + (s - path.cumulative_arclength[idx]) / length[idx] * d[idx]


def reference_tangent_at(path, s):
    _start, d, length = reference_segments(path)
    _s, idx = _reference_segment_at(path, s)
    return d[idx] / length[idx]


OCTAGON = ReferencePath([(2.0 + 1.5 * math.cos(k * math.pi / 4), 1.0 + 1.5 * math.sin(k * math.pi / 4))
                         for k in range(8)], closed=True)
OPEN_ZIGZAG = ReferencePath([(0.0, 0.0), (1.3, 0.4), (2.1, -0.7), (3.0, 0.2), (2.2, 1.9)])


class TestScalarKernelsMatchArrayReference:
    """``project`` and ``pose_at`` equal their numpy array
    formulation bit for bit, ties and out-of-range arc lengths included."""

    PATHS = {"square": UNIT_SQUARE, "octagon": OCTAGON, "open": OPEN_ZIGZAG}

    @staticmethod
    def assert_projection_equal(path, p):
        got = project(path, p)
        point, s, idx = reference_project(path, p)
        assert type(got.point) is tuple and len(got.point) == 2, p
        assert all(type(v) is float for v in got.point), p
        assert [v.hex() for v in got.point] == [v.hex() for v in point.tolist()], p
        assert (got.arclength, got.segment_index) == (s, idx), p

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_project_on_seeded_random_points(self, name):
        path = self.PATHS[name]
        rng = rng_stream(41, f"spatial.scalar.{name}")
        lo = path.vertices.min(axis=0) - 1.0
        hi = path.vertices.max(axis=0) + 1.0
        for p in rng.uniform(lo, hi, size=(2000, 2)):
            self.assert_projection_equal(path, p)

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_project_on_vertices_and_equidistant_ties(self, name):
        path = self.PATHS[name]
        centroid = path.vertices.mean(axis=0)
        points = [centroid, *path.vertices]
        # Points on the bisector of each corner are equidistant from both
        # segments that meet there.
        for a, b, c in zip(path.vertices, path.vertices[1:], path.vertices[2:]):
            u = (a - b) / np.hypot(*(a - b))
            w = (c - b) / np.hypot(*(c - b))
            for k in (0.05, 0.3, 0.7):
                points += [b + k * (u + w), b - k * (u + w)]
        for p in points:
            self.assert_projection_equal(path, p)
        if name == "square":
            assert project(path, (0.5, 0.5)).segment_index == 0

    @pytest.mark.parametrize("name", sorted(PATHS))
    def test_point_and_tangent_at_any_arc_length(self, name):
        path = self.PATHS[name]
        total = path.total_length
        rng = rng_stream(43, f"spatial.scalar.{name}")
        arcs = [*rng.uniform(-2.5 * total, 2.5 * total, size=500).tolist(),
                *path.cumulative_arclength.tolist(), -1e-12, -0.0, total, total + 1e-9, -total]
        for s in arcs:
            pose = path.pose_at(s)
            assert all(type(v) is float for v in pose), s
            x, y, tx, ty = pose
            assert [x, y] == reference_point_at(path, s).tolist(), s
            assert [tx, ty] == reference_tangent_at(path, s).tolist(), s


class TestCte:
    def test_zero_on_path(self):
        assert cte(UNIT_SQUARE, (0.25, 0.0)) == 0.0

    def test_perpendicular_offset(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        assert cte(straight, (0.3, 1.0)) == pytest.approx(1.0)

    def test_rigid_invariance(self):
        rng = rng_stream(3, "spatial.test")
        for _ in range(50):
            path = random_path(rng, n=10)
            p = rng.uniform(-1, 4, size=2)
            theta = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(-5, 5, size=2)
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            moved = ReferencePath(path.vertices @ rot.T + t, closed=False)
            assert cte(moved, rot @ p + t) == pytest.approx(cte(path, p), abs=1e-9)


class TestAte:
    def test_on_schedule_is_zero(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        assert ate(straight, (4.0, 0.0), 4.0) == pytest.approx(0.0)

    def test_ahead_is_positive(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        assert ate(straight, (6.0, 0.0), 4.0) == pytest.approx(2.0)

    def test_out_of_range_schedule_rejected(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        with pytest.raises(PathError):
            ate(straight, (5.0, 0.0), 11.0)

    def test_closed_path_wraps_to_nearest_lap(self):
        # Slightly behind the start looks like -0.2, not +3.8.
        assert ate(UNIT_SQUARE, (0.0, 0.2), 0.0) == pytest.approx(-0.2)
        assert abs(ate(UNIT_SQUARE, (0.5, 0.0), 3.9)) == pytest.approx(0.6)

    def test_moving_forward_increases_ate(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        values = [ate(straight, (x, 0.3), 5.0) for x in np.linspace(1, 9, 15)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_oracle_arclength(self):
        rng = rng_stream(19, "spatial.test")
        for _ in range(10):
            path = random_path(rng, n=12)
            p = rng.uniform(0, 4, size=2)
            s_d = float(rng.uniform(0, path.total_length))
            got = ate(path, p, s_d)
            # Dense-sample the projection arclength.
            n = 400_000
            s = np.linspace(0.0, path.total_length, n)
            xs = np.interp(s, path.cumulative_arclength, path.vertices[:, 0])
            ys = np.interp(s, path.cumulative_arclength, path.vertices[:, 1])
            i = int(np.argmin((xs - p[0]) ** 2 + (ys - p[1]) ** 2))
            assert got == pytest.approx(s[i] - s_d, abs=1e-4)


class TestTrackErrors:
    def test_lap_delta_wraps_only_on_closed_paths(self):
        assert UNIT_SQUARE.lap_delta(3.9) == pytest.approx(-0.1)
        assert UNIT_SQUARE.lap_delta(-3.9) == pytest.approx(0.1)
        assert ReferencePath([(0, 0), (10, 0)]).lap_delta(9.5) == 9.5

    def test_schedule_wraps_on_closed_and_clamps_on_open_paths(self):
        # 1 m/s for 5 s is 1 m into the second lap of the 4 m square.
        samples = [(0, 0.0, 0.0, 0.0), (5_000_000_000, 1.0, 0.0, 0.0)]
        assert [a for _, a in track_errors(UNIT_SQUARE, samples, 1.0)] == pytest.approx([0.0, 0.0])
        # 12 s at 1 m/s is past the end of a 10 m line: the schedule stops there.
        straight = ReferencePath([(0, 0), (10, 0)])
        samples = [(0, 0.0, 0.0, 0.0), (12_000_000_000, 10.0, 0.5, 0.0)]
        assert [a for _, a in track_errors(straight, samples, 1.0)] == pytest.approx([0.0, 0.0])
        assert [project(straight, (x, y)).arclength for _t, x, y, _h in samples] == \
            pytest.approx([0.0, 10.0])


class TestSummaries:
    def test_all_zero(self):
        s = summarize([0.0, 0.0, 0.0])
        assert s == {"mean": 0, "std": 0, "rmse": 0, "mae": 0, "p95": 0, "n": 3}

    def test_constant_offset(self):
        straight = ReferencePath([(0, 0), (10, 0)])
        traj = [TrajectorySample(i, x, 0.1, 0.0) for i, x in enumerate(np.linspace(0, 10, 11))]
        s = cte_summary(straight, traj)
        assert s["mean"] == pytest.approx(0.1)
        assert s["rmse"] == pytest.approx(0.1)
        assert s["mae"] == pytest.approx(0.1)
        assert s["p95"] == pytest.approx(0.1)
        assert s["std"] == pytest.approx(0.0)

    def test_rmse_identity(self):
        rng = rng_stream(5, "spatial.test")
        for _ in range(20):
            vals = rng.normal(2.0, 1.5, size=int(rng.integers(2, 200)))
            s = summarize(vals)
            n = len(vals)
            assert s["rmse"]**2 == pytest.approx(s["mean"]**2 + s["std"]**2 * (n - 1) / n, rel=1e-9)

    def test_p95_nearest_rank(self):
        vals = list(range(1, 101))  # p95 of 1..100 is 95 by nearest rank
        assert summarize(vals)["p95"] == 95

    def test_matches_independent_recomputation(self):
        rng = rng_stream(23, "spatial.test")
        path = random_path(rng, n=15)
        traj = [TrajectorySample(i, *rng.uniform(0, 4, size=2), 0.0) for i in range(100)]
        s = cte_summary(path, traj)
        errs = np.array([math.dist((q.x, q.y), project(path, (q.x, q.y)).point) for q in traj])
        assert s["mean"] == pytest.approx(float(np.mean(errs)))
        assert s["rmse"] == pytest.approx(float(np.sqrt(np.mean(errs**2))))
        assert s["mae"] == pytest.approx(float(np.mean(np.abs(errs))))

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            cte_summary(UNIT_SQUARE, [])


class TestHeadingNormalization:
    def test_range(self):
        for h in np.linspace(-20, 20, 400):
            r = normalize_heading(float(h))
            assert -math.pi < r <= math.pi

    def test_pi_maps_to_pi(self):
        assert normalize_heading(math.pi) == pytest.approx(math.pi)
        assert normalize_heading(-math.pi) == pytest.approx(math.pi)
