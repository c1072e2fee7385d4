import ast
import math
from pathlib import Path

import numpy as np
import pytest

from hilbench.config import ConfigError, resolve_distribution
from hilbench.core import rng_stream
from hilbench.links import sampler
from hilbench.safety import AgentState
from hilbench.spatial import ReferencePath, TrajectorySample
from hilbench.sut import Observation, PurePursuitParams, PurePursuitSut

STRAIGHT = ReferencePath([(0, 0), (20, 0)])
CONSTANT_LATENCY = {"mode": "constant", "ms": 15.48}


def bimodal(mean1_ms=10.0, std1_ms=2.0):
    return {"mode": "bimodal", "components": [
        {"mean_ms": mean1_ms, "std_ms": std1_ms, "weight": 0.6},
        {"mean_ms": 28.0, "std_ms": 3.0, "weight": 0.4},
    ]}


def resolved(latency) -> dict:
    """A controller latency as its config form resolves."""
    return resolve_distribution(latency, "sut.latency", kind_key="mode")


def latency_sampler(latency):
    """The ``sample_ms(rng)`` sampler the runner draws the controller latency with."""
    return sampler(resolved(latency), kind_key="mode")


def _reference_sut_latency_ms(mode, params, rng):
    """Reference draw of the controller latency: a constant, or a
    two-component mixture of Gaussians, each redrawn until non-negative."""
    if mode == "constant":
        return float(params["ms"])
    comps = params["components"]
    u = float(rng.random())
    comp = comps[0] if u < comps[0]["weight"] else comps[1]
    for _ in range(100):
        v = comp["mean_ms"] + comp["std_ms"] * float(rng.standard_normal())
        if v >= 0.0:
            return v
    return max(comp["mean_ms"], 0.0)


def make_sut(**params):
    return PurePursuitSut(PurePursuitParams(**params))


def obs(t_ns, x, y, heading, detections=(), route=STRAIGHT, goal=0.5):
    return Observation(TrajectorySample(t_ns, x, y, heading), tuple(detections), route, goal)


class TestPurePursuit:
    def test_aligned_on_straight_route_steers_zero(self):
        sut = make_sut()
        speed, steer = sut.step(obs(0, 5.0, 0.0, 0.0))
        assert steer == pytest.approx(0.0, abs=1e-9)
        assert speed == pytest.approx(0.5)

    def test_lateral_offset_steers_back(self):
        sut = make_sut()
        _speed, steer = sut.step(obs(0, 5.0, 0.5, 0.0))
        assert steer < 0.0  # path is below-right: steer negative

    def test_yield_on_blocking_detection(self):
        sut = make_sut(d_stop=0.5)
        det = AgentState("npc", 0, 5.48, 0.0, 0.0, 0.0, 0.1)  # gap 0.3 m ahead
        speed, _steer = sut.step(obs(0, 5.0, 0.0, 0.0, detections=[det]))
        assert speed == 0.0

    def test_far_detection_ignored(self):
        sut = make_sut(d_stop=0.5, t_h=2.0)
        det = AgentState("npc", 0, 15.0, 3.0, 0.0, 0.0, 0.1)
        speed, _steer = sut.step(obs(0, 5.0, 0.0, 0.0, detections=[det]))
        assert speed > 0.0

    def test_two_instances_identical(self):
        # A new controller starts from no state: the velocity estimate is its own.
        seq = [obs(int(k * 2e7), 0.1 * k, 0.01 * k, 0.0) for k in range(20)]
        a, b = make_sut(), make_sut()
        assert [a.step(o) for o in seq] == [b.step(o) for o in seq]

    def test_route_of_each_observation_takes_effect(self):
        # Same pose, different route: the command must follow the route of
        # the observation it answers.
        upward = ReferencePath([(0, 0), (0, 20)])
        sut = make_sut()
        _speed, along_x = sut.step(obs(0, 1.0, 0.0, 0.0, route=STRAIGHT))
        _speed, along_y = sut.step(obs(0, 1.0, 0.0, 0.0, route=upward))
        assert along_x == pytest.approx(0.0, abs=1e-9)
        assert along_y > 0.1  # steering left toward +y route

    def test_curvature_feedforward_slows_before_corner(self):
        corner = ReferencePath([(0, 0), (2, 0), (2, 2)])
        sut = make_sut(a_lat_max=0.3)
        far, _steer = sut.step(obs(0, 0.2, 0.0, 0.0, route=corner, goal=1.0))
        near, _steer = sut.step(obs(int(2e7), 1.8, 0.0, 0.0, route=corner, goal=1.0))
        assert near < far


def ashman_d(samples) -> float:
    """Ashman's D of a 1-D two-means split: |mu1 - mu2| / sqrt((s1^2 + s2^2) / 2).

    A forced split of a single Gaussian lands near 2.66; D > 4 is the
    bimodality verdict.
    """
    a = np.sort(np.asarray(samples, dtype=float))
    centers = np.array([a[0], a[-1]])
    for _ in range(100):
        split = np.abs(a[:, None] - centers[None, :]).argmin(axis=1)
        new = np.array([a[split == k].mean() for k in (0, 1)])
        if np.allclose(new, centers):
            break
        centers = new
    lo, hi = a[split == 0], a[split == 1]
    return float(abs(lo.mean() - hi.mean()) / math.sqrt((lo.var(ddof=1) + hi.var(ddof=1)) / 2.0))


class TestLatencyModels:
    def test_constant_has_zero_variance(self):
        sample_ms = latency_sampler(CONSTANT_LATENCY)
        rng = rng_stream(1, "x")
        vals = [sample_ms(rng) for _ in range(100)]
        assert min(vals) == max(vals) == 15.48

    def test_bimodal_preset_is_bimodal(self):
        sample_ms = latency_sampler(bimodal())
        rng = rng_stream(2, "x")
        samples = [sample_ms(rng) for _ in range(2000)]
        assert ashman_d(samples) > 4.0

    def test_unimodal_stays_below_the_verdict(self):
        # A forced two-means split of one Gaussian sits near D = 2.66.
        rng = rng_stream(3, "x")
        unimodal = list(15.0 + 2.0 * rng.standard_normal(2000))
        assert ashman_d(unimodal) < 4.0

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240808])
    def test_draws_equal_the_reference_controller_latency(self, seed):
        # The sampler must reproduce the reference draw for draw from the
        # same stream, or re-running a recorded config would no longer
        # reproduce its audit log.
        latencies = [
            bimodal(),
            # A component this close to 0 truncates often.
            bimodal(mean1_ms=1.0, std1_ms=5.0),
            CONSTANT_LATENCY,
        ]
        for latency in latencies:
            params = resolved(latency)
            sample_ms = sampler(params, kind_key="mode")
            ref_rng, rng = rng_stream(seed, "sut.lat"), rng_stream(seed, "sut.lat")
            ref = [_reference_sut_latency_ms(params["mode"], params, ref_rng)
                   for _ in range(2000)]
            assert [sample_ms(rng) for _ in range(2000)] == ref

    def test_weights_validated(self):
        with pytest.raises(ConfigError) as exc:
            resolved({"mode": "bimodal", "components": [
                {"mean_ms": 10, "std_ms": 1, "weight": 0.7},
                {"mean_ms": 20, "std_ms": 1, "weight": 0.7},
            ]})
        assert exc.value.path == "sut.latency.components"


def _imported_modules(src: str) -> set[str]:
    """Last dotted part of every module an ``import`` in ``src`` names."""
    names = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names |= {a.name for a in node.names}
    return {name.split(".")[-1] for name in names}


class TestBlackBoxDiscipline:
    def test_module_has_no_platform_imports(self):
        # The controller may see only the observation data model: its module
        # must not import the plant, link, or orchestration layers.  The
        # runner draws its latency and owns time, so the platform's random
        # streams and time conversions in ``core`` are out of bounds too.
        src = Path(__import__("hilbench.sut", fromlist=["x"]).__file__).read_text()
        forbidden = {"plant", "links", "orchestrator", "config", "cli", "temporal", "core"}
        assert not _imported_modules(src) & forbidden

    @pytest.mark.parametrize("line", [
        "from .links import StageLatencyModel", "from . import config",
        "import hilbench.plant", "from hilbench.orchestrator import Runner",
    ])
    def test_import_scan_sees_every_import_form(self, line):
        assert _imported_modules(line) & {"links", "config", "plant", "orchestrator"}

