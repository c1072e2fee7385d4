"""Byte pins of a stage-3 scenario run and a perturbed stage-2 sweep.

Both fixtures were written by ``hilbench.cli.main`` from the configs below
(stage 3: 6 s of the intersection scenario, seed 42; stage 2: the cliff-sweep
base with truncated-Gaussian command jitter and 5 % loss, delays 0 and 40 ms,
2 s each).  A live re-run must reproduce every pinned file byte for byte, the
``manifest.json`` that lists them included, and
``replay-report`` of each pinned audit log must reproduce its pinned report
(and, for stage 3, every other pinned file but the log and the manifest).
To regenerate a fixture on purpose, run the same command into the fixture
directory and say why in the change log.
"""

import json
from pathlib import Path

import pytest

from hilbench import cli

DATA = Path(__file__).parent / "data"
STAGE3_DATA = DATA / "golden_stage3"
STAGE2_DATA = DATA / "golden_stage2_perturbed"

STAGE3_CONFIG = {
    "schema_version": 1,
    "run_id": "golden-stage3",
    "seed": 42,
    "termination": {"duration_s": 6.0},
    "path": {"preset": "square-sandbox"},
    "gts": {"sample_period_ms": 20.0},
    "plant": {"preset": "calibrated"},
    "sut": {
        "name": "pure-pursuit",
        "goal_speed_mps": 0.3,
        "latency": {"mode": "constant", "ms": 15.48},
        "params": {"d_stop": 0.32, "t_h": 1.5},
    },
    "report": {"completion_corridor_m": 0.5, "sensing_range_m": 2.0},
    "scenario": {
        "trigger_zone": [1.0, 0.4, 1.6, 1.0],
        "npcs": [
            {"id": "npc1", "spawn": [2.9, 1.6, -1.5707963267948966],
             "route": {"closed": True, "vertices": [[2.9, 1.6], [2.9, 0.1], [2.1, 0.1], [2.1, 1.6]]},
             "speed": {"accel_mps2": 0.5, "cruise_mps": 0.30}, "radius_m": 0.10},
            {"id": "npc2", "spawn": [4.1, 1.4, 3.141592653589793],
             "route": {"closed": True, "vertices": [[4.1, 1.4], [3.0, 1.4], [3.0, 0.1], [4.1, 0.1]]},
             "speed": {"accel_mps2": 0.4, "cruise_mps": 0.25}, "radius_m": 0.12},
            {"id": "npc3", "spawn": [2.9, 1.9, 0.0],
             "route": {"closed": True, "vertices": [[2.9, 1.9], [4.1, 1.9], [4.1, 2.9], [2.9, 2.9]]},
             "speed": {"accel_mps2": 0.5, "cruise_mps": 0.32}, "radius_m": 0.08},
            {"id": "npc4", "spawn": [2.7, 4.1, 3.141592653589793],
             "route": {"closed": True, "vertices": [[2.7, 4.1], [1.7, 4.1], [1.7, 2.9], [2.7, 2.9]]},
             "speed": {"accel_mps2": 0.4, "cruise_mps": 0.28}, "radius_m": 0.11},
            {"id": "npc5", "spawn": [0.1, 2.7, 0.0],
             "route": {"closed": True, "vertices": [[0.1, 2.7], [1.3, 2.7], [1.3, 1.5], [0.1, 1.5]]},
             "speed": {"accel_mps2": 0.5, "cruise_mps": 0.22}, "radius_m": 0.09},
        ],
    },
}

STAGE2_CONFIG = {
    "schema_version": 1,
    "injected_delays_ms": [0, 40],
    "repetitions": 1,
    "base": {
        "schema_version": 1,
        "run_id": "golden-stage2-perturbed",
        "seed": 42,
        "termination": {"duration_s": 2.0},
        "path": {
            "closed": True,
            "vertices": [[1.5, 0.7], [2.7, 0.7], [3.5, 1.5], [3.5, 2.7],
                         [2.7, 3.5], [1.5, 3.5], [0.7, 2.7], [0.7, 1.5]],
        },
        "gts": {"sample_period_ms": 20.0},
        "plant": {"preset": "calibrated", "max_steer_rad": 0.35, "max_speed_mps": 3.0,
                  "steering": {"tau_p_s": 0.1}},
        "links": {
            "r2v": {
                "ingest": {"kind": "constant", "ms": 1.0},
                "adv": {"kind": "constant", "ms": 2.0},
                "sense": {"kind": "constant", "ms": 1.0},
            },
            "v2r": {
                "base": {"kind": "constant", "ms": 2.0},
                "perturbation": {
                    "jitter": {"kind": "gaussian_truncated", "mean_ms": 4.0, "std_ms": 12.0},
                    "loss_probability": 0.05,
                },
            },
        },
        "sut": {
            "name": "pure-pursuit",
            "goal_speed_mps": 1.18,
            "latency": {"mode": "constant", "ms": 2.0},
            "params": {"l_min": 0.28, "l_max": 0.28, "k_v": 0.0, "a_lat_max": 1.0},
        },
        "report": {"completion_corridor_m": 0.18},
    },
}

STAGE3_FILES = ("audit.ndjson", "report.json", "trajectory.csv", "latency.csv",
                "safety.csv", "events.json", "manifest.json")
STAGE2_POINTS = ("delay_0ms_rep0", "delay_40ms_rep0")
STAGE2_FILES = tuple(f"{p}/{n}" for p in STAGE2_POINTS for n in ("audit.ndjson", "report.json")) \
    + ("response_curve.csv", "manifest.json")


def _run(tmp_path_factory, command, config):
    root = tmp_path_factory.mktemp(command)
    cfg = root / "config.json"
    cfg.write_text(json.dumps(config))
    out = root / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "-q"]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def stage3_out(tmp_path_factory):
    return _run(tmp_path_factory, "stage3", STAGE3_CONFIG)


@pytest.fixture(scope="module")
def stage2_out(tmp_path_factory):
    return _run(tmp_path_factory, "stage2", STAGE2_CONFIG)


def _replayed_report(log, out):
    assert cli.main(["replay-report", "--log", str(log), "--out", str(out), "-q"]) == cli.EXIT_OK
    return (out / "report.json").read_bytes()


@pytest.mark.parametrize("name", STAGE3_FILES)
def test_stage3_rerun_reproduces_pinned_bytes(stage3_out, name):
    assert (stage3_out / name).read_bytes() == (STAGE3_DATA / name).read_bytes()


@pytest.fixture(scope="module")
def stage3_replay(tmp_path_factory):
    out = tmp_path_factory.mktemp("stage3_replay")
    _replayed_report(STAGE3_DATA / "audit.ndjson", out)
    return out


def test_stage3_replay_reproduces_pinned_report(stage3_replay):
    assert (stage3_replay / "report.json").read_bytes() == (STAGE3_DATA / "report.json").read_bytes()


@pytest.mark.parametrize("name", ("trajectory.csv", "latency.csv", "safety.csv", "events.json"))
def test_stage3_replay_rebuilds_every_pinned_file(stage3_replay, name):
    assert (stage3_replay / name).read_bytes() == (STAGE3_DATA / name).read_bytes()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_stage3_json_artifacts_are_standard_json(stage3_out):
    paths = sorted(stage3_out.glob("*.json"))
    assert [p.name for p in paths] == ["events.json", "manifest.json", "report.json"]
    for path in paths:
        json.loads(path.read_text(), parse_constant=_reject_constant)


def test_stage3_pin_covers_safety_events():
    report = json.loads((STAGE3_DATA / "report.json").read_text())
    assert report["completed"]
    assert len(report["safety"]["events"]) == 3


@pytest.mark.parametrize("name", STAGE2_FILES)
def test_perturbed_stage2_rerun_reproduces_pinned_bytes(stage2_out, name):
    assert (stage2_out / name).read_bytes() == (STAGE2_DATA / name).read_bytes()


@pytest.mark.parametrize("point", STAGE2_POINTS)
def test_perturbed_stage2_replay_reproduces_pinned_reports(tmp_path, point):
    replayed = _replayed_report(STAGE2_DATA / point / "audit.ndjson", tmp_path)
    assert replayed == (STAGE2_DATA / point / "report.json").read_bytes()


@pytest.mark.parametrize("point", STAGE2_POINTS)
def test_perturbed_stage2_pin_drops_and_clamps_commands(point):
    log = (STAGE2_DATA / point / "audit.ndjson").read_bytes()
    assert log.count(b'"dropped":true') > 0
    assert log.count(b'"fifo_clamped":true') > 0
