"""sha256 pins of the paths that build the plant, the links and the latency
samplers from a resolved config, where no byte fixture pins them otherwise:

- ``identify --config stage1-default --seed 1`` on both actuator channels;
- a ``stage1`` run of ``tests/data/echo_pin/config.json`` (a bimodal
  controller latency, lognormal stages in both forms, a truncated Gaussian
  with ``max_ms``, command jitter and loss);
- a short ``paper-uncalibrated`` run with ``dead_time_jitter`` enabled;
- ``termination.mode: laps``: a ``stage1`` run of
  ``tests/data/laps_pin/config.json`` (the ``stage1-default`` preset that
  stops after one lap), and the same config capped by its
  ``max_duration_s`` before its three laps;
- a ``stage1`` run of ``tests/data/saturation_pin/config.json``, whose
  commands exceed the speed and steering limits and both command maps, so
  that its log carries every actuator flag;
- a ``stage3`` run of ``tests/data/scenario_pin/config.json``
  (``stage3-intersection`` cut to 20 s, with an open route that
  accelerates, cruises and brakes to rest, an open route too short to reach
  its cruise speed, and a closed route; the ids ``a`` and ``a_x`` make the
  sorted NPC payload keys interleave).

A failure here means a run of the same config and seed no longer writes the
same bytes.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from hilbench.cli import EXIT_OK, main

ECHO_PIN_CONFIG = Path(__file__).parent / "data" / "echo_pin" / "config.json"
LAPS_PIN_CONFIG = Path(__file__).parent / "data" / "laps_pin" / "config.json"
SCENARIO_PIN_CONFIG = Path(__file__).parent / "data" / "scenario_pin" / "config.json"
SATURATION_PIN_CONFIG = Path(__file__).parent / "data" / "saturation_pin" / "config.json"

JITTER_CONFIG = {
    "schema_version": 1,
    "run_id": "jitter-pin",
    "seed": 11,
    "termination": {"duration_s": 3.0},
    "path": {"preset": "square-sandbox"},
    "plant": {"preset": "paper-uncalibrated", "dead_time_jitter": {"enabled": True}},
}

LAPS_CAP_CONFIG = {
    **json.loads(LAPS_PIN_CONFIG.read_text()),
    "run_id": "laps_cap",
    "termination": {"laps": 3, "max_duration_s": 10.0},
}

IDENTIFY_SHA256 = {
    "steering": {
        "step_log.csv": "99a7bfabac03baaaef37769b62ca62dbc5788821bc6e10f1c1944aebf7b91a0a",
        "fopdt_fit.json": "f783cc11b840519611b629239a1d84e3bc53e10d3c931aa3ba4356332a429de9",
    },
    "velocity": {
        "step_log.csv": "4d321dc91616c08422896afb1e4157b4250b7be1be82e3debf51b3f4adcf254b",
        "fopdt_fit.json": "09ac13fbe23747818470f13b9b46fd5a82f48961ba75ee10d08e059a26389e2f",
    },
}

RUN_SHA256 = {
    "echo_pin": {
        "audit.ndjson": "8b012e211f644b8bc786586bc255b20e2b03ffaece8b9e24113aafc7206c32cf",
        "report.json": "276d626e2e3f729d97e66eb10489abc3f2c04610fa721cd15ebf4615be8bd68f",
        "trajectory.csv": "b47966559492e4c576582247de7545cb00de1d102a064854d23e724816656bba",
        "latency.csv": "8996d3c7ec5c3b088fb27e150c5286b94bfcb49f559cd165e392e2dacde10351",
    },
    "dead_time_jitter": {
        "audit.ndjson": "7b5ac3fe7127dd6e95e4e51503c52d29df9466d6dc4e98009f3cd1a325ec78e6",
        "report.json": "12941f06d1d9cf3f443663e8532f84a3a4052bccdc9fbb1464ab5b0cfbc0ba89",
        "trajectory.csv": "10da1a0808a103ffbda7382afe8c3e1e7497ff923f57e71209763afcdf58c6d8",
        "latency.csv": "e85c1e9ab982cd5731eb89453da03f5c49062a50d138d4615c8b30a01b7e00f8",
    },
    "laps1": {
        "audit.ndjson": "03325831e49165167cbfb13d7b97348530cfd1521867e156ae276e8d15c99448",
        "report.json": "2968574ea6274d9013320ccd4b44b5c1d8ea8549b38b6c56f907fadc71753ba6",
        "trajectory.csv": "e829a986ca182c640019a169c72f3e8d9b52c924617e9ddc699c7ec63abffa8b",
        "latency.csv": "9f8ac5c095ea3ae368e7c4c649754d2d51812ac879d597bd350318abeb83c61e",
    },
    "laps_cap": {
        "audit.ndjson": "7b4aaea00efca745a3816da29cffd8f3574a49366e45b1b0c4b84d1154b09c1e",
        "report.json": "ad7966d0ec790c9f89c0c77b2aa143406808c9c60fe21dcdaa9b75c038a30d63",
        "trajectory.csv": "d38d85d0361497f499c0dffc3aa61fee9cd18085ee8588f7cf91c751d8ef871b",
        "latency.csv": "2816361a5345cf545e51d4676355aa39ad34d0893eade1cca7736c7ee95a50a8",
    },
    "saturation": {
        "audit.ndjson": "facc861325ad3e4ea542587490a8b876d53983a86aa6e6c1ad8f77e9c728101f",
        "report.json": "09a64871dfe9848e4498fa724ae7f03dd5ff6a5a7e4b7a998cedd75c04549285",
        "trajectory.csv": "32280a9b792bf1c1a1f10bcf166703e12f6e0b22a50a057505213be6254b52a4",
        "latency.csv": "ae4b54c2583a075760154ae2a17d174b2e76fce6d7ba2fa2d1cf4f2d4816c323",
    },
}

SCENARIO_SHA256 = {
    "audit.ndjson": "1062616804838abf5732afd21975f4fa1e68cd1d584da66291ce68fe27d37791",
    "report.json": "0179496622992d333d60e474536aa06d4497b1040f0bf3a55bcf48734b123c9b",
    "trajectory.csv": "d613ac99ee39a2ad1d18a6ce9655a2719171e8b8d3c906cf614c4ef86f52d958",
    "latency.csv": "3f22280a49d6e564f9da6978396cb4c852edad1d59f21874c28a605b44e265b8",
    "safety.csv": "0c1869ff88d3c1076cd0be0ac16af002f720fbfbc952755b7912730afe38cc54",
    "events.json": "00fcc9b93eea4c86a592ae964553789b2568c4bcf647ee449486ed84017e9a18",
}


def _digests(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _stage1(tmp_path: Path, name: str, doc) -> Path:
    """Run ``stage1`` on ``doc`` (a config path, or a document to write one
    from); return the output directory."""
    if isinstance(doc, dict):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc))
        doc = config
    out = tmp_path / name
    assert main(["stage1", "--config", str(doc), "--out", str(out), "-q"]) == EXIT_OK
    return out


@pytest.mark.parametrize("channel", sorted(IDENTIFY_SHA256))
def test_identify_reproduces_pinned_digests(tmp_path, channel):
    assert main(["identify", "--config", "stage1-default", "--seed", "1", "--channel", channel,
                 "--out", str(tmp_path), "-q"]) == EXIT_OK
    expected = IDENTIFY_SHA256[channel]
    assert _digests(tmp_path, expected) == expected


@pytest.mark.parametrize("name, doc", [("echo_pin", ECHO_PIN_CONFIG),
                                       ("dead_time_jitter", JITTER_CONFIG),
                                       ("laps1", LAPS_PIN_CONFIG),
                                       ("laps_cap", LAPS_CAP_CONFIG),
                                       ("saturation", SATURATION_PIN_CONFIG)])
def test_stage1_reproduces_pinned_digests(tmp_path, name, doc):
    expected = RUN_SHA256[name]
    assert _digests(_stage1(tmp_path, name, doc), expected) == expected


def test_dead_time_jitter_pin_depends_on_the_jitter(tmp_path):
    # The same run without the jitter writes another log, so the pin above
    # covers the jittered dead times.
    plain = {**JITTER_CONFIG, "plant": {"preset": "paper-uncalibrated"}}
    digest = _digests(_stage1(tmp_path, "plain", plain), ["audit.ndjson"])["audit.ndjson"]
    assert digest != RUN_SHA256["dead_time_jitter"]["audit.ndjson"]


def _assert_replay_rebuilds(live: Path, replayed: Path) -> None:
    """Replay the audit log of the run directory ``live`` into ``replayed``,
    which must then hold every other file of ``live`` byte for byte, and a
    manifest that lists exactly those files."""
    assert main(["replay-report", "--log", str(live / "audit.ndjson"), "--out", str(replayed),
                 "-q"]) == EXIT_OK
    rebuilt = sorted(p.name for p in replayed.iterdir() if p.name != "manifest.json")
    assert rebuilt == sorted(p.name for p in live.iterdir()
                             if p.name not in ("audit.ndjson", "manifest.json"))
    for name in rebuilt:
        assert (replayed / name).read_bytes() == (live / name).read_bytes(), name
    manifest = json.loads((replayed / "manifest.json").read_text())
    assert sorted(art["path"] for art in manifest["artifacts"]) == rebuilt


def test_replay_of_the_laps_log_equals_its_live_report(tmp_path):
    _assert_replay_rebuilds(_stage1(tmp_path, "laps1", LAPS_PIN_CONFIG), tmp_path / "replayed")


@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("scenario_pin") / "out"
    assert main(["stage3", "--config", str(SCENARIO_PIN_CONFIG), "--out", str(out),
                 "-q"]) == EXIT_OK
    return out


def test_stage3_reproduces_pinned_scenario_digests(scenario_run):
    assert _digests(scenario_run, SCENARIO_SHA256) == SCENARIO_SHA256


def test_replay_of_the_scenario_log_equals_its_live_report(scenario_run, tmp_path):
    _assert_replay_rebuilds(scenario_run, tmp_path / "replayed")


def test_scenario_pin_covers_both_open_route_profiles(scenario_run):
    report = json.loads((scenario_run / "report.json").read_text())
    assert report["safety"]["triggered"] and report["completed"]
    senses = [json.loads(line)["payload"]
              for line in (scenario_run / "audit.ndjson").read_text().splitlines()
              if '"stage":"R2vSenseDone"' in line]
    npcs = {npc["id"]: npc for npc in json.loads(SCENARIO_PIN_CONFIG.read_text())["scenario"]["npcs"]}
    for nid in ("a", "a_x"):
        # Each open-route NPC ends at rest at its route's end.
        end_x, end_y = npcs[nid]["route"]["vertices"][-1]
        last = senses[-1]
        assert (last[f"npc_{nid}_x"], last[f"npc_{nid}_y"]) == (end_x, end_y)
        assert (last[f"npc_{nid}_vx"], last[f"npc_{nid}_vy"]) == (0.0, 0.0)
    peak = {nid: max(math.hypot(p[f"npc_{nid}_vx"], p[f"npc_{nid}_vy"])
                     for p in senses if f"npc_{nid}_x" in p) for nid in npcs}
    # ``a`` cruises; ``a_x``'s route is shorter than its accelerate-plus-brake
    # distance, so it brakes before reaching its cruise speed.
    assert peak["a"] == npcs["a"]["speed"]["cruise_mps"]
    assert peak["a_x"] < npcs["a_x"]["speed"]["cruise_mps"]
