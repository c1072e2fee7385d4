"""The resolved config is the run header's echo: its bytes are pinned, and it
is itself a runnable config that resolves to the same echo."""

import json
from pathlib import Path

import pytest

from hilbench import presets
from hilbench.cli import EXIT_OK, main
from hilbench.config import resolve_run_config, resolve_sweep_config
from hilbench.core import canonical_json

DATA = Path(__file__).parent / "data" / "echo_pin"


def _load(name):
    return json.loads((DATA / name).read_text())


def test_echo_of_every_latency_kind_is_pinned():
    # constant, lognormal by mean_ms/std_ms and by mu/sigma, gaussian_truncated
    # with max_ms, jitter plus loss, and a bimodal controller latency.
    echo = canonical_json(resolve_run_config(_load("config.json")))
    assert echo + "\n" == (DATA / "echo.json").read_text()


def test_pinned_echo_resolves_to_itself():
    echo = resolve_run_config(_load("config.json"))
    assert canonical_json(resolve_run_config(json.loads(canonical_json(echo)))) == canonical_json(echo)


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_preset_echo_resolves_to_itself(name):
    doc = presets.load(name)
    resolve = resolve_sweep_config if "base" in doc else resolve_run_config
    echo = canonical_json(resolve(doc))
    assert canonical_json(resolve(json.loads(echo))) == echo
    if "base" in doc:
        base = canonical_json(resolve(doc)["base"])
        assert canonical_json(resolve_run_config(json.loads(base))) == base


def test_npc_spawn_defaults_to_the_route_start():
    # Every shipped NPC states the spawn that its route's first vertex and
    # first-segment heading give, so leaving them all out changes no byte.
    doc = presets.load("stage3-intersection")
    echo = canonical_json(resolve_run_config(doc))
    for npc in doc["scenario"]["npcs"]:
        del npc["spawn"]
    assert canonical_json(resolve_run_config(doc)) == echo


def test_any_latency_kind_runs_in_any_slot(tmp_path):
    # A bimodal link stage and a lognormal controller latency: every latency
    # slot goes through the same resolver and `links.sampler`.
    doc = {
        "run_id": "any-kind", "seed": 3, "termination": {"duration_s": 1.0},
        "path": {"preset": "square-sandbox"},
        "links": {"r2v": {"adv": {"kind": "bimodal", "components": [
            {"mean_ms": 10.0, "std_ms": 2.0, "weight": 0.6},
            {"mean_ms": 28.0, "std_ms": 3.0, "weight": 0.4}]}}},
        "sut": {"latency": {"mode": "lognormal", "mean_ms": 15.48, "std_ms": 4.0}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["stage1", "--config", str(cfg), "--out", str(out), "-q"]) == EXIT_OK
    header = json.loads((out / "audit.ndjson").read_text().splitlines()[0])
    echo = json.loads(header["payload"]["config_json"])
    assert echo["links"]["r2v"]["adv"]["kind"] == "bimodal"
    assert set(echo["sut"]["latency"]) == {"mode", "mu", "sigma"}
    latency = json.loads((out / "report.json").read_text())["latency_ms"]
    assert latency["sut"]["n"] == latency["adv"]["n"] == 50
    assert latency["sut"]["std_ms"] > 0.0 and latency["adv"]["std_ms"] > 0.0
