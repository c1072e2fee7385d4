"""Tests of the benchmark itself: span arithmetic, tracing that leaves the
program's output bytes alone and misses no call, the sweep workload's
perturbation, and agreement between the runner and BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer as tracer_mod
import workloads
from hilbench import cli, presets

REPO = Path(__file__).resolve().parent.parent


def _short_scenario(tmp_path, duration_s=8.0):
    doc = presets.load("stage3-intersection")
    doc["termination"] = {"duration_s": duration_s}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def _short_sweep(tmp_path, duration_s=5.0):
    doc = workloads.sweep_config()
    doc["injected_delays_ms"] = [0, 40]
    doc["base"]["termination"] = {"duration_s": duration_s}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def _scenario_workload(cfg, out):
    live, replay = out / "stage3", out / "replay"
    return workloads.Workload("short-scenario", (
        workloads.Op("stage3", ("stage3", "--config", str(cfg), "--seed", "3",
                                "--out", str(live), "-q"), live),
        workloads.Op("replay-report", ("replay-report", "--log", str(live / "audit.ndjson"),
                                       "--out", str(replay), "-q"), replay,
                     live=False, source=live),
    ), ("run", str(cfg)), out)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (0, 100, -1),   # root
        (10, 40, 0),    # child A
        (30, 60, 0),    # child B, overlaps A: A and B cover [10, 60]
        (15, 25, 1),    # grandchild under A
        (90, 120, 0),   # child C, counts only up to the root's end
    ]
    assert tracer_mod.self_times(spans) == [100 - 50 - 10, 30 - 10, 30, 10, 30]


def test_self_times_of_a_traced_run_sum_to_the_root_span(tmp_path):
    cfg = _short_scenario(tmp_path, duration_s=2.0)
    tr = tracer_mod.Tracer()
    with tr:
        assert cli.main(["stage3", "--config", str(cfg), "--out", str(tmp_path / "o"), "-q"]) == 0
    spans = tr.spans()
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    total_self = sum(v["self_s"] for v in tr.summary().values())
    assert abs(total_self - (roots[0][2] - roots[0][1]) / 1e9) < 1e-6


def test_traced_pass_writes_the_same_bytes_as_an_untraced_pass(tmp_path):
    cfg = _short_scenario(tmp_path)
    wl = _scenario_workload(cfg, tmp_path / "out")
    plain = run.run_pass(cli, wl)
    traced = run.run_pass(cli, wl, tracer_mod.Tracer())
    assert not plain.failed and not traced.failed
    assert traced.layers["orchestrator.Npc.state_at"]["calls"] > 0
    assert plain.digests == traced.digests
    assert plain.stats == traced.stats


def _target_codes(targets):
    """Code object of each target, read before the tracer rebinds anything."""
    codes = {}
    for module, qualname in targets:
        mod = sys.modules[f"{tracer_mod.PACKAGE}.{module}"]
        obj = mod
        for part in qualname.split("."):
            obj = obj.__dict__[part] if isinstance(obj, type) else getattr(obj, part)
        if isinstance(obj, type):
            obj = obj.__init__
        if isinstance(obj, staticmethod):
            obj = obj.__func__
        codes[obj.__code__] = f"{module}.{qualname}"
    return codes


def _profile_calls(codes, fn):
    """Calls of each code object in ``codes``, seen by a profile hook."""
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def test_tracer_misses_no_call_made_through_a_name_imported_by_value(tmp_path):
    scenario, sweep = _short_scenario(tmp_path), _short_sweep(tmp_path)
    out = tmp_path / "out"

    def workload():
        assert cli.main(["stage3", "--config", str(scenario), "--out", str(out / "s3"), "-q"]) == 0
        assert cli.main(["stage2", "--config", str(sweep), "--out", str(out / "s2"), "-q"]) == 0

    codes = _target_codes(tracer_mod.TARGETS)
    tr = tracer_mod.Tracer()
    with tr:
        seen = _profile_calls(codes, workload)
    summary = tr.summary()
    assert {name: summary[name]["calls"] for name in seen} == seen
    for name in ("spatial.project", "safety.d_min_trace", "safety.extract_events",
                 "spatial.write_trajectory_csv"):
        assert summary[name]["calls"] > 0, name

    # At this commit every ground-truth sample is projected 6 times in a
    # stage-3 run (lap tracking, controller, report x2, trajectory CSV x2) and
    # 4 times in a sweep point, which writes no trajectory CSV.
    s3 = workloads.inspect(out / "s3")[1]["gts_samples"]
    s2 = workloads.inspect(out / "s2")[1]["gts_samples"]
    assert summary["spatial.project"]["calls"] == 6 * s3 + 4 * s2


def test_perturbed_sweep_drops_and_clamps_commands_at_every_delay(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["stage2", "--config", str(_short_sweep(tmp_path, duration_s=10.0)),
                     "--out", str(out), "-q"]) == 0
    points = sorted(p for p in out.iterdir() if p.is_dir())
    assert len(points) == 2
    for point in points:
        stats = workloads.inspect(point)[1]
        assert stats["dropped"] > 0 and stats["fifo_clamped"] > 0, point.name


def test_benchmark_json_lists_what_the_runner_reports():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_names()


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "calibrate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
