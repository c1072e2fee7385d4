"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 run aborted.  Every command
that produces files also writes a ``manifest.json`` listing them.  The
default output directory can be set with the ``HILBENCH_OUT`` environment
variable.  ``--config`` accepts either a file path or the name of a shipped
preset (``stage1-default``, ``stage2-cliff-sweep``, ``stage3-intersection``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as cfg_mod
from . import orchestrator, presets, registration, temporal
from .core import write_json
from .plant import fit_fopdt, run_step_experiment
from .safety import write_safety_csv
from .spatial import write_trajectory_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2


def _load_config_arg(arg: str) -> dict:
    if arg in presets.PRESET_NAMES:
        return presets.load(arg)
    path = Path(arg)
    if not path.exists():
        raise cfg_mod.ConfigError("", f"config file not found: {arg}")
    try:
        return cfg_mod.load_json(path)
    except json.JSONDecodeError as exc:
        raise cfg_mod.ConfigError("", f"invalid JSON: {exc}") from exc


def _out_dir(args) -> Path:
    base = args.out or os.environ.get("HILBENCH_OUT") or "runs"
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, artifacts: dict, flags: dict | None = None) -> None:
    write_json(out / "manifest.json", {
        "schema_version": 1,
        "command": command,
        "artifacts": [{"name": k, "path": v} for k, v in sorted(artifacts.items())],
        "flags": flags or {},
    })


def _write_run_artifacts(out: Path, runner: orchestrator.Runner,
                         analysis: orchestrator.Analysis) -> dict:
    """Write the audit log and the artifacts derived from ``analysis``;
    return ``{artifact name: relative path}``."""
    names = orchestrator.ARTIFACTS
    report = analysis.report
    runner.ctx.audit.write_ndjson(out / names["audit"])
    write_json(out / names["report"], report)
    written = ["audit", "report"]
    if analysis.trajectory:
        write_trajectory_csv(runner.path, analysis.trajectory, out / names["trajectory"],
                             runner.goal_speed)
        written.append("trajectory")
    if all(report["latency_ms"].values()):
        temporal.write_latency_report(report["latency_ms"], out / names["latency"])
        written.append("latency")
    if analysis.safety_trace is not None:
        write_safety_csv(analysis.safety_trace, out / names["safety"])
        write_json(out / names["events"], report["safety"]["events"])
        written += ["safety", "events"]
    return {key: names[key] for key in written}


def _apply_seed_override(doc: dict, seed: int | None) -> dict:
    if seed is not None:
        doc = dict(doc)
        doc["seed"] = seed
    return doc


def _cmd_run(args) -> int:
    """One closed-loop run (``stage1``, or ``stage3``, which needs a scenario)."""
    doc = _apply_seed_override(_load_config_arg(args.config), args.seed)
    if args.script:
        doc = dict(doc)
        doc["scenario"] = cfg_mod.load_json(args.script)
    resolved = cfg_mod.resolve_run_config(doc)
    if args.command == "stage3" and resolved["scenario"] is None:
        raise cfg_mod.ConfigError("scenario", "stage 3 requires a scenario (config or --script)")
    out = _out_dir(args)
    runner = orchestrator.Runner(resolved)
    analysis = runner.run()
    report = analysis.report
    artifacts = _write_run_artifacts(out, runner, analysis)
    _write_manifest(out, args.command, artifacts, {"aborted": report["aborted"]})
    _print_run_summary(report, args)
    return EXIT_ABORT if report["aborted"] else EXIT_OK


def _cmd_stage2(args) -> int:
    doc = _load_config_arg(args.config)
    if args.seed is not None:
        doc = dict(doc)
        base = dict(doc.get("base", {}))
        base["seed"] = args.seed
        doc["base"] = base
    sweep = cfg_mod.resolve_sweep_config(doc)
    out = _out_dir(args)
    artifacts = {}

    def on_point(delay, rep, report, runner):
        sub = out / f"delay_{delay:g}ms_rep{rep}"
        sub.mkdir(parents=True, exist_ok=True)
        runner.ctx.audit.write_ndjson(sub / "audit.ndjson")
        write_json(sub / "report.json", report)
        artifacts[f"audit_d{delay:g}_r{rep}"] = f"delay_{delay:g}ms_rep{rep}/audit.ndjson"
        artifacts[f"report_d{delay:g}_r{rep}"] = f"delay_{delay:g}ms_rep{rep}/report.json"

    rows, _reports = orchestrator.run_stage2(sweep, on_point=on_point)
    orchestrator.write_response_curve(rows, out / "response_curve.csv")
    artifacts["response_curve"] = "response_curve.csv"
    _write_manifest(out, "stage2", artifacts,
                    {"all_completed": all(r["completed"] for r in rows)})
    if not args.quiet:
        for r in rows:
            print(f"delay {r['delay_ms']:6.1f} ms  cte_rmse {r['cte_rmse_m']:.4f} m  "
                  f"completed {r['completed']}")
    return EXIT_OK


def _cmd_identify(args) -> int:
    doc = _apply_seed_override(_load_config_arg(args.config), args.seed)
    resolved = cfg_mod.resolve_run_config(doc)
    plant_cfg = cfg_mod.build_plant_config(resolved["plant"])
    params = {"steering": plant_cfg.steering, "velocity": plant_cfg.velocity}[args.channel]
    duration = params.L + 8.0 * params.tau_p + 0.5
    noise = args.noise_frac * abs(params.K * args.amplitude)
    log = run_step_experiment(plant_cfg, args.channel, args.amplitude, duration,
                              noise, resolved["seed"])
    fit = fit_fopdt(log)
    out = _out_dir(args)
    log.save_csv(out / "step_log.csv")
    fit_doc = {
        "channel": args.channel,
        "K": fit.params.K,
        "tau_p_s": fit.params.tau_p,
        "L_s": fit.params.L,
        "r2": fit.r2,
        "t90_s": fit.t90,
    }
    write_json(out / "fopdt_fit.json", fit_doc)
    _write_manifest(out, "identify", {"step_log": "step_log.csv", "fit": "fopdt_fit.json"})
    if not args.quiet:
        print(f"{args.channel}: K={fit.params.K:.4f} tau_p={fit.params.tau_p:.4f} s "
              f"L={fit.params.L * 1e3:.1f} ms R2={fit.r2:.4f} t90={fit.t90:.3f} s")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    hyper = registration.MlpHyper(seed=args.seed if args.seed is not None else 20240401,
                                  epochs=args.epochs)
    field = registration.default_benchmark_field(
        args.seed if args.seed is not None else 20240401)
    pairs, train_idx, test_idx, results = registration.run_benchmark(field, hyper)
    out = _out_dir(args)
    pairs.save_csv(out / "dataset.csv")
    results["hybrid"][0].save(out / "model.json")
    metrics = {name: {"rmse_m": m.rmse, "mae_m": m.mae, "p95_m": m.p95}
               for name, (_model, m) in results.items()}
    metrics_doc = {
        "n_pairs": len(pairs),
        "n_train": int(train_idx.size),
        "n_test": int(test_idx.size),
        "metrics": metrics,
    }
    write_json(out / "calibration_metrics.json", metrics_doc)
    _write_manifest(out, "calibrate", {
        "dataset": "dataset.csv", "model": "model.json",
        "metrics": "calibration_metrics.json",
    })
    if not args.quiet:
        for name in ("raw", "rigid_svd", "affine", "hybrid"):
            print(f"{name:10s} rmse {metrics[name]['rmse_m'] * 1e3:9.3f} mm")
    return EXIT_OK


def _cmd_replay_report(args) -> int:
    report = orchestrator.replay_report(args.log)
    out = _out_dir(args)
    write_json(out / "report.json", report)
    _write_manifest(out, "replay-report", {"report": "report.json"},
                    {"aborted": report["aborted"], "truncated": report["truncated"]})
    _print_run_summary(report, args)
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    doc = _load_config_arg(args.config)
    if "injected_delays_ms" in doc:
        cfg_mod.resolve_sweep_config(doc)
    else:
        cfg_mod.resolve_run_config(doc)
    if not args.quiet:
        print("config ok")
    return EXIT_OK


def _print_run_summary(report: dict, args) -> None:
    if getattr(args, "quiet", False):
        return
    cte = report.get("cte")
    line = f"run {report['run_id']}: completed={report['completed']}"
    if cte:
        line += f" cte_mean={cte['mean']:.4f} m cte_rmse={cte['rmse']:.4f} m"
    if report.get("aborted"):
        line += f" ABORTED ({report['abort_reason']})"
    print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hilbench",
                                     description="closed-loop evaluation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="config file or preset name")
        p.add_argument("--out", default=None, help="output directory (default $HILBENCH_OUT or ./runs)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("-q", "--quiet", action="store_true")

    p1 = sub.add_parser("stage1", help="baseline run")
    common(p1)
    p1.set_defaults(fn=_cmd_run, script=None)

    p2 = sub.add_parser("stage2", help="latency sweep")
    common(p2)
    p2.set_defaults(fn=_cmd_stage2)

    p3 = sub.add_parser("stage3", help="scripted multi-agent run")
    common(p3)
    p3.add_argument("--script", default=None, help="scenario script JSON (overrides config.scenario)")
    p3.set_defaults(fn=_cmd_run)

    pi = sub.add_parser("identify", help="open-loop step test + model fit")
    common(pi)
    pi.add_argument("--channel", choices=("steering", "velocity"), required=True)
    pi.add_argument("--amplitude", type=float, default=0.3)
    pi.add_argument("--noise-frac", type=float, default=0.02, dest="noise_frac",
                    help="measurement noise as a fraction of the response step")
    pi.set_defaults(fn=_cmd_identify)

    pc = sub.add_parser("calibrate", help="registration benchmark (model ladder)")
    common(pc, needs_config=False)
    pc.add_argument("--epochs", type=int, default=2000)
    pc.set_defaults(fn=_cmd_calibrate)

    pr = sub.add_parser("replay-report", help="rebuild a report from an audit log")
    pr.add_argument("--log", required=True)
    pr.add_argument("--out", default=None)
    pr.add_argument("-q", "--quiet", action="store_true")
    pr.set_defaults(fn=_cmd_replay_report)

    pv = sub.add_parser("validate-config", help="validate a config document")
    pv.add_argument("--config", required=True)
    pv.add_argument("-q", "--quiet", action="store_true")
    pv.set_defaults(fn=_cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except cfg_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
