"""Command-line entry point.

Exit codes: 0 success, 1 configuration error, 2 run aborted.  Every command
that produces files also writes a ``manifest.json`` listing them.  ``stage1``,
``stage3`` and ``replay-report`` write a run directory with
``orchestrator.write_run_files``; a live run's manifest also lists the audit
log it wrote.  ``stage2`` lists the files ``orchestrator.run_stage2`` reports
that it wrote, whose points run in forked workers, one per usable CPU, with
the same bytes as one after another.  Before writing, a command deletes the
files that the output directory's previous manifest lists, so the directory
holds only its own.  The default output directory can be set with the
``HILBENCH_OUT`` environment variable.  ``--config`` accepts either a file
path or the name of a shipped preset (``stage1-default``,
``stage2-cliff-sweep``, ``stage3-intersection``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import config as cfg_mod
from . import orchestrator, presets, registration
from .core import write_json
from .plant import channel_params, fit_fopdt, run_step_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ABORT = 2


def _load_config_arg(arg: str) -> dict:
    doc = presets.load(arg) if arg in presets.PRESET_NAMES else cfg_mod.load_json(arg)
    if not isinstance(doc, dict):
        raise cfg_mod.ConfigError("", "must be an object")
    return doc


def _out_dir(args, reads: Path | None = None) -> Path:
    """The command's output directory, made if missing and cleared of the
    previous command's files: those its ``manifest.json`` lists, the
    manifest itself, and the point directories this leaves empty.  A listed
    path that resolves outside the directory, or that is the file the
    command reads (``reads``), is refused before anything is deleted."""
    base = args.out or os.environ.get("HILBENCH_OUT") or "runs"
    out = Path(base)
    out.mkdir(parents=True, exist_ok=True)
    manifest = out / "manifest.json"
    if not manifest.is_file():
        return out
    try:
        listed = [art["path"] for art in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]]
        root = out.resolve()
        paths = [(root / p).resolve() for p in listed]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{manifest}: not a manifest with a path for each artifact") from exc
    for text, path in zip(listed, paths):
        if root not in path.parents:
            raise ValueError(f"{manifest} lists {text!r}, which is outside {out}; nothing deleted")
        if reads is not None and path == reads.resolve():
            raise ValueError(f"{manifest} lists {text!r}, the file this command reads; "
                             f"choose another --out")
    for path in paths:
        path.unlink(missing_ok=True)
        for parent in path.relative_to(root).parents[:-1]:
            if (root / parent).is_dir() and not any((root / parent).iterdir()):
                (root / parent).rmdir()
    manifest.unlink()
    return out


def _write_manifest(out: Path, command: str, artifacts: dict, flags: dict | None = None) -> None:
    write_json(out / "manifest.json", {
        "schema_version": 1,
        "command": command,
        "artifacts": [{"name": k, "path": v} for k, v in sorted(artifacts.items())],
        "flags": flags or {},
    })


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
        doc["scenario"] = cfg_mod.load_json(args.script, "scenario")
    resolved = cfg_mod.resolve_run_config(doc)
    if args.command == "stage3" and resolved["scenario"] is None:
        raise cfg_mod.ConfigError("scenario", "stage 3 requires a scenario (config or --script)")
    out = _out_dir(args)
    log = orchestrator.ARTIFACTS["audit"]
    report, fold = orchestrator.run_stage1(resolved, out / log)
    artifacts = {"audit": log, **orchestrator.write_run_files(out, fold, report)}
    _write_manifest(out, args.command, artifacts, {"aborted": report["aborted"]})
    _print_run_summary(report, args)
    return EXIT_ABORT if report["aborted"] else EXIT_OK


def _cmd_stage2(args) -> int:
    doc = _load_config_arg(args.config)
    if args.seed is not None and "base" in doc:
        if not isinstance(doc["base"], dict):
            raise cfg_mod.ConfigError("base", "must be an object")
        doc = {**doc, "base": {**doc["base"], "seed": args.seed}}
    sweep = cfg_mod.resolve_sweep_config(doc)
    out = _out_dir(args)
    rows, artifacts = orchestrator.run_stage2(sweep, out)
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
    params = channel_params(resolved["plant"], args.channel)
    duration = params.L + 8.0 * params.tau_p + 0.5
    noise = args.noise_frac * abs(params.K * args.amplitude)
    log = run_step_experiment(resolved["plant"], args.channel, args.amplitude, duration,
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
        "t90_s": fit.params.t90,
    }
    write_json(out / "fopdt_fit.json", fit_doc)
    _write_manifest(out, "identify", {"step_log": "step_log.csv", "fit": "fopdt_fit.json"})
    if not args.quiet:
        print(f"{args.channel}: K={fit.params.K:.4f} tau_p={fit.params.tau_p:.4f} s "
              f"L={fit.params.L * 1e3:.1f} ms R2={fit.r2:.4f} t90={fit.params.t90:.3f} s")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    seed = registration.BENCHMARK_SEED if args.seed is None else args.seed
    hyper = registration.MlpHyper(seed=seed, epochs=args.epochs)
    field = registration.default_benchmark_field(seed)
    pairs, train_idx, test_idx, results = registration.run_benchmark(field, hyper)
    out = _out_dir(args)
    pairs.save_csv(out / "dataset.csv")
    results["hybrid"][0].save(out / "model.json")
    metrics = {name: {"rmse_m": m["rmse"], "mae_m": m["mae"], "p95_m": m["p95"]}
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
    report, fold = orchestrator.replay_report(args.log)
    out = _out_dir(args, reads=Path(args.log))
    _write_manifest(out, "replay-report", orchestrator.write_run_files(out, fold, report),
                    {"aborted": report["aborted"], "truncated": report["truncated"]})
    _print_run_summary(report, args)
    return EXIT_OK


def _cmd_validate_config(args) -> int:
    doc = _load_config_arg(args.config)
    if "injected_delays_ms" in doc or "base" in doc:
        cfg_mod.resolve_sweep_config(doc)
    else:
        cfg_mod.resolve_run_config(doc)
    if not args.quiet:
        print("config ok")
    return EXIT_OK


def _int_at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}")
    return value


def _finite(rule: str, holds):
    """An argparse type that takes a finite number for which ``holds`` is true."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"must be a finite number {rule}, not {text!r}")
        return value
    return parse


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
    pi.add_argument("--amplitude", type=_finite("other than 0", lambda v: v != 0.0), default=0.3)
    pi.add_argument("--noise-frac", type=_finite(">= 0", lambda v: v >= 0.0), default=0.02,
                    dest="noise_frac",
                    help="measurement noise as a fraction of the response step")
    pi.set_defaults(fn=_cmd_identify)

    pc = sub.add_parser("calibrate", help="registration benchmark (model ladder)")
    common(pc, needs_config=False)
    pc.add_argument("--epochs", type=_int_at_least_one, default=2000)
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
