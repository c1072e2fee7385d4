"""hilbench benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and from nowhere else.  Load is a closed loop with one client:
the runner calls ``hilbench.cli.main`` in-process for one CLI invocation at a
time and starts the next only when the previous one returned.  A pass runs
every invocation of the workload once; the runner repeats passes with the
same seed until ``--seconds`` is used up.

A warm-up pass comes first and is left out of all timings.  ``--trace 0``
reports the end-to-end metrics, as medians over the passes.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracer.py``), with the tracing
overhead against the untraced ones.  Outputs go to ``.bench_out/``.

Every pass is checked (see ``workloads.check``), and every pass of a seed,
traced or not, must write the same bytes.  An invocation that exits non-zero
or fails a check counts as failed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracer_mod
import workloads as wl_mod

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
BASELINE = HERE / "baseline.json"

#: Fresh interpreters started per untraced run to time set-up, one after
#: each pass and the rest at the end; the median is reported.  Spreading
#: them over the run spreads them over the machine's slow and fast phases.
SETUP_PROBES = 7
#: Wall seconds kept back from ``--seconds`` for the set-up probes.
SETUP_RESERVE_S = 2.0
#: Untraced passes run first and left out of all timings: the first pass of
#: a process runs measurably slower (allocator growth, first-use paths).
#: They are still checked.
WARMUP_PASSES = 1

END_TO_END_UNITS = {"wall_s": "s", "total_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    """The checkout has no importable ``src/hilbench``."""


def import_program(root: Path):
    """Import ``hilbench.cli`` from ``root/src`` only."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import hilbench.cli as cli
    except ImportError as exc:
        raise ProgramMissing(f"cannot import hilbench from {src}: {exc}") from exc
    if Path(cli.__file__).resolve().parent.parent != src:
        raise ProgramMissing(f"hilbench was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Pass:
    """One run of every invocation of a workload."""

    traced: bool
    seconds: dict[str, float] = field(default_factory=dict)   # op name -> wall s
    digests: dict[str, dict] = field(default_factory=dict)    # op name -> {file: sha256}
    stats: dict = field(default_factory=dict)                 # summed audit counts
    failed: dict[str, list[str]] = field(default_factory=dict)  # op name -> problems
    layers: dict | None = None                                # tracer summary

    def live_s(self, workload) -> float:
        return sum(self.seconds[op.name] for op in workload.ops if op.live)

    def total_s(self) -> float:
        return sum(self.seconds.values())


def run_pass(cli, workload, tracer=None) -> Pass:
    """Run every op of ``workload`` once, then check what each one wrote."""
    result = Pass(traced=tracer is not None)
    for op in workload.ops:
        shutil.rmtree(op.out, ignore_errors=True)
    codes = {}
    if tracer is not None:
        tracer.install()
    try:
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                codes[op.name] = cli.main(list(op.argv))
            except Exception:  # the program crashed: count the op as failed
                traceback.print_exc()
                codes[op.name] = None
            result.seconds[op.name] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    result.stats = wl_mod.empty_stats()
    for op in workload.ops:
        digests, stats = wl_mod.inspect(op.out)
        result.digests[op.name] = digests
        for key, value in stats.items():
            result.stats[key] += value
        problems = [] if codes[op.name] == 0 else [f"{op.name}: exit code {codes[op.name]}"]
        if codes[op.name] is not None:
            problems += wl_mod.check(op, stats)
        if problems:
            result.failed[op.name] = problems
    if tracer is not None:
        result.layers = tracer.summary()
        tracer.write(workload.root / "spans.csv")
    return result


def check_determinism(passes: list[Pass]) -> None:
    """Fail any op whose outputs differ from the first pass of the seed."""
    first = passes[0]
    for p in passes[1:]:
        for name, digests in p.digests.items():
            if digests != first.digests[name]:
                changed = sorted(k for k in digests.keys() | first.digests[name].keys()
                                 if digests.get(k) != first.digests[name].get(k))
                p.failed.setdefault(name, []).append(
                    f"{name}: output bytes differ from the first pass ({', '.join(changed)})")


def measure_setup(workload) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    hilbench and loaded and resolved the first command's config."""
    kind, arg = workload.setup
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), kind, arg],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return t1 - t0


def peak_rss_mb() -> float:
    """Peak RSS of the largest of this process and its waited-for children.

    The kernel reports only the largest child, and a child's peak includes
    the parent's pages it shared before ``exec``, so adding the two would
    count this process twice for every set-up probe.
    """
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric, in output order, with its unit."""
    names = {}
    for target in tracer_mod.target_names():
        names[f"{target}.self_s"] = "s"
        names[f"{target}.calls"] = "count"
    names.update({
        "core.audit_bytes": "bytes",
        "links.v2r.sent": "count",
        "links.v2r.dropped": "count",
        "links.v2r.fifo_clamped": "count",
        "links.v2r.delivered_ratio": "ratio",
        "spatial.project.per_sample": "count",
        "trace_overhead_frac": "ratio",
    })
    return names


def layer_metrics(passes: list[Pass], problems: list[str]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = {}
    for target in tracer_mod.target_names():
        calls = {p.layers[target]["calls"] for p in traced}
        if len(calls) != 1:
            problems.append(f"{target}: call counts differ between traced passes {sorted(calls)}")
        values[f"{target}.self_s"] = statistics.median(p.layers[target]["self_s"] for p in traced)
        values[f"{target}.calls"] = traced[-1].layers[target]["calls"]
    st = traced[-1].stats
    values["core.audit_bytes"] = st["audit_bytes"]
    values["links.v2r.sent"] = st["sent"]
    values["links.v2r.dropped"] = st["dropped"]
    values["links.v2r.fifo_clamped"] = st["fifo_clamped"]
    values["links.v2r.delivered_ratio"] = (st["sent"] - st["dropped"]) / st["sent"] if st["sent"] else 0.0
    project_calls = values["spatial.project.calls"]
    values["spatial.project.per_sample"] = project_calls / st["gts_samples"] if st["gts_samples"] else 0.0
    values["trace_overhead_frac"] = (statistics.median(p.total_s() for p in traced)
                                     / statistics.median(p.total_s() for p in plain) - 1.0)
    return values


def baseline_note(workload_name: str, seed: int, passes: list[Pass]) -> str | None:
    """Compare this seed's outputs with the recorded seed-state baseline."""
    if not BASELINE.is_file():
        return None
    entry = json.loads(BASELINE.read_text())["workloads"].get(workload_name, {}).get(str(seed))
    if entry is None:
        return None
    same = passes[0].digests == entry["digests"]
    return f"seed-state baseline for seed {seed}: output digests {'match' if same else 'DIFFER'}"


def report_lines(workload, passes: list[Pass], metrics: dict, units: dict,
                 failed: int, attempted: int) -> list[str]:
    plain = [p for p in passes if not p.traced]
    lines = [f"workload {workload.name}: {WARMUP_PASSES} warm-up pass, then {len(plain)} "
             f"untraced and {len(passes) - len(plain)} traced passes"]
    for op in workload.ops:
        times = [p.seconds[op.name] for p in plain]
        lines.append(f"  {op.name:<18} median {statistics.median(times):.4f} s"
                     f"  passes {' '.join(f'{t:.4f}' for t in times)}")
    wall = statistics.median(p.live_s(workload) for p in plain)
    st = plain[-1].stats
    readback = [op.name for op in workload.ops if not op.live]
    if readback:
        replay = statistics.median(sum(p.seconds[n] for n in readback) for p in plain)
        lines.append(f"  replay_s {replay:.4f} s")
    if st["events"]:
        lines.append(f"  rtf {st['virtual_s'] / wall:.3f} virtual s per wall s  "
                     f"events_per_s {st['events'] / wall:.1f} 1/s  ({st['events']} events)")
    lines.append(f"  failed_frac {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    lines.extend(f"  {name} {value:.6g} {units[name]}" for name, value in metrics.items() if value)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program(Path.cwd())
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload not in wl_mod.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl_mod.WORKLOADS)}")
    workload = wl_mod.build(args.workload, args.seed, OUT / args.workload)
    tracer = tracer_mod.Tracer() if args.trace else None

    start = time.perf_counter()
    deadline = start + args.seconds - (0.0 if args.trace else SETUP_RESERVE_S)
    passes: list[Pass] = []
    durations: list[float] = []
    setups: list[float] = []
    # After the warm-up, a traced run adds untraced/traced pairs and an
    # untraced run single passes; either way at least two passes are timed.
    first, unit = WARMUP_PASSES, 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and (len(passes) - first) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_pass(cli, workload, tracer if traced else None))
        if not args.trace and len(setups) < SETUP_PROBES:
            setups.append(measure_setup(workload))
        durations.append(time.perf_counter() - t0)
        done = len(passes) - first
        if done < 2 or done % unit:
            continue
        if time.perf_counter() + unit * max(durations[first:]) > deadline:
            break
    check_determinism(passes)
    timed = passes[first:]

    problems: list[str] = []
    if args.trace:
        metrics = layer_metrics(timed, problems)
        units = per_layer_names()
    else:
        setups += [measure_setup(workload) for _ in range(SETUP_PROBES - len(setups))]
        metrics = {
            "wall_s": statistics.median(p.live_s(workload) for p in timed),
            "total_s": statistics.median(p.total_s() for p in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS

    attempted = len(workload.ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        for msgs in p.failed.values():
            problems.extend(msgs)
    for line in report_lines(workload, timed, metrics, units, failed, attempted):
        print(line)
    if setups:
        print(f"  setup probes {' '.join(f'{t:.4f}' for t in setups)}")
    note = baseline_note(workload.name, args.seed, passes)
    if note:
        print(note)
    for msg in problems:
        print(f"FAILED {msg}")
    print(f"python {platform.python_version()}, elapsed {time.perf_counter() - start:.1f} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_}
                    for name, unit_ in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
