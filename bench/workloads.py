"""The benchmark's workloads and the checks on what they write.

A workload is a fixed list of ``hilbench`` CLI invocations built from the
seed.  The seed reaches the program only through ``--seed`` and the config
file a workload generates.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

#: Command-link perturbation of ``sweep-perturbed``: truncated-Gaussian jitter
#: wide enough for consecutive commands to cross (so the FIFO rule clamps
#: them), plus 5 % loss.
SWEEP_PERTURBATION = {
    "jitter": {"kind": "gaussian_truncated", "mean_ms": 4.0, "std_ms": 12.0},
    "loss_probability": 0.05,
}

#: Epoch cap for ``calibrate``.  Under the default cap (2000) early stopping
#: ends training after anywhere from about 2,700 to 6,200 Adam steps
#: depending on the seed, so wall time would measure the seed rather than the
#: code.  200 epochs (2,000 steps) end before early stopping on the seeds
#: tried, so every seed does the same work.
CALIBRATE_EPOCHS = 200

WORKLOADS = ("sweep-perturbed", "scenario-replay", "calibrate")

#: Byte patterns counted in audit logs (keys are sorted and compact).
_AUDIT_PATTERNS = {
    "gts_samples": b'"stage":"GtsSample"',
    "sent": b'"stage":"PerturbIn"',
    "dropped": b'"dropped":true',
    "fifo_clamped": b'"fifo_clamped":true',
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    Live ops are the workload's own commands.  A read-back op (``live`` is
    false) rebuilds ``source``'s report from its audit log alone.
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    live: bool = True
    source: Path | None = None
    perturbed: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    #: (resolver, config argument) of the first command, for the set-up probe.
    setup: tuple[str, str]
    #: Directory that holds the generated inputs and all outputs.
    root: Path


def sweep_config() -> dict:
    """The stage-2 preset with the perturbation injector switched on."""
    from hilbench import presets

    doc = presets.load("stage2-cliff-sweep")
    doc["base"]["links"]["v2r"]["perturbation"] = json.loads(json.dumps(SWEEP_PERTURBATION))
    return doc


def build(name: str, seed: int, root: Path) -> Workload:
    """Generate the workload's inputs under ``root`` and list its ops."""
    root.mkdir(parents=True, exist_ok=True)
    s = str(seed)
    if name == "sweep-perturbed":
        cfg = root / "sweep-perturbed.json"
        cfg.write_text(json.dumps(sweep_config(), indent=2, sort_keys=True) + "\n")
        out = root / "stage2"
        ops = (Op("stage2", ("stage2", "--config", str(cfg), "--seed", s,
                             "--out", str(out), "-q"), out, perturbed=True),)
        return Workload(name, ops, ("sweep", str(cfg)), root)
    if name == "scenario-replay":
        live, replay = root / "stage3", root / "replay"
        ops = (
            Op("stage3", ("stage3", "--config", "stage3-intersection", "--seed", s,
                          "--out", str(live), "-q"), live),
            Op("replay-report", ("replay-report", "--log", str(live / "audit.ndjson"),
                                 "--out", str(replay), "-q"), replay, live=False, source=live),
        )
        return Workload(name, ops, ("run", "stage3-intersection"), root)
    if name == "calibrate":
        ops = tuple(
            Op(f"identify-{ch}", ("identify", "--config", "stage1-default", "--channel", ch,
                                  "--seed", s, "--out", str(root / ch), "-q"), root / ch)
            for ch in ("steering", "velocity")
        ) + (Op("calibrate", ("calibrate", "--seed", s, "--epochs", str(CALIBRATE_EPOCHS),
                              "--out", str(root / "calibrate"), "-q"), root / "calibrate"),)
        return Workload(name, ops, ("run", "stage1-default"), root)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def empty_stats() -> dict:
    return {"events": 0, "audit_bytes": 0, "virtual_s": 0.0, **{k: 0 for k in _AUDIT_PATTERNS}}


def inspect(out: Path) -> tuple[dict[str, str], dict]:
    """sha256 of every file under ``out``, and counts over its audit logs."""
    digests, stats = {}, empty_stats()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
        if path.name != "audit.ndjson":
            continue
        stats["events"] += data.count(b"\n")
        stats["audit_bytes"] += len(data)
        stats["virtual_s"] += json.loads(data.rstrip(b"\n").rpartition(b"\n")[2])["t_ns"] / 1e9
        for key, pattern in _AUDIT_PATTERNS.items():
            stats[key] += data.count(pattern)
    return digests, stats


def check(op: Op, stats: dict) -> list[str]:
    """Problems with what ``op`` wrote, beyond its exit code."""
    problems = []
    manifest = op.out / "manifest.json"
    if not manifest.is_file():
        return [f"{op.name}: no manifest.json"]
    for art in json.loads(manifest.read_text(encoding="utf-8"))["artifacts"]:
        path = op.out / art["path"]
        if not path.is_file():
            problems.append(f"{op.name}: artifact {art['path']} missing")
        elif path.suffix == ".json":
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except ValueError as exc:
                problems.append(f"{op.name}: {art['path']} is not JSON: {exc}")
                continue
            if path.name == "report.json" and (doc["aborted"] or doc["truncated"]):
                problems.append(f"{op.name}: {art['path']} reports an aborted or truncated run")
    if op.source is not None:
        live, replayed = op.source / "report.json", op.out / "report.json"
        if not (live.is_file() and replayed.is_file()) or \
                replayed.read_bytes() != live.read_bytes():
            problems.append(f"{op.name}: replayed report.json differs from the live one")
    if op.perturbed and not (stats["dropped"] > 0 and stats["fifo_clamped"] > 0):
        problems.append(f"{op.name}: perturbation produced {stats['dropped']} drops and "
                        f"{stats['fifo_clamped']} FIFO clamps; both must be non-zero")
    return problems

