"""Decomposable latency model.

Each cycle's latency record is assembled from the stage timestamps of one
correlation ID: ``INTERVALS`` gives the stage boundaries of every measured
component and ``SUMS`` the parts of every derived one.  All components are
integer nanoseconds, so the sums are exact.
"""

from __future__ import annotations

import numpy as np

from .core import NS_PER_MS, Stage, TimedEvent
from .spatial import summarize


class OrderingCorruptionError(ValueError):
    """A latency interval came out negative: the event chain is corrupt."""


#: Measured component -> (start stage, end stage).
INTERVALS = {
    "ingest": (Stage.R2vIngestStart, Stage.R2vIngestDone),
    "adv": (Stage.R2vIngestDone, Stage.R2vAdvDone),
    "sense": (Stage.R2vAdvDone, Stage.R2vSenseDone),
    "sut": (Stage.SutCmdIn, Stage.SutCmdOut),
    "v2r": (Stage.PerturbIn, Stage.V2rDeliver),
}

#: Derived component -> the components it adds, each defined before it.
SUMS = {"r2v": ("ingest", "adv", "sense"), "platform": ("v2r", "r2v"), "total": ("sut", "platform")}

#: Row order of the report's ``latency_ms`` section and of ``latency.csv``.
COMPONENTS = ("r2v", "ingest", "adv", "sense", "v2r", "sut", "platform", "total")

#: Stages required to assemble one latency record, in chain order.
REQUIRED_STAGES = tuple(sorted({stage for pair in INTERVALS.values() for stage in pair}))


def assemble_all(events: list[TimedEvent]) -> tuple[dict, dict[int, Stage], list[int]]:
    """Assemble the latency record of every correlation ID in an event list.

    Returns the records ``{cid: {component: ns}}`` in cid order, ``{cid:
    first missing stage}`` for incomplete cycles, and the cids whose
    ``total`` differs from the span between the first and the last required
    stage: a hand-off that no component counts.  Run-level records (cid 0)
    are ignored.  Raises OrderingCorruptionError if an interval is negative.
    """
    # cid -> t_ns indexed by stage: on the 55,002-event stage-3 log a dict per
    # cid raised the peak memory of this function from 3.7 to 6.0 MB.
    times: dict[int, list[int | None]] = {}
    for ev in events:
        if ev.cid > 0:
            t = times.get(ev.cid)
            if t is None:
                t = times[ev.cid] = [None] * len(Stage)
            t[ev.stage] = ev.t_ns
    first, last = REQUIRED_STAGES[0], REQUIRED_STAGES[-1]
    records: dict[int, dict[str, int]] = {}
    incomplete: dict[int, Stage] = {}
    gapped: list[int] = []
    for cid in sorted(times):
        t = times[cid]
        missing = next((stage for stage in REQUIRED_STAGES if t[stage] is None), None)
        if missing is not None:
            incomplete[cid] = missing
            continue
        rec = {name: t[end] - t[start] for name, (start, end) in INTERVALS.items()}
        for name, val in rec.items():
            if val < 0:
                raise OrderingCorruptionError(f"negative {name} interval ({val} ns) in cid {cid}")
        for name, parts in SUMS.items():
            rec[name] = sum(rec[part] for part in parts)
        records[cid] = rec
        if rec["total"] != t[last] - t[first]:
            gapped.append(cid)
    return records, incomplete, gapped


def summarize_latency(records: dict[int, dict[str, int]]) -> dict[str, dict | None]:
    """The report's ``latency_ms`` section: sample mean / std (n-1) / CV /
    nearest-rank p95 of every component in milliseconds, or None for each
    when there are fewer than 2 records."""
    if len(records) < 2:
        return dict.fromkeys(COMPONENTS)
    out = {}
    for name in COMPONENTS:
        s = summarize(np.array([rec[name] for rec in records.values()], dtype=float) / NS_PER_MS)
        out[name] = {"mean_ms": s.mean, "std_ms": s.std,
                     "cv": s.std / s.mean if s.mean > 0.0 else 0.0, "p95_ms": s.p95, "n": s.n}
    return out


def write_latency_report(stats: dict[str, dict], out_path) -> None:
    """CSV report, one row per component, from ``summarize_latency`` output.

    CV is rounded to 2 decimals in the file; full precision stays available
    in the report.
    """
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("component,mean_ms,std_ms,cv,p95_ms,n\n")
        for name in COMPONENTS:
            st = stats[name]
            fh.write(f"{name},{st['mean_ms']:.4f},{st['std_ms']:.4f},{st['cv']:.2f},"
                     f"{st['p95_ms']:.4f},{st['n']}\n")
