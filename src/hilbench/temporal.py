"""Decomposable latency model.

Each cycle's latency record is assembled from the stage timestamps of one
correlation ID: ``INTERVALS`` gives the stage boundaries of every measured
component and ``SUMS`` the parts of every derived one.  All components are
integer nanoseconds, so the sums are exact.
"""

from __future__ import annotations

from operator import itemgetter, sub

import numpy as np

from .core import NS_PER_MS, Stage
from .spatial import summarize


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

# The tables as ``assemble`` reads them, once per cycle.  Its values are the
# measured components in ``INTERVALS`` order, then the derived ones in ``SUMS``
# order, each derived one the sum of the values at its parts' positions.
_VALUE_NAMES = (*INTERVALS, *SUMS)
_required_times = itemgetter(*REQUIRED_STAGES)
_interval_starts = itemgetter(*(start for start, _end in INTERVALS.values()))
_interval_ends = itemgetter(*(end for _start, end in INTERVALS.values()))
_sum_parts = tuple(itemgetter(*map(_VALUE_NAMES.index, parts)) for parts in SUMS.values())
_components = itemgetter(*map(_VALUE_NAMES.index, COMPONENTS))
_TOTAL = _VALUE_NAMES.index("total")


def assemble(t) -> tuple[int, ...] | Stage:
    """The latency record of one cycle from its stage times ``t`` (``t_ns`` or
    None, indexed by Stage).

    Returns the first required stage that ``t`` lacks, if any.  Otherwise
    returns the record: its components in ``COMPONENTS`` order, then the time
    of the span between the first and the last required stage that ``total``
    does not count, nonzero for a hand-off that no component covers.

    No interval is negative.  Every record behind ``t`` has passed
    ``AuditLog.admit``, live or replayed, so its times do not fall as its
    stages advance, and every ``INTERVALS`` pair runs from an earlier stage of
    the chain to a later one.
    """
    if None in _required_times(t):
        return next(stage for stage in REQUIRED_STAGES if t[stage] is None)
    values = list(map(sub, _interval_ends(t), _interval_starts(t)))
    for parts in _sum_parts:
        values.append(sum(parts(values)))
    span = t[REQUIRED_STAGES[-1]] - t[REQUIRED_STAGES[0]]
    return (*_components(values), span - values[_TOTAL])


def assemble_all(times: dict[int, list[int | None]]) -> tuple[dict, dict[int, Stage], list[int]]:
    """``assemble`` every correlation ID of ``times``, ``{cid: [t_ns or None,
    indexed by Stage]}``.

    Returns the records ``{cid: {component: ns}}`` in cid order, ``{cid:
    first missing stage}`` for incomplete cycles, and the cids with a
    hand-off that no component counts.
    """
    records: dict[int, dict[str, int]] = {}
    incomplete: dict[int, Stage] = {}
    gapped: list[int] = []
    for cid in sorted(times):
        rec = assemble(times[cid])
        if type(rec) is not tuple:
            incomplete[cid] = rec
            continue
        records[cid] = dict(zip(COMPONENTS, rec))
        if rec[-1]:
            gapped.append(cid)
    return records, incomplete, gapped


def summarize_latency(columns) -> dict[str, dict | None]:
    """The report's ``latency_ms`` section from ``{component: its values in
    ns, one per record}``: sample mean / std (n-1) / CV / nearest-rank p95 of
    every component in milliseconds, or None for each when there are fewer
    than 2 records."""
    if len(columns["total"]) < 2:
        return dict.fromkeys(COMPONENTS)
    out = {}
    for name in COMPONENTS:
        s = summarize(np.asarray(columns[name], dtype=float) / NS_PER_MS)
        out[name] = {"mean_ms": s["mean"], "std_ms": s["std"],
                     "cv": s["std"] / s["mean"] if s["mean"] > 0.0 else 0.0,
                     "p95_ms": s["p95"], "n": s["n"]}
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
