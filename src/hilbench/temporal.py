"""Decomposable latency model.

Per-cycle latency records are assembled from the audit events of one
correlation ID.  The decomposition is additive by construction:

    r2v      = ingest + adv + sense
    platform = v2r + r2v
    total    = sut + platform

and all components are integer nanoseconds, so the identities hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NS_PER_MS, Stage, TimedEvent


class IncompleteCycleError(ValueError):
    """A cycle is missing a chain stage; names the first missing one."""

    def __init__(self, missing_stage: Stage, cid: int | None = None):
        self.missing_stage = missing_stage
        self.cid = cid
        where = f" (cid {cid})" if cid is not None else ""
        super().__init__(f"incomplete cycle{where}: missing stage {missing_stage.name}")


class OrderingCorruptionError(ValueError):
    """A latency interval came out negative: the event chain is corrupt."""


#: Stages required to assemble one latency record, in chain order.
REQUIRED_STAGES = (
    Stage.R2vIngestStart,
    Stage.R2vIngestDone,
    Stage.R2vAdvDone,
    Stage.R2vSenseDone,
    Stage.SutCmdIn,
    Stage.SutCmdOut,
    Stage.PerturbIn,
    Stage.V2rDeliver,
)


@dataclass(frozen=True)
class LatencyRecord:
    """Per-cycle latency decomposition, integer nanoseconds."""

    cid: int
    dt_sut: int
    dt_v2r: int
    dt_ingest: int
    dt_adv: int
    dt_sense: int
    dt_r2v: int
    dt_platform: int
    dt_total: int

    def identities_hold(self) -> bool:
        return (
            self.dt_r2v == self.dt_ingest + self.dt_adv + self.dt_sense
            and self.dt_platform == self.dt_v2r + self.dt_r2v
            and self.dt_total == self.dt_sut + self.dt_platform
        )


#: Report component name -> LatencyRecord field.
COMPONENT_FIELDS = {
    "r2v": "dt_r2v",
    "ingest": "dt_ingest",
    "adv": "dt_adv",
    "sense": "dt_sense",
    "v2r": "dt_v2r",
    "sut": "dt_sut",
    "platform": "dt_platform",
    "total": "dt_total",
}


def assemble_record(events: list[TimedEvent]) -> LatencyRecord:
    """Build the latency record for one correlation ID's events.

    Raises IncompleteCycleError naming the first missing stage, or
    OrderingCorruptionError if any interval is negative.
    """
    cid = events[0].cid if events else None
    t_by_stage: dict[Stage, int] = {}
    for ev in events:
        t_by_stage[ev.stage] = ev.t_ns
    for stage in REQUIRED_STAGES:
        if stage not in t_by_stage:
            raise IncompleteCycleError(stage, cid)

    dt_ingest = t_by_stage[Stage.R2vIngestDone] - t_by_stage[Stage.R2vIngestStart]
    dt_adv = t_by_stage[Stage.R2vAdvDone] - t_by_stage[Stage.R2vIngestDone]
    dt_sense = t_by_stage[Stage.R2vSenseDone] - t_by_stage[Stage.R2vAdvDone]
    dt_sut = t_by_stage[Stage.SutCmdOut] - t_by_stage[Stage.SutCmdIn]
    dt_v2r = t_by_stage[Stage.V2rDeliver] - t_by_stage[Stage.PerturbIn]
    for name, val in (
        ("ingest", dt_ingest),
        ("adv", dt_adv),
        ("sense", dt_sense),
        ("sut", dt_sut),
        ("v2r", dt_v2r),
    ):
        if val < 0:
            raise OrderingCorruptionError(f"negative {name} interval ({val} ns) in cid {cid}")
    dt_r2v = dt_ingest + dt_adv + dt_sense
    dt_platform = dt_v2r + dt_r2v
    return LatencyRecord(
        cid=cid if cid is not None else 0,
        dt_sut=dt_sut,
        dt_v2r=dt_v2r,
        dt_ingest=dt_ingest,
        dt_adv=dt_adv,
        dt_sense=dt_sense,
        dt_r2v=dt_r2v,
        dt_platform=dt_platform,
        dt_total=dt_sut + dt_platform,
    )


def assemble_all(events: list[TimedEvent]) -> tuple[list[LatencyRecord], dict[int, Stage]]:
    """Assemble records for every correlation ID present in an event list.

    Returns (records in cid order, {cid: first missing stage} for incomplete
    cycles).  Run-level records (cid 0) are ignored.
    """
    by_cid: dict[int, list[TimedEvent]] = {}
    for ev in events:
        if ev.cid > 0:
            by_cid.setdefault(ev.cid, []).append(ev)
    records = []
    incomplete: dict[int, Stage] = {}
    for cid in sorted(by_cid):
        try:
            records.append(assemble_record(by_cid[cid]))
        except IncompleteCycleError as exc:
            incomplete[cid] = exc.missing_stage
    return records, incomplete


@dataclass(frozen=True)
class LatencyStats:
    """Sample statistics of one latency component, in milliseconds."""

    mean_ms: float
    std_ms: float
    cv: float
    p95_ms: float
    n: int


def aggregate(records: list[LatencyRecord], component: str) -> LatencyStats:
    """Sample mean / std (n-1) / CV / nearest-rank p95 of one component."""
    if len(records) < 2:
        raise ValueError("need at least 2 records to aggregate")
    field = COMPONENT_FIELDS.get(component, component)
    vals_ms = np.array([getattr(r, field) for r in records], dtype=float) / NS_PER_MS
    mean = float(np.mean(vals_ms))
    std = float(np.std(vals_ms, ddof=1))
    cv = std / mean if mean > 0.0 else 0.0
    ranked = np.sort(vals_ms)
    rank = max(int(np.ceil(0.95 * ranked.size)), 1)
    return LatencyStats(mean_ms=mean, std_ms=std, cv=cv, p95_ms=float(ranked[rank - 1]), n=len(records))


@dataclass(frozen=True)
class CompletenessReport:
    total: int
    complete: int
    fraction: float
    violations: tuple[int, ...]


def check_completeness(records: list[LatencyRecord]) -> CompletenessReport:
    """Fraction of records whose additive identities hold exactly."""
    violations = tuple(r.cid for r in records if not r.identities_hold())
    total = len(records)
    complete = total - len(violations)
    return CompletenessReport(
        total=total,
        complete=complete,
        fraction=(complete / total) if total else 1.0,
        violations=violations,
    )


def summarize_latency(records: list[LatencyRecord]) -> dict[str, dict | None]:
    """The report's ``latency_ms`` section: the statistics of every component,
    or None for each when there are fewer than 2 records."""
    if len(records) < 2:
        return dict.fromkeys(COMPONENT_FIELDS)
    out = {}
    for name in COMPONENT_FIELDS:
        st = aggregate(records, name)
        out[name] = {"mean_ms": st.mean_ms, "std_ms": st.std_ms, "cv": st.cv,
                     "p95_ms": st.p95_ms, "n": st.n}
    return out


def write_latency_report(stats: dict[str, dict], out_path) -> None:
    """CSV report, one row per component, from ``summarize_latency`` output.

    CV is rounded to 2 decimals in the file; full precision stays available
    in the report.
    """
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("component,mean_ms,std_ms,cv,p95_ms,n\n")
        for name in COMPONENT_FIELDS:
            st = stats[name]
            fh.write(f"{name},{st['mean_ms']:.4f},{st['std_ms']:.4f},{st['cv']:.2f},"
                     f"{st['p95_ms']:.4f},{st['n']}\n")
