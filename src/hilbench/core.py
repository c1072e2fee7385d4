"""Deterministic run plumbing shared by every other module.

A run owns a virtual monotonic clock (integer nanoseconds), a correlation-ID
counter, a family of independent seeded random substreams, and an append-only
audit log of timestamped, correlation-tagged events.  Two runs started from
the same (config, seed) produce byte-identical audit logs.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

#: Correlation ID 0 is reserved for "no correlation" (run-level records).
NO_CORRELATION = 0


class Stage(enum.IntEnum):
    """Event stages, in timing-chain order.

    ``RunHeader`` / ``RunEnd`` are run-level bookkeeping records attached to
    correlation ID 0 (config echo and termination marker); the remaining
    stages form the per-cycle chain and must appear in this order within one
    correlation ID.
    """

    RunHeader = 0
    GtsSample = 1
    R2vIngestStart = 2
    R2vIngestDone = 3
    R2vAdvDone = 4
    R2vSenseDone = 5
    SutCmdIn = 6
    SutCmdOut = 7
    PerturbIn = 8
    PerturbOut = 9
    V2rDeliver = 10
    ActuatorApply = 11
    RunEnd = 12


#: Stages that make up the per-cycle timing chain (excludes run bookkeeping).
CHAIN_STAGES = tuple(s for s in Stage if s not in (Stage.RunHeader, Stage.RunEnd))


class ClockError(ValueError):
    """Raised on contract violations of the virtual clock."""


class AuditOrderError(ValueError):
    """Raised when an event violates per-correlation ordering."""


class VirtualClock:
    """Virtual monotonic clock, 1 ns resolution, driven by the event loop."""

    def __init__(self) -> None:
        self._now_ns = 0

    def now(self) -> int:
        return self._now_ns

    def advance(self, dt_ns: int) -> int:
        """Advance by ``dt_ns`` (>= 0) and return the new time."""
        if dt_ns < 0:
            raise ClockError(f"clock cannot advance by negative dt ({dt_ns} ns)")
        self._now_ns += int(dt_ns)
        return self._now_ns


@dataclass(frozen=True)
class TimedEvent:
    """One audit-log record: a stage boundary stamped in the run clock domain.

    ``payload`` maps string keys to scalars (bool/int/float/str) only; this
    keeps each record one flat NDJSON line.
    """

    run_id: str
    cid: int
    stage: Stage
    t_ns: int
    payload: dict = field(default_factory=dict)

    def to_json(self) -> str:
        obj = {
            "run_id": self.run_id,
            "cid": self.cid,
            "stage": self.stage.name,
            "t_ns": self.t_ns,
            "payload": self.payload,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(line: str) -> "TimedEvent":
        obj = json.loads(line)
        return TimedEvent(
            run_id=obj["run_id"],
            cid=int(obj["cid"]),
            stage=Stage[obj["stage"]],
            t_ns=int(obj["t_ns"]),
            payload=obj.get("payload", {}),
        )


class AuditLog:
    """Append-only event log with per-correlation ordering enforcement.

    Within one correlation ID, stages must appear in chain order (gaps are
    allowed, reordering and duplicates are not) and timestamps must be
    non-decreasing.  Records are kept in arrival order.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.events: list[TimedEvent] = []
        self._last_per_cid: dict[int, tuple[int, int]] = {}  # cid -> (stage, t_ns)

    def append(self, event: TimedEvent) -> None:
        if event.run_id != self.run_id:
            raise AuditOrderError(
                f"event run_id {event.run_id!r} does not match log {self.run_id!r}"
            )
        last = self._last_per_cid.get(event.cid)
        if last is not None:
            last_stage, last_t = last
            if int(event.stage) <= last_stage:
                raise AuditOrderError(
                    f"cid {event.cid}: stage {event.stage.name} after "
                    f"{Stage(last_stage).name} violates chain order"
                )
            if event.t_ns < last_t:
                raise AuditOrderError(
                    f"cid {event.cid}: t_ns {event.t_ns} earlier than previous {last_t}"
                )
        self._last_per_cid[event.cid] = (int(event.stage), event.t_ns)
        self.events.append(event)

    def iter_lines(self):
        for ev in self.events:
            yield ev.to_json()

    def write_ndjson(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in self.iter_lines():
                fh.write(line)
                fh.write("\n")

    @staticmethod
    def read_ndjson(path) -> list[TimedEvent]:
        events = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(TimedEvent.from_json(line))
        return events


def substream_seed(root_seed: int, label: str) -> int:
    """Derive a 64-bit child seed from (root seed, label).

    Hash-based so that adding or removing one consumer never reshuffles the
    draws of another: streams are addressed by name, not by creation order.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_stream(root_seed: int, label: str) -> np.random.Generator:
    """Independent deterministic substream for (root seed, label)."""
    return np.random.Generator(np.random.PCG64(substream_seed(root_seed, label)))


class RunContext:
    """Owner of one run's clock, ID counter, substreams, and audit log.

    Run contexts are independent; concurrent runs must each own their own
    context (nothing here is shared or thread-safe across runs).
    """

    def __init__(self, run_id: str, seed: int) -> None:
        self.run_id = run_id
        self.seed = int(seed)
        self.clock = VirtualClock()
        self.audit = AuditLog(run_id)
        self._next_cid = 1
        self._streams: dict[str, np.random.Generator] = {}

    def issue_correlation_id(self) -> int:
        cid = self._next_cid
        self._next_cid += 1
        return cid

    def stream(self, label: str) -> np.random.Generator:
        gen = self._streams.get(label)
        if gen is None:
            gen = rng_stream(self.seed, label)
            self._streams[label] = gen
        return gen

    def emit(self, stage: Stage, cid: int, t_ns: int, payload: dict | None = None) -> TimedEvent:
        ev = TimedEvent(self.run_id, cid, stage, int(t_ns), payload or {})
        self.audit.append(ev)
        return ev


def ms_to_ns(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (round half to even)."""
    return round(ms * NS_PER_MS)


def s_to_ns(seconds: float) -> int:
    return round(seconds * NS_PER_S)


def json_document(doc) -> str:
    """Text of a JSON artifact file: sorted keys, 2-space indent, final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_document(doc))
