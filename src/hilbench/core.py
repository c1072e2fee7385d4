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
import math
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


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


#: Every ``Stage`` member under a module name, for the code that names a stage
#: per record (the run loop, ``AuditLog.admit``, the analysis fold): on Python
#: 3.11 each ``Stage.X`` lookup takes the slow path of ``EnumType.__getattr__``,
#: about 0.18 us, against 0.01 us for a module name.
(RUN_HEADER, GTS_SAMPLE, R2V_INGEST_START, R2V_INGEST_DONE, R2V_ADV_DONE, R2V_SENSE_DONE,
 SUT_CMD_IN, SUT_CMD_OUT, PERTURB_IN, PERTURB_OUT, V2R_DELIVER, ACTUATOR_APPLY, RUN_END) = Stage


class ClockError(ValueError):
    """Raised on contract violations of the virtual clock."""


class AuditOrderError(ValueError):
    """Raised when an event violates per-correlation ordering."""


class VirtualClock:
    """Virtual monotonic clock, 1 ns resolution, driven by the event loop.

    ``now_ns`` is the current time.  The event loop sets it directly to each
    event's time once it has checked that the time does not go back; any
    other driver steps it with ``advance``, which checks the step."""

    def __init__(self) -> None:
        self.now_ns = 0

    def now(self) -> int:
        return self.now_ns

    def advance(self, dt_ns: int) -> int:
        """Advance by ``dt_ns`` (>= 0) and return the new time."""
        if dt_ns < 0:
            raise ClockError(f"clock cannot advance by negative dt ({dt_ns} ns)")
        self.now_ns += int(dt_ns)
        return self.now_ns


#: Canonical compact JSON, the encoding of every audit line and of the run
#: header's config echo: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
#: without building a new encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


#: JSON types of an audit payload value.
_SCALARS = frozenset((bool, int, float, str))

#: The payload of a record that carries none: empty and read-only, so the one
#: default that every such record shares cannot be changed through any of them.
NO_PAYLOAD = MappingProxyType({})

#: Stage name by stage value, and stage by name.
_STAGE_NAMES = tuple(stage.name for stage in Stage)
_STAGES = {stage.name: stage for stage in Stage}

#: Decoder of one audit line; ``json.loads`` without its per-call set-up.
_raw_decode = json.JSONDecoder().raw_decode


class TimedEvent(NamedTuple):
    """One audit-log record: a stage boundary stamped in the run clock domain.

    ``payload`` maps string keys to scalars (bool/int/float/str) only; this
    keeps each record one flat NDJSON line.
    """

    run_id: str
    cid: int
    stage: Stage
    t_ns: int
    payload: Mapping = NO_PAYLOAD

    def to_json(self) -> str:
        """The record's audit line: ``canonical_json`` of its fields as a dict,
        whose sorted keys are cid, payload, run_id, stage, t_ns.  The fields
        must have their declared types (int ``cid`` and ``t_ns``, str
        ``run_id``); the payload may be any value ``canonical_json`` takes."""
        run_id, cid, stage, t_ns, payload = self
        if not payload and (payload is NO_PAYLOAD or type(payload) is dict):
            body = "{}"  # most records: no encoder call
        else:
            body = canonical_json(payload)
        return (f'{{"cid":{cid},"payload":{body},"run_id":{encode_basestring_ascii(run_id)},'
                f'"stage":"{_STAGE_NAMES[stage]}","t_ns":{t_ns}}}')

    @staticmethod
    def from_json(line: str) -> "TimedEvent":
        """Parse one audit line; ``cid`` and ``t_ns`` must be JSON integers and
        every payload value a scalar, or ``ValueError`` names the field."""
        try:
            obj, end = _raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            # json.loads raises its own error on the line, text after the object
            # included, or reads the whitespace around it that raw_decode refuses.
            obj = json.loads(line)
        cid = obj["cid"]
        if type(cid) is not int:
            raise ValueError(f"cid must be an integer, not {cid!r}")
        t_ns = obj["t_ns"]
        if type(t_ns) is not int:
            raise ValueError(f"t_ns must be an integer, not {t_ns!r}")
        payload = obj.get("payload", NO_PAYLOAD)
        if payload is not NO_PAYLOAD:
            if type(payload) is not dict:
                raise ValueError("payload must be an object")
            if not _SCALARS.issuperset(map(type, payload.values())):
                key, value = next((k, v) for k, v in payload.items() if type(v) not in _SCALARS)
                raise ValueError(f"payload field {key!r} must be a scalar, not {value!r}")
        return TimedEvent(obj["run_id"], cid, _STAGES[obj["stage"]], t_ns, payload)


class AuditLog:
    """Append-only event log, and the one order check of every record, be it
    appended by a live run or read back from a file.

    Every record carries the log's run_id, no timestamp is earlier than the
    one before it, and nothing follows the ``RunEnd`` record.  Correlation ID
    0 carries the run records (``RunHeader``, ``RunEnd``) and nothing else;
    every cycle stage carries a correlation ID above 0.  Within one
    correlation ID, stages appear in chain order (gaps are allowed,
    reordering and duplicates are not).  Each admitted record is handed to
    ``consumer.feed``.  ``append`` encodes each record once and writes its line
    to ``sink``, the file ``write_ndjson`` opens, as soon as the record is
    admitted; the log keeps no record itself, so an interrupted run leaves
    every record admitted before the interruption in the file.  With no sink
    the line is encoded and dropped.
    """

    def __init__(self, run_id: str, consumer=None) -> None:
        self.run_id = run_id
        self.consumer = consumer
        self.sink = None
        self.ended = False
        self._last_t = -math.inf
        self._last_stage: dict[int, Stage] = {}

    def admit(self, event: TimedEvent) -> None:
        """Raise AuditOrderError unless ``event`` may come next; else feed it on."""
        run_id, cid, stage, t_ns, _payload = event
        if run_id != self.run_id:
            raise AuditOrderError(f"event run_id {run_id!r} does not match log {self.run_id!r}")
        if self.ended:
            raise AuditOrderError(f"cid {cid}: stage {stage.name} after RunEnd, which ends the log")
        if stage is RUN_HEADER or stage is RUN_END:
            if cid != 0:
                raise AuditOrderError(f"cid {cid}: stage {stage.name} is a run record, which "
                                      f"only cid 0 carries")
        elif cid <= 0:
            raise AuditOrderError(f"cid {cid}: stage {stage.name} is a cycle stage, which needs "
                                  f"a cid above 0")
        last = self._last_stage.get(cid)
        if last is not None and stage <= last:
            raise AuditOrderError(f"cid {cid}: stage {stage.name} after {last.name} violates "
                                  f"chain order")
        if t_ns < self._last_t:
            raise AuditOrderError(f"t_ns {t_ns} earlier than the previous record's {self._last_t}")
        self._last_stage[cid] = stage
        self._last_t = t_ns
        self.ended = stage is RUN_END
        if self.consumer is not None:
            self.consumer.feed(event)

    def append(self, event: TimedEvent) -> None:
        """Admit ``event`` and write its line to the sink.  It is encoded
        first, so a record that cannot be encoded is neither admitted nor
        written."""
        line = event.to_json()
        self.admit(event)
        if self.sink is not None:
            self.sink.write(line + "\n")

    def write_ndjson(self, path):
        """Open ``path`` as the sink of every later record and return the open
        file, which the caller closes once the run is over, also when it
        raises: ``with log.write_ndjson(path): run()``.  Records appended
        before the call are in no file, so it must come before the first."""
        if self._last_stage:
            raise ValueError(f"{path}: the audit log must be opened before its first record")
        self.sink = open(path, "w", encoding="utf-8", newline="\n")
        return self.sink

    @staticmethod
    def read_ndjson(path, consumer) -> None:
        """Feed ``consumer`` each record of a log that ``append`` wrote, line
        by line, to a file opened by ``write_ndjson``, through the same order
        check (``admit``).

        A final line that lacks its newline and does not parse, with no end
        record before it, is a record torn by an interrupted write: it is
        dropped, and the log then lacks its end record, so its report reads
        as truncated.  Any other bad line, and any ``ValueError`` the
        consumer raises, raises ``ValueError`` naming its line number.
        """
        log = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    continue
                try:
                    event = TimedEvent.from_json(text)
                except (ValueError, KeyError, TypeError) as exc:
                    if not line.endswith("\n") and not (log is not None and log.ended):
                        break  # torn final line
                    raise ValueError(f"{path}: line {lineno}: not an audit record ({exc})") from exc
                if log is None:
                    log = AuditLog(event.run_id, consumer)
                try:
                    log.admit(event)
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from exc


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
    context (nothing here is shared or thread-safe across runs).  ``consumer``,
    if given, is fed each record the audit log admits.
    """

    def __init__(self, run_id: str, seed: int, consumer=None) -> None:
        self.run_id = run_id
        self.seed = int(seed)
        self.clock = VirtualClock()
        self.audit = AuditLog(run_id, consumer)
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
