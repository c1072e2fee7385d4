"""Deterministic run plumbing shared by every other module.

Event stages, the payload shape of each stage's record, the audit record and
its canonical line, the append-only audit log with its one order check,
seeded random substreams addressed by label, and time-unit conversions.  Two
runs started from the same (config, seed) produce byte-identical audit logs.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from collections.abc import Mapping
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
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


class AuditOrderError(ValueError):
    """Raised when an event violates per-correlation ordering."""


#: Canonical compact JSON, the encoding of every audit line and of the run
#: header's config echo: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
#: without building a new encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


#: Encoder of one audit payload, built once: ``canonical_json``'s settings
#: (sorted keys, ``:`` and ``,``, NaN and infinities allowed, no indent) in
#: the C encoder that ``canonical_json`` builds anew on every call.  It keeps
#: no circular-reference markers, which a payload of scalars cannot need (a
#: circular payload raises ``RecursionError``, not ``ValueError``).
#: ``_encode_payload(payload, 0)`` returns the text in chunks.
_encode_payload = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                                 None, ":", ",", True, False, True)

#: The payload of a record that carries none: empty and read-only, so the one
#: default that every such record shares cannot be changed through any of them.
NO_PAYLOAD = MappingProxyType({})

#: Stage name by stage value, and stage by name.
_STAGE_NAMES = tuple(stage.name for stage in Stage)
_STAGES = {stage.name: stage for stage in Stage}

#: Decoder of one audit line; ``json.loads`` without its per-call set-up.
_raw_decode = json.JSONDecoder().raw_decode


@lru_cache(maxsize=64)
def _line_tails(run_id: str) -> tuple[str, ...]:
    """Per stage, the text of an audit line of ``run_id`` between the payload
    and the ``t_ns`` value: ``,"run_id":...,"stage":"...","t_ns":``."""
    run_id_text = encode_basestring_ascii(run_id)
    return tuple(f',"run_id":{run_id_text},"stage":"{name}","t_ns":' for name in _STAGE_NAMES)


def float_text(v: float) -> str:
    """``canonical_json``'s text of one float: its ``repr``, or ``NaN``,
    ``Infinity`` or ``-Infinity``.  A value of any other type is written as
    ``canonical_json`` writes it."""
    if type(v) is not float:
        return canonical_json(v)
    if v - v == 0.0:  # finite
        return repr(v)
    return "NaN" if v != v else ("Infinity" if v > 0.0 else "-Infinity")


#: The JSON kinds of a payload field, worded as a failed check names them, and
#: the types ``json`` reads for each: a number is an int or a float, not a bool.
NUMBER, BOOL, INT, STRING = "a number", "a bool", "an integer", "a string"
_KIND_TYPES = {NUMBER: (int, float), BOOL: (bool,), INT: (int,), STRING: (str,)}
_COMMAND = {"speed": NUMBER, "steer": NUMBER}

#: The one statement of each stage's payload: its fields with their JSON
#: kinds, in canonical (sorted) key order, and the flags it may carry, only as
#: ``true``.  From the scenario's activation on, a sense record also carries
#: the ``npc_keys`` of every NPC of the run header's config; before it, none.
PAYLOAD_SHAPES = {
    RUN_HEADER: ({"config_json": STRING}, ()),
    GTS_SAMPLE: ({"heading": NUMBER, "v": NUMBER, "x": NUMBER, "y": NUMBER}, ()),
    R2V_INGEST_START: ({}, ()),
    R2V_INGEST_DONE: ({}, ()),
    R2V_ADV_DONE: ({}, ()),
    R2V_SENSE_DONE: ({"heading": NUMBER, "stale": BOOL, "v": NUMBER, "x": NUMBER, "y": NUMBER}, ()),
    SUT_CMD_IN: ({}, ()),
    SUT_CMD_OUT: (_COMMAND, ()),
    PERTURB_IN: ({}, ("dropped",)),
    PERTURB_OUT: ({}, ()),
    V2R_DELIVER: ({}, ("fifo_clamped",)),
    ACTUATOR_APPLY: (_COMMAND, ("speed_limited", "speed_map_clamped", "steer_limited",
                                "steer_map_clamped")),
    RUN_END: ({"abort_reason": STRING, "aborted": BOOL, "gts_samples": INT}, ()),
}


def npc_keys(npc_id: str) -> tuple[str, ...]:
    """The payload keys of an NPC's state in a sense record, numbers in
    ``AgentState`` order: its position, velocity and footprint radius."""
    return tuple(f"npc_{npc_id}_{k}" for k in ("x", "y", "vx", "vy", "r"))


#: The fixed-shape payload texts of the records a run writes most, without
#: flag or NPC: each takes the tuple of its fields' texts in table order (the
#: ``float_text`` of a number, ``true`` or ``false`` of a bool) and returns
#: ``canonical_json`` of the payload, so a run formats each value once and
#: reuses its text in a later record of the same cycle.
pose_text, sense_text, command_text = (
    ("{" + ",".join(f'"{key}":%s' for key in PAYLOAD_SHAPES[stage][0]) + "}").__mod__
    for stage in (GTS_SAMPLE, R2V_SENSE_DONE, SUT_CMD_OUT))


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

    def to_json(self, body: str | None = None) -> str:
        """The record's audit line: ``canonical_json`` of its fields as a dict,
        whose sorted keys are cid, payload, run_id, stage, t_ns.  The fields
        must have their declared types (int ``cid`` and ``t_ns``, str
        ``run_id``); the payload may be any value ``canonical_json`` takes.
        ``body``, if given, is the payload's text, which the caller has made
        equal to ``canonical_json(payload)`` (see ``pose_text`` and the other
        fixed-shape texts)."""
        run_id, cid, stage, t_ns, payload = self
        if body is None:
            if not payload and (payload is NO_PAYLOAD or type(payload) is dict):
                body = "{}"  # most records: no encoder call
            else:
                body = "".join(_encode_payload(payload, 0))
        return f'{{"cid":{cid},"payload":{body}{_line_tails(run_id)[stage]}{t_ns}}}'

    @staticmethod
    def from_json(line: str) -> "TimedEvent":
        """Parse one audit line; ``cid`` and ``t_ns`` must be JSON integers and
        the payload an object, or ``ValueError`` names the field.  Its values
        are checked by ``check_payload``."""
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
        if payload is not NO_PAYLOAD and type(payload) is not dict:
            raise ValueError("payload must be an object")
        return tuple.__new__(TimedEvent, (obj["run_id"], cid, _STAGES[obj["stage"]], t_ns,
                                          payload))


def check_payload(event: TimedEvent, known: dict) -> None:
    """Raise ``ValueError`` unless the payload of ``event`` fits its stage's
    entry of ``PAYLOAD_SHAPES``, naming the stage, the cid and the first field
    at fault.  A sense record's ``npc_`` fields must be numbers; which NPCs it
    carries, the analysis fold checks against the run header.  ``known``, one
    per log, maps each ``(stage, keys)`` found to fit to its value types and
    flags: a record of a shape already seen costs one lookup, any other is
    checked field by field."""
    _run_id, cid, stage, _t_ns, payload = event
    keys, types = tuple(payload), tuple(map(type, payload.values()))
    fit = known.get((stage, keys))
    if fit is not None and fit[0] == types and (not fit[1] or all(map(payload.get, fit[1]))):
        return
    fields, flags = PAYLOAD_SHAPES[stage]
    if stage is R2V_SENSE_DONE:
        fields = {**fields, **dict.fromkeys((k for k in keys if k.startswith("npc_")), NUMBER)}
    where = f"{stage.name} cid {cid}: payload field"
    for key, kind in fields.items():
        if type(value := payload.get(key)) not in _KIND_TYPES[kind]:
            raise ValueError(f"{where} {key!r} must be {kind}, not {value!r}")
    for key in (key for key in keys if key not in fields):
        if key not in flags:
            raise ValueError(f"{where} {key!r} is not a field of {stage.name}")
        if (value := payload[key]) is not True:
            raise ValueError(f"{where} {key!r} must be "
                             f"{'true' if type(value) is bool else BOOL}, not {value!r}")
    known[stage, keys] = types, tuple(k for k in keys if k in flags)


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

    def append(self, event: TimedEvent, body: str | None = None) -> None:
        """Admit ``event`` and write its line to the sink, with ``body`` as its
        payload text if given (see ``TimedEvent.to_json``).  It is encoded
        first, so a record that cannot be encoded is neither admitted nor
        written."""
        line = event.to_json(body)
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
        check (``admit``), once its payload fits its shape (``check_payload``).

        A final line that lacks its newline and does not decode (UTF-8) or
        parse, with no end record before it, is a record torn by an
        interrupted write: it is dropped, and the log then lacks its end
        record, so its report reads as truncated.  Blank lines are skipped.
        Any other bad line or payload, and any ``ValueError`` or
        ``OverflowError`` the consumer raises, raises ``ValueError`` naming
        its line number.
        """
        log = None
        known = {}  # the payload shapes found to fit so far, for check_payload
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    text = line.decode("utf-8").strip()
                    if not text:
                        continue
                    event = TimedEvent.from_json(text)
                except (ValueError, KeyError, TypeError) as exc:  # also a UnicodeDecodeError
                    if not line.endswith(b"\n") and not (log is not None and log.ended):
                        break  # torn final line
                    raise ValueError(f"{path}: line {lineno}: not an audit record ({exc})") from exc
                if log is None:
                    log = AuditLog(event.run_id, consumer)
                try:
                    check_payload(event, known)
                    log.admit(event)
                except (ValueError, OverflowError) as exc:  # also a number beyond a fold's column
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
