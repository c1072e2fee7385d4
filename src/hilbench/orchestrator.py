"""Closed-loop run orchestration: scheduler, workflow stages, and reports.

One run is a single-threaded discrete-event loop.  Events are processed in
(time, insertion-order) priority; each cycle flows

    GTS sample -> R2V stages -> controller step (latency-scheduled)
    -> perturbation -> V2R delivery -> actuator apply

with the plant integrating continuously between events.  Every stage boundary
appends one audit record when it fires, so the log is globally time-ordered
and the whole run directory is recomputable from the log alone:
``replay_report`` rebuilds the exact same report and fold from the file, and
``write_run_files`` writes the files of a fold, live or replayed.

The three workflow stages map onto this loop: stage 1 runs it clean for a
baseline, stage 2 sweeps the command-link perturbation delay, one independent
run per point (in forked workers, one per usable CPU), and collects the
response curve, stage 3 arms a scripted multi-agent scenario on a trigger
zone and scores the interaction safety metrics.
"""

from __future__ import annotations

import json
import math
import os
import sys
from array import array
from functools import partial
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import config as cfg_mod
from . import temporal
from .core import (ACTUATOR_APPLY, GTS_SAMPLE, NO_PAYLOAD, NS_PER_S, PAYLOAD_SHAPES, PERTURB_IN,
                   PERTURB_OUT, R2V_ADV_DONE, R2V_INGEST_DONE, R2V_INGEST_START, R2V_SENSE_DONE,
                   RUN_END, RUN_HEADER, SUT_CMD_IN, SUT_CMD_OUT, V2R_DELIVER, AuditLog, Stage,
                   TimedEvent, canonical_json, command_text, float_text, ms_to_ns, npc_keys,
                   pose_text, rng_stream, s_to_ns, sense_text, substream_seed, write_json)
from .links import R2VLink, V2RLink, sampler
from .plant import Plant
from .safety import (AgentState, SafetyTrace, d_min_trace, extract_events, finite_or_none,
                     frame_metrics, write_safety_csv)
from .spatial import (ReferencePath, TrajectorySample, project, summarize, track_errors,
                      write_trajectory_csv)
from .sut import Observation, PurePursuitParams, PurePursuitSut


#: ``_new(TimedEvent, fields)`` builds a record from its field tuple without the
#: Python-level ``__new__`` of the named tuple.
_new = tuple.__new__


#: Standard relative artifact names for one run directory.
ARTIFACTS = {
    "audit": "audit.ndjson",
    "report": "report.json",
    "trajectory": "trajectory.csv",
    "latency": "latency.csv",
    "safety": "safety.csv",
    "events": "events.json",
}


class Npc:
    """Scripted route follower, a pure route profile: ``state_at`` gives its
    state at a time after the scenario's activation, which the runner holds.
    From standstill it accelerates to its cruise speed, then cruises on a
    closed route, or brakes to rest at an open route's end, peaking at
    ``v_peak`` below cruise when the route is too short to reach it.  The
    profile's constants are computed once; ``keys`` are its payload keys."""

    def __init__(self, spec: dict) -> None:
        self.npc_id = spec["id"]
        self.keys = npc_keys(self.npc_id)
        self.route = ReferencePath(spec["route"]["vertices"], closed=spec["route"]["closed"])
        self.radius = spec["radius_m"]
        speed, length = spec["speed"], self.route.total_length
        accel, cruise, decel = speed["accel_mps2"], speed["cruise_mps"], speed["decel_mps2"]
        self.accel, self.decel = accel, decel
        self.t_acc = cruise / accel
        self.s_acc = 0.5 * cruise**2 / accel
        self.v_peak, self.cruise_len, self.t_cruise = cruise, 0.0, math.inf
        if not self.route.closed:
            s_dec = 0.5 * cruise**2 / decel
            if self.s_acc + s_dec <= length:
                self.cruise_len = length - self.s_acc - s_dec
            else:
                self.v_peak = math.sqrt(2.0 * length * accel * decel / (accel + decel))
                self.t_acc = self.v_peak / accel
                self.s_acc = 0.5 * self.v_peak**2 / accel
            self.t_cruise = self.cruise_len / self.v_peak
        self.t_dec = self.v_peak / decel

    def state_at(self, t_ns: int, activation_t_ns: int) -> AgentState:
        """The state at ``t_ns``, not before ``activation_t_ns``, when it set off."""
        dt = (t_ns - activation_t_ns) / NS_PER_S
        if dt <= self.t_acc:
            s, v = 0.5 * self.accel * dt**2, self.accel * dt
        elif dt <= self.t_acc + self.t_cruise:
            s, v = self.s_acc + self.v_peak * (dt - self.t_acc), self.v_peak
        elif (td := dt - self.t_acc - self.t_cruise) <= self.t_dec:
            s = self.s_acc + self.cruise_len + self.v_peak * td - 0.5 * self.decel * td**2
            v = self.v_peak - self.decel * td
        else:
            s, v = self.route.total_length, 0.0
        x, y, tx, ty = self.route.pose_at(s)
        return AgentState(self.npc_id, int(t_ns), x, y, v * tx, v * ty, self.radius)


class Runner:
    """Executes one run from a resolved config document, and owns the run's
    state: its virtual clock ``now_ns`` (integer ns), its correlation IDs
    (``gts_count``: cycle ``n`` gets ``n``; the run records carry 0), its audit
    log, and its random streams (one ``rng_stream`` label per consumer, each
    asked once).  The controller only maps an observation to ``(speed,
    steer)``: the runner checks that command and draws its processing latency
    from ``sut.lat``.  It also holds the scenario's activation instant
    (``activation_t_ns``), the first sense instant whose mirrored ego position
    lies in the trigger zone: from then on every sense record carries the
    state of every NPC, before it none.

    The scheduler is ``heap``, a min-heap of ``(t_ns, insertion sequence,
    handler, args)`` entries: ``run`` pops them in (time, insertion) order,
    sets ``now_ns`` to each entry's time and calls ``handler(t_ns, *args)``.
    Every record the run emits goes straight to ``audit.append``.  The loop
    checks no order itself: every delay the run schedules is at least 0, and
    every handler appends a record stamped with its entry's time, so an entry
    that fired before the clock would stop the run at ``AuditLog.admit``, the
    one order check, naming its time (or sooner, at the plant's own check, in
    a handler that advances the plant).  A value that two records of one cycle carry is
    formatted once (``float_text``), and both records are written with the
    fixed-shape payload texts of ``core``; a flagged ``ActuatorApply`` or an
    NPC-carrying sense record goes through the general encoder.
    """

    def __init__(self, resolved: dict) -> None:
        self.cfg = resolved
        self.run_id = resolved["run_id"]
        self.analyzer = Analyzer()
        self.audit = AuditLog(self.run_id, self.analyzer)
        self.now_ns = 0
        self.heap: list = []
        self._seq = count()
        stream = partial(rng_stream, resolved["seed"])
        self.path = ReferencePath(resolved["path"]["vertices"], closed=resolved["path"]["closed"])
        pose = resolved["plant"]["initial_pose"]
        if pose is None:
            pose = self.path.start_pose()
        self.plant = Plant(resolved["plant"], pose[0], pose[1], pose[2],
                           rng=stream("plant.deadtime"))
        self.period_ns = ms_to_ns(resolved["gts"]["sample_period_ms"])
        self.r2v = R2VLink(resolved["links"]["r2v"], stream)
        self.v2r = V2RLink(resolved["links"]["v2r"], stream)
        sut_cfg = resolved["sut"]
        params = {"wheelbase": resolved["plant"]["wheelbase_m"],
                  "ego_radius": resolved["report"]["ego_radius_m"], **sut_cfg["params"]}
        self.sut = PurePursuitSut(PurePursuitParams(**params))
        self._sut_latency_ms = sampler(sut_cfg["latency"], kind_key="mode")
        self._sut_lat_rng = stream("sut.lat")
        self.goal_speed = sut_cfg["goal_speed_mps"]
        self.npcs = [Npc(spec) for spec in (resolved["scenario"] or {"npcs": []})["npcs"]]
        self.trigger_zone = (resolved["scenario"] or {}).get("trigger_zone")
        self.activation_t_ns: int | None = None
        # The state of every NPC at the latest sense event, none before the
        # activation: computed once for its payload, reused by the controller.
        self._npc_states: list[AgentState] = []

        self.aborted = False
        self.abort_reason: str | None = None
        self.gts_count = 0
        # Mirror: the virtual domain's freshest synchronized ego state, as the
        # pose sample it came from: (x, y, heading, v, sample t_ns, the
        # float_text of heading, v, x and y).
        self._mirror = (pose[0], pose[1], pose[2], 0.0, -1, None)
        term = resolved["termination"]
        limit_s = term["duration_s"] if term["mode"] == "duration" else term["max_duration_s"]
        self.t_limit_ns = s_to_ns(limit_s)

    # -- event handlers -----------------------------------------------------

    def _schedule(self, t_ns: int, handler, *args) -> None:
        heappush(self.heap, (int(t_ns), next(self._seq), handler, args))

    def _emit(self, t_ns: int, stage: Stage, cid: int, payload=NO_PAYLOAD) -> None:
        self.audit.append(_new(TimedEvent, (self.run_id, cid, stage, t_ns, payload)))

    def _on_gts(self, t_ns: int) -> None:
        self.plant.advance_to(t_ns)
        (x, y, heading), v = self.plant.pose, self.plant.v_actual
        self.gts_count += 1
        cid = self.gts_count  # cycle n has correlation ID n
        texts = (float_text(heading), float_text(v), float_text(x), float_text(y))
        self.audit.append(_new(TimedEvent, (self.run_id, cid, GTS_SAMPLE, t_ns, {
            "x": x, "y": y, "heading": heading, "v": v,
        })), pose_text(texts))
        sched = self.r2v.transmit(t_ns)
        self._schedule(sched.t_ingest_start, self._emit, R2V_INGEST_START, cid)
        self._schedule(sched.t_ingest_done, self._emit, R2V_INGEST_DONE, cid)
        self._schedule(sched.t_adv_done, self._emit, R2V_ADV_DONE, cid)
        self._schedule(sched.t_sense_done, self._on_sense_done, cid,
                       (x, y, heading, v, t_ns, texts))
        t_next = t_ns + self.period_ns
        if t_next < self.t_limit_ns and not self.analyzer.laps_done():
            self._schedule(t_next, self._on_gts)

    def _on_sense_done(self, t_ns: int, cid: int, sample) -> None:
        stale = sample[4] < self._mirror[4]
        if not stale:
            self._mirror = sample
        x, y, heading, v, _t_sample, texts = self._mirror
        if self.activation_t_ns is None and self.trigger_zone:
            x0, y0, x1, y1 = self.trigger_zone
            if x0 <= x <= x1 and y0 <= y <= y1:
                self.activation_t_ns = t_ns
        payload = {"x": x, "y": y, "heading": heading, "v": v, "stale": stale}
        if self.activation_t_ns is None:
            body = sense_text((texts[0], "true" if stale else "false") + texts[1:])
        else:
            self._npc_states = [npc.state_at(t_ns, self.activation_t_ns) for npc in self.npcs]
            for npc, a in zip(self.npcs, self._npc_states):
                payload.update(zip(npc.keys, (a.x, a.y, a.vx, a.vy, a.radius)))
            body = None  # not the fixed shape: the payload is encoded whole
        self.audit.append(_new(TimedEvent, (self.run_id, cid, R2V_SENSE_DONE, t_ns, payload)), body)
        self._schedule(t_ns, self._on_sut_in, cid)

    def _detections(self) -> tuple[AgentState, ...]:
        rng_m = self.cfg["report"]["sensing_range_m"]
        x, y = self._mirror[0], self._mirror[1]
        return tuple(a for a in self._npc_states if math.hypot(a.x - x, a.y - y) <= rng_m)

    def _on_sut_in(self, t_ns: int, cid: int) -> None:
        self.audit.append(_new(TimedEvent, (self.run_id, cid, SUT_CMD_IN, t_ns, NO_PAYLOAD)))
        x, y, heading = self._mirror[:3]
        obs = Observation(
            ego=TrajectorySample(t_ns, x, y, heading),
            detections=self._detections(),
            route=self.path,
            goal_speed=self.goal_speed,
        )
        try:
            cmd = self.sut.step(obs)
        except Exception as exc:  # controller misbehaved: abort, keep partial data
            self._abort(f"sut raised: {exc}")
            return
        speed, steer = cmd
        if not (math.isfinite(speed) and math.isfinite(steer)):
            self._abort("sut raised: command setpoints must be finite")
            return
        latency_ns = ms_to_ns(self._sut_latency_ms(self._sut_lat_rng))
        if latency_ns > 10 * self.period_ns:
            self._abort("sut missed the 10-period watchdog deadline")
            return
        self._schedule(t_ns + latency_ns, self._on_sut_out, cid, speed, steer)

    def _on_sut_out(self, t_ns: int, cid: int, speed: float, steer: float) -> None:
        texts = (float_text(speed), float_text(steer))
        self.audit.append(_new(TimedEvent, (self.run_id, cid, SUT_CMD_OUT, t_ns, {
            "speed": speed, "steer": steer,
        })), command_text(texts))
        sched = self.v2r.transmit(t_ns)
        if sched.dropped:
            self._schedule(sched.t_perturb_in, self._emit, PERTURB_IN, cid, {"dropped": True})
            return
        self._schedule(sched.t_perturb_in, self._emit, PERTURB_IN, cid)
        self._schedule(sched.t_perturb_out, self._emit, PERTURB_OUT, cid)
        self._schedule(sched.t_deliver, self._emit, V2R_DELIVER, cid,
                       {"fifo_clamped": True} if sched.fifo_clamped else NO_PAYLOAD)
        self._schedule(sched.t_deliver, self._on_actuator, cid, speed, steer, texts)

    def _on_actuator(self, t_ns: int, cid: int, speed: float, steer: float, texts) -> None:
        self.plant.advance_to(t_ns)
        flags = self.plant.apply_command(t_ns, speed, steer)
        payload = {"speed": speed, "steer": steer}
        payload.update(flags)
        self.audit.append(_new(TimedEvent, (self.run_id, cid, ACTUATOR_APPLY, t_ns, payload)),
                          None if flags else command_text(texts))

    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason

    # -- main loop ----------------------------------------------------------

    def run(self) -> dict:
        self._emit(0, RUN_HEADER, 0, {"config_json": canonical_json(self.cfg)})
        self._schedule(0, self._on_gts)
        heap = self.heap
        while heap and not self.aborted:
            t_ns, _seq, handler, args = heappop(heap)
            self.now_ns = t_ns
            handler(t_ns, *args)
        self._emit(self.now_ns, RUN_END, 0, {
            "aborted": self.aborted,
            "abort_reason": self.abort_reason or "",
            "gts_samples": self.gts_count,
        })
        return self.analyzer.finish()


# ---------------------------------------------------------------------------
# Report building (shared by live runs and log replay)


#: Length of a cid's list of stage times, which ``Stage`` indexes.
_N_STAGES = len(Stage)
#: The fields of a sense record that carries no NPC.
_SENSE_FIELDS = frozenset(PAYLOAD_SHAPES[R2V_SENSE_DONE][0])


def _agent(ev: TimedEvent, agent_id: str, x, y, vx, vy, radius) -> AgentState:
    """The ``AgentState`` of one agent of a sense event; one that fails its
    check names the stage, the cid and the agent."""
    try:
        return AgentState(agent_id, ev.t_ns, x, y, vx, vy, radius)
    except ValueError as exc:
        raise ValueError(f"{ev.stage.name} cid {ev.cid}: agent {agent_id!r}: {exc}") from exc


class Analyzer:
    """The one analysis of a run, fed its audit records one at a time (live by
    ``AuditLog.append``, from a file by ``AuditLog.read_ndjson``); ``finish``
    returns the report.  The first record must be the run header, which
    carries the resolved config; a missing end record marks the log as
    truncated.

    Each record is reduced as it is fed, to a fixed number of bytes per cycle
    in ``array`` columns.  ``rows`` holds the ground-truth samples as the
    columns ``(t_ns, x, y, heading)``.  ``path`` is the reference path of the
    header's config.  Each ground-truth sample is projected onto it once, as
    it is fed, and adds its step to ``progress`` (the unwrapped arc length,
    each step wrapped to the nearest lap) and to ``distance`` (the straight
    line from the sample before); the live lap stop (``laps_done``) and the
    report read these same sums.  Every sense record of a scenario run is
    reduced to its ``frame_metrics``.  Payloads are read as
    ``core.PAYLOAD_SHAPES`` states them: a live run writes them so, and
    replay checks each record before the fold is fed it.  The fold checks
    what is not a shape: a sense record carries the fields of every NPC of
    the header or of none, each agent passes ``AgentState``'s rule, and
    ``gts_samples`` counts the samples.
    A cycle keeps a list of its stage times only while it is in flight: at
    its V2rDeliver, the last of the ``temporal.REQUIRED_STAGES``, it is
    assembled (``temporal.assemble``) into a fixed-size latency row, or noted
    as incomplete, and at its ActuatorApply, which ends its chain, the list
    goes.  A cycle whose command was dropped stays in flight.  After
    ``finish``, ``safety_trace`` is the trace behind ``report["safety"]``
    (None when the report has no safety section).
    """

    def __init__(self) -> None:
        self.cfg: dict | None = None
        self.run_id: str | None = None
        self.rows = (array("q"), array("d"), array("d"), array("d"))
        self.path: ReferencePath | None = None
        self.progress = self.distance = 0.0
        self._last_s = 0.0  # arc length of the last ground-truth sample
        # Stage times of each cycle in flight, kept from its first record to
        # its ActuatorApply, or to the end when that never comes.
        self._in_flight: dict[int, list[int | None]] = {}
        # One row per assembled cycle, in the order they completed: its cid,
        # then its record as temporal.assemble returns it.
        self._records = array("q")
        self._incomplete: dict[int, Stage] = {}  # first missing stage of an assembled cycle
        self._frames = (array("q"), array("d"), array("d"))  # (t_ns, ttc, dmin) per sense frame
        self._triggered = False
        self.sent = self.dropped = self.delivered = 0
        self.end: dict | None = None
        self.safety_trace: SafetyTrace | None = None
        self._npcs = []  # per NPC of the header: (id, the reader of its payload fields)
        self._sense_keys = _SENSE_FIELDS  # the keys of a sense record that carries the NPCs

    def feed(self, ev: TimedEvent) -> None:
        _run_id, cid, stage, t_ns, payload = ev
        if cid > 0:
            t = self._in_flight.get(cid)
            if t is None:
                t = self._in_flight[cid] = [None] * _N_STAGES
            t[stage] = t_ns
        if self.cfg is None:
            self._header(ev)
        elif stage is GTS_SAMPLE:
            x, y, heading = payload["x"], payload["y"], payload["heading"]
            t_col, x_col, y_col, heading_col = self.rows
            s = project(self.path, (x, y)).arclength
            if t_col:
                self.progress += self.path.lap_delta(s - self._last_s)
                self.distance += math.hypot(x - x_col[-1], y - y_col[-1])
            self._last_s = s
            t_col.append(t_ns)
            x_col.append(x)
            y_col.append(y)
            heading_col.append(heading)
        elif stage is R2V_SENSE_DONE:
            if len(payload) > len(_SENSE_FIELDS) and payload.keys() != self._sense_keys:
                key = min(payload.keys() ^ self._sense_keys)
                raise ValueError(f"R2vSenseDone cid {cid}: payload field {key!r}: a sense "
                                 f"record carries the fields of every NPC of the header, or none")
            if self._npcs:
                self._frame(ev)
        elif stage is PERTURB_IN:
            self.sent += 1
            if "dropped" in payload:
                self.dropped += 1
        elif stage is V2R_DELIVER:  # the last of the temporal.REQUIRED_STAGES
            self.delivered += 1
            rec = temporal.assemble(t)
            if type(rec) is tuple:
                self._records.append(cid)
                self._records.extend(rec)
            else:
                self._incomplete[cid] = rec
        elif stage is ACTUATOR_APPLY:
            if t[V2R_DELIVER] is not None:  # assembled, and no later stage may follow
                del self._in_flight[cid]
        elif stage is RUN_END:
            samples = payload["gts_samples"]
            if samples != len(self.rows[0]):
                raise ValueError(f"RunEnd cid {cid}: payload field 'gts_samples' is {samples}, "
                                 f"but the log holds {len(self.rows[0])} GtsSample records")
            self.end = payload

    def _header(self, ev: TimedEvent) -> None:
        if ev.stage is not Stage.RunHeader:
            raise ValueError("audit log does not start with a run header")
        try:  # resolved again, so that a damaged echo fails naming its field
            cfg = cfg_mod.resolve_run_config(json.loads(ev.payload["config_json"]))
        except ValueError as exc:  # also a ConfigError or a JSON syntax error
            raise ValueError(f"config echo: {exc}") from exc
        if cfg["run_id"] != ev.run_id:
            raise ValueError(f"config echo: run_id: {cfg['run_id']!r} differs from the records' "
                             f"run_id {ev.run_id!r}")
        self.cfg, self.run_id = cfg, ev.run_id
        self.path = ReferencePath(cfg["path"]["vertices"], closed=cfg["path"]["closed"])
        ids = [npc["id"] for npc in (cfg["scenario"] or {"npcs": []})["npcs"]]
        self._npcs = [(i, itemgetter(*npc_keys(i))) for i in ids]
        self._sense_keys = _SENSE_FIELDS.union(*map(npc_keys, ids))

    def laps_done(self) -> bool:
        """Whether a ``laps`` run has gone its laps: its progress has reached
        ``laps`` times the path length.  Never true for a ``duration`` run."""
        term = self.cfg["termination"]
        return term["mode"] == "laps" and self.progress >= term["laps"] * self.path.total_length

    def _frame(self, ev: TimedEvent) -> None:
        """Reduce a sense event to its ``frame_metrics``: the ego's mirrored
        state against that of every NPC the payload carries."""
        payload = ev.payload
        v, heading = payload["v"], payload["heading"]
        ego = _agent(ev, "ego", payload["x"], payload["y"], v * math.cos(heading),
                     v * math.sin(heading), self.cfg["report"]["ego_radius_m"])
        others = []
        if len(payload) > len(_SENSE_FIELDS):  # from the activation on
            others = [_agent(ev, nid, *fields(payload)) for nid, fields in self._npcs]
        ttc, dmin = frame_metrics(ego, others)
        t_col, ttc_col, dmin_col = self._frames
        t_col.append(ev.t_ns)
        ttc_col.append(ttc)
        dmin_col.append(dmin)
        if others:
            self._triggered = True

    def _latency(self) -> tuple[dict[str, np.ndarray], list[int], dict[int, Stage]]:
        """The assembled records as ``{component: ns}`` columns in cid order,
        the cids of those with a hand-off that no component counts, and
        ``{cid: first missing stage}`` of every incomplete cycle."""
        rows = np.frombuffer(self._records, dtype=np.int64)
        rows = rows.reshape(-1, len(temporal.COMPONENTS) + 2)
        # Cycles complete out of cid order under R2V jitter or a reordering
        # injector.
        rows = rows[np.argsort(rows[:, 0])]
        columns = dict(zip(temporal.COMPONENTS, rows[:, 1:-1].T))
        in_flight = {cid: t for cid, t in self._in_flight.items() if t[V2R_DELIVER] is None}
        # Each of these lacks its V2rDeliver, a required stage, so assemble_all
        # finds it incomplete and returns no record.
        _records, incomplete, _gapped = temporal.assemble_all(in_flight)
        incomplete.update(self._incomplete)
        return columns, rows[rows[:, -1] != 0, 0].tolist(), incomplete

    def finish(self) -> dict:
        """The report of the records fed so far."""
        cfg, end = self.cfg, self.end
        if cfg is None:
            raise ValueError("empty audit log")
        truncated = end is None
        aborted = end["aborted"] if end else False

        n_rows = len(self.rows[0])
        cte_summary = ate_summary = None
        max_cte = 0.0
        if n_rows:
            ctes, ates = array("d"), array("d")
            for c, a in track_errors(self.path, zip(*self.rows), cfg["sut"]["goal_speed_mps"]):
                ctes.append(c)
                ates.append(a)
            cte_summary = summarize(ctes)
            ate_summary = summarize(ates)
            max_cte = max(ctes)

        latency, gapped, incomplete = self._latency()
        n_records = len(latency["total"])

        completed = not aborted and not truncated and cte_summary is not None \
            and max_cte <= cfg["report"]["completion_corridor_m"]
        if cfg["termination"]["mode"] == "laps":
            completed = completed and self.laps_done()

        safety = None
        if self._frames[0]:
            trace = self.safety_trace = d_min_trace(*self._frames)
            events = extract_events(trace, cfg["report"])
            safety = {
                "n_frames": len(trace),
                "ttc_min_s": finite_or_none(trace.ttc_min),
                "t_at_ttc_min_ns": trace.t_at_ttc_min,
                "d_min_m": finite_or_none(trace.d_min),
                "t_at_d_min_ns": trace.t_at_d_min,
                "events": events,
                "triggered": self._triggered,
            }

        return {
            "schema_version": 1,
            "stage": "stage3" if cfg["scenario"] is not None else "stage1",
            "run_id": self.run_id,
            "seed": cfg["seed"],
            "aborted": aborted,
            "abort_reason": (end["abort_reason"] if end else "") or None,
            "truncated": truncated,
            "completed": completed,
            "cycles": {
                "gts_samples": n_rows,
                "latency_records": n_records,
                "incomplete": {str(cid): stage.name for cid, stage in sorted(incomplete.items())},
                "v2r_sent": self.sent,
                "v2r_delivered": self.delivered,
                "v2r_dropped": self.dropped,
            },
            "completeness": {
                "fraction": (n_records - len(gapped)) / n_records if n_records else 1.0,
                "violations": gapped,
            },
            "cte": cte_summary,
            "ate": ate_summary,
            "distance_m": self.distance,
            "progress_m": self.progress,
            "max_cte_m": max_cte,
            "latency_ms": temporal.summarize_latency(latency),
            "safety": safety,
            "files": dict(ARTIFACTS),
        }


def build_report(fold: Analyzer) -> dict:
    """The report of a fold that has been fed a whole log."""
    return fold.finish()


# ---------------------------------------------------------------------------
# Workflow stages


def run_stage1(resolved: dict, log_path=None) -> tuple[dict, Analyzer]:
    """One closed-loop run, with the scenario if the config carries one;
    returns (report, the run's analysis fold).  With ``log_path``, the audit
    log is written there record by record, and the file is closed even if
    the run raises."""
    runner = Runner(resolved)
    if log_path is None:
        return runner.run(), runner.analyzer
    with runner.audit.write_ndjson(log_path):
        return runner.run(), runner.analyzer


def write_run_files(out: Path, fold: Analyzer, report: dict) -> dict[str, str]:
    """Write ``report`` and the files derived from ``fold``, the fold of its
    log, live or replayed, into the run directory ``out``; return
    ``{artifact name: path relative to out}`` of what was written.  The audit
    log is not among them: a live run writes it as it runs, a replay reads it."""
    write_json(out / ARTIFACTS["report"], report)
    written = ["report"]
    if fold.rows[0]:
        write_trajectory_csv(fold.path, zip(*fold.rows), out / ARTIFACTS["trajectory"],
                             fold.cfg["sut"]["goal_speed_mps"])
        written.append("trajectory")
    if all(report["latency_ms"].values()):
        temporal.write_latency_report(report["latency_ms"], out / ARTIFACTS["latency"])
        written.append("latency")
    if fold.safety_trace is not None:
        write_safety_csv(fold.safety_trace, out / ARTIFACTS["safety"])
        write_json(out / ARTIFACTS["events"], report["safety"]["events"])
        written += ["safety", "events"]
    return {key: ARTIFACTS[key] for key in written}


def sweep_point_seed(base_seed: int, delay_ms: float, rep: int) -> int:
    """Per-point seed, a function of the delay value (not its list position)."""
    return substream_seed(base_seed, f"sweep/delay={delay_ms:g}/rep={rep}")


def _run_point(point: dict, directory: Path) -> dict:
    """One sweep point: make its directory, run it with its audit log there,
    write its ``report.json`` and return the report."""
    directory.mkdir(parents=True, exist_ok=True)
    report, _fold = run_stage1(point, directory / ARTIFACTS["audit"])
    write_json(directory / ARTIFACTS["report"], report)
    return report


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_points(points: list[dict], directories: list[Path]) -> list[dict]:
    """The reports of ``_run_point`` over the points, in their order.

    The points run in a pool of forked workers, one per usable CPU, unless
    there is one point, one usable CPU, no ``fork``, or a profile or trace
    hook, which sees only its own process: then they run here, one after
    another.  Either way each point writes the same bytes, and the first
    point to fail, in order, raises its error once the workers are gone; in
    the pool, a point that no worker has taken when a point fails never
    starts.
    """
    workers = min(len(points), _usable_cpus())
    if (workers < 2 or not hasattr(os, "fork")
            or sys.getprofile() is not None or sys.gettrace() is not None):
        return list(map(_run_point, points, directories))
    import multiprocessing
    from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = list(map(partial(pool.submit, _run_point), points, directories))
        wait(futures, return_when=FIRST_EXCEPTION)
        for future in futures:
            future.cancel()
        return [future.result() for future in futures]


def run_stage2(sweep_resolved: dict, out) -> tuple[list[dict], dict[str, str]]:
    """Latency sweep: one stage-1-style run per (delay, repetition), written to
    its own ``delay_<label>ms_rep<rep>/`` directory of ``out`` (its audit log
    as it runs, then its report), then the ``response_curve.csv`` of ``out``.
    The points are independent runs, so they run in forked workers, one per
    usable CPU (see ``_run_points``), and are collected in delay x repetition
    order; no byte depends on how they ran.

    Returns (rows, artifacts): the rows of the curve in delay order, and
    ``{artifact name: path relative to out}`` of every file written, for the
    manifest.  A point that aborts is recorded (completed = False) and the
    sweep continues; a point that raises stops the sweep with its error.
    """
    out = Path(out)
    base = sweep_resolved["base"]
    delays = sweep_resolved["injected_delays_ms"]
    reps = range(sweep_resolved["repetitions"])
    points, directories = [], []
    artifacts = {}
    for delay in delays:
        for rep in reps:
            point = json.loads(json.dumps(base))
            point["seed"] = sweep_point_seed(base["seed"], delay, rep)
            point["run_id"] = f"{base['run_id']}-d{delay:g}ms-r{rep}"
            point["links"]["v2r"]["perturbation"]["fixed_delay_ms"] = float(delay)
            name = f"delay_{delay:g}ms_rep{rep}"
            points.append(point)
            directories.append(out / name)
            artifacts[f"audit_d{delay:g}_r{rep}"] = f"{name}/{ARTIFACTS['audit']}"
            artifacts[f"report_d{delay:g}_r{rep}"] = f"{name}/{ARTIFACTS['report']}"
    reports = iter(_run_points(points, directories))
    rows = []
    for delay in delays:
        per_delay = [next(reports) for _rep in reps]
        ctes = [r["cte"] for r in per_delay if r["cte"] is not None]
        row = {"delay_ms": float(delay)}
        for key in ("rmse", "mean", "p95"):
            row[f"cte_{key}_m"] = float(np.mean([c[key] for c in ctes])) if ctes else math.nan
        row["distance_m"] = float(np.mean([r["distance_m"] for r in per_delay]))
        row["completed"] = all(r["completed"] for r in per_delay)
        rows.append(row)
    write_response_curve(rows, out / "response_curve.csv")
    artifacts["response_curve"] = "response_curve.csv"
    return rows, artifacts


def write_response_curve(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("delay_ms,cte_rmse_m,cte_mean_m,cte_p95_m,distance_m,completed\n")
        for r in rows:
            fh.write(f"{r['delay_ms']:g},{r['cte_rmse_m']!r},{r['cte_mean_m']!r},"
                     f"{r['cte_p95_m']!r},{r['distance_m']!r},{str(r['completed']).lower()}\n")


# ---------------------------------------------------------------------------
# Replay


def replay_report(log_path) -> tuple[dict, Analyzer]:
    """Rebuild the report from an audit log file alone (no simulation);
    returns (report, the log's analysis fold), as ``run_stage1`` does.  A
    failure is a ``ValueError`` naming the log."""
    fold = Analyzer()
    AuditLog.read_ndjson(log_path, fold)
    try:
        return build_report(fold), fold
    except ValueError as exc:
        raise ValueError(f"{log_path}: {exc}") from exc
