"""Closed-loop run orchestration: scheduler, workflow stages, and reports.

One run is a single-threaded discrete-event loop.  Events are processed in
(time, insertion-order) priority; each cycle flows

    GTS sample -> R2V stages -> controller step (latency-scheduled)
    -> perturbation -> V2R delivery -> actuator apply

with the plant integrating continuously between events.  Every stage boundary
appends one audit record when it fires, so the log is globally time-ordered
and the whole report is recomputable from the log alone (``replay_report``
rebuilds the exact same report from the file).

The three workflow stages map onto this loop: stage 1 runs it clean for a
baseline, stage 2 sweeps the command-link perturbation delay and collects the
response curve, stage 3 arms a scripted multi-agent scenario on a trigger
zone and scores the interaction safety metrics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

import numpy as np

from . import config as cfg_mod
from . import temporal
from .core import (ACTUATOR_APPLY, GTS_SAMPLE, NO_PAYLOAD, NS_PER_S, PERTURB_IN, PERTURB_OUT,
                   R2V_ADV_DONE, R2V_INGEST_DONE, R2V_INGEST_START, R2V_SENSE_DONE, RUN_END,
                   RUN_HEADER, SUT_CMD_IN, SUT_CMD_OUT, V2R_DELIVER, AuditLog, RunContext, Stage,
                   TimedEvent, canonical_json, json_document, ms_to_ns, s_to_ns, substream_seed)
from .links import R2VLink, V2RLink
from .plant import Plant
from .safety import (AgentState, SafetyTrace, check_agent, d_min_trace, extract_events,
                     finite_or_none)
from .spatial import MetricSummary, ReferencePath, TrajectorySample, project, summarize, track_errors
from .sut import Observation, PurePursuitParams, PurePursuitSut


class SchedulerCorruptionError(RuntimeError):
    """An event was scheduled or popped out of causal order."""


#: Standard relative artifact names for one run directory.
ARTIFACTS = {
    "audit": "audit.ndjson",
    "report": "report.json",
    "trajectory": "trajectory.csv",
    "latency": "latency.csv",
    "safety": "safety.csv",
    "events": "events.json",
}


@dataclass
class _SpeedProfile:
    accel: float
    cruise: float
    decel: float

    def state_at(self, dt_s: float, route_len: float, looping: bool) -> tuple[float, float]:
        """(arc position, speed) after dt seconds from standstill."""
        t_acc = self.cruise / self.accel
        s_acc = 0.5 * self.cruise**2 / self.accel
        if looping:
            if dt_s <= t_acc:
                return 0.5 * self.accel * dt_s**2, self.accel * dt_s
            return s_acc + self.cruise * (dt_s - t_acc), self.cruise
        s_dec = 0.5 * self.cruise**2 / self.decel
        if s_acc + s_dec <= route_len:
            v_peak = self.cruise
            cruise_len = route_len - s_acc - s_dec
        else:
            v_peak = math.sqrt(2.0 * route_len * self.accel * self.decel / (self.accel + self.decel))
            cruise_len = 0.0
            t_acc = v_peak / self.accel
            s_acc = 0.5 * v_peak**2 / self.accel
            s_dec = route_len - s_acc
        t_cruise = cruise_len / v_peak if v_peak > 0 else 0.0
        t_dec = v_peak / self.decel
        if dt_s <= t_acc:
            return 0.5 * self.accel * dt_s**2, self.accel * dt_s
        if dt_s <= t_acc + t_cruise:
            return s_acc + v_peak * (dt_s - t_acc), v_peak
        td = dt_s - t_acc - t_cruise
        if td <= t_dec:
            return s_acc + cruise_len + v_peak * td - 0.5 * self.decel * td**2, v_peak - self.decel * td
        return route_len, 0.0


class Npc:
    """Scripted route follower; dormant (invisible) until activated."""

    def __init__(self, spec: dict) -> None:
        self.npc_id = spec["id"]
        self.route = ReferencePath(spec["route"]["vertices"], closed=spec["route"]["closed"])
        self.radius = spec["radius_m"]
        self.profile = _SpeedProfile(spec["speed"]["accel_mps2"], spec["speed"]["cruise_mps"],
                                     spec["speed"]["decel_mps2"])
        self.activation_t_ns: int | None = None

    def activate(self, t_ns: int) -> None:
        if self.activation_t_ns is None:
            self.activation_t_ns = int(t_ns)

    def state_at(self, t_ns: int) -> AgentState | None:
        if self.activation_t_ns is None or t_ns < self.activation_t_ns:
            return None
        dt = (t_ns - self.activation_t_ns) / NS_PER_S
        s, v = self.profile.state_at(dt, self.route.total_length, self.route.closed)
        x, y, tx, ty = self.route.pose_at(s)
        return AgentState(self.npc_id, int(t_ns), x, y, v * tx, v * ty, self.radius)


class Runner:
    """Executes one run from a resolved config document.

    The scheduler is ``heap``, a min-heap of ``(t_ns, insertion sequence,
    handler, args)`` entries: ``run`` pops them in (time, insertion) order,
    sets the run clock to each entry's time and calls ``handler(t_ns,
    *args)``.  Every record the run emits goes straight to ``audit.append``.
    """

    def __init__(self, resolved: dict) -> None:
        self.cfg = resolved
        self.analyzer = Analyzer()
        self.ctx = RunContext(resolved["run_id"], resolved["seed"], self.analyzer)
        self.run_id, self.clock, self.audit = self.ctx.run_id, self.ctx.clock, self.ctx.audit
        self.heap: list = []
        self._seq = count()
        self.path = ReferencePath(resolved["path"]["vertices"], closed=resolved["path"]["closed"])
        plant_cfg = cfg_mod.build_plant_config(resolved["plant"])
        pose = resolved["plant"]["initial_pose"]
        if pose is None:
            pose = self.path.start_pose()
        self.plant = Plant(plant_cfg, pose[0], pose[1], pose[2], rng=self.ctx.stream("plant.deadtime"))
        self.period_ns = ms_to_ns(resolved["gts"]["sample_period_ms"])
        self.r2v = R2VLink(cfg_mod.build_r2v_config(resolved["links"]["r2v"]), self.ctx.stream)
        self.v2r = V2RLink(cfg_mod.build_v2r_config(resolved["links"]["v2r"]), self.ctx.stream)
        sut_cfg = resolved["sut"]
        params = {"wheelbase": resolved["plant"]["wheelbase_m"],
                  "ego_radius": resolved["report"]["ego_radius_m"], **sut_cfg["params"]}
        self.sut = PurePursuitSut(PurePursuitParams(**params),
                                  cfg_mod.build_distribution(sut_cfg["latency"], kind_key="mode"),
                                  self.ctx.stream("sut.lat"))
        self.sut.reset(self.path)
        self.goal_speed = sut_cfg["goal_speed_mps"]
        self.npcs = [Npc(spec) for spec in (resolved["scenario"] or {"npcs": []})["npcs"]]
        self.trigger_zone = (resolved["scenario"] or {}).get("trigger_zone")
        self.scenario_triggered = False
        # (t_ns, state of each NPC at t_ns): computed once per sense event for
        # its payload and reused by the controller step at the same instant.
        self._npc_states: tuple[int, list[AgentState | None]] = (-1, [])

        self.aborted = False
        self.abort_reason: str | None = None
        self.gts_count = 0
        self.stop_sampling = False
        # Mirror: the virtual domain's freshest synchronized ego state.
        self._mirror = {"x": pose[0], "y": pose[1], "heading": pose[2], "v": 0.0, "sample_t": -1}
        # Lap progress (unwrapped arc length) for lap-based termination.
        self._progress = 0.0
        self._last_s: float | None = None

        term = resolved["termination"]
        if term["mode"] == "duration":
            self.t_limit_ns = s_to_ns(term["duration_s"])
            self.laps_target = None
        else:
            self.t_limit_ns = s_to_ns(term["max_duration_s"])
            self.laps_target = term["laps"]

    # -- event handlers -----------------------------------------------------

    def _schedule(self, t_ns: int, handler, *args) -> None:
        now = self.clock.now_ns
        if t_ns < now:
            raise SchedulerCorruptionError(f"event scheduled in the past ({t_ns} < {now})")
        heappush(self.heap, (int(t_ns), next(self._seq), handler, args))

    def _emit(self, t_ns: int, stage: Stage, cid: int, payload=NO_PAYLOAD) -> None:
        self.audit.append(TimedEvent(self.run_id, cid, stage, t_ns, payload))

    def _on_gts(self, t_ns: int) -> None:
        self.plant.advance_to(t_ns)
        st = self.plant.state()
        cid = self.ctx.issue_correlation_id()
        self.gts_count += 1
        self.audit.append(TimedEvent(self.run_id, cid, GTS_SAMPLE, t_ns, {
            "x": st.pose.x, "y": st.pose.y, "heading": st.pose.heading, "v": st.v_actual,
        }))
        self._track_progress(st.pose.x, st.pose.y)
        sched = self.r2v.transmit(t_ns)
        self._schedule(sched.t_ingest_start, self._emit, R2V_INGEST_START, cid)
        self._schedule(sched.t_ingest_done, self._emit, R2V_INGEST_DONE, cid)
        self._schedule(sched.t_adv_done, self._emit, R2V_ADV_DONE, cid)
        pose_snapshot = (st.pose.x, st.pose.y, st.pose.heading, st.v_actual, t_ns)
        self._schedule(sched.t_sense_done, self._on_sense_done, cid, pose_snapshot)
        if not self.stop_sampling:
            t_next = t_ns + self.period_ns
            if t_next < self.t_limit_ns and not self._laps_reached():
                self._schedule(t_next, self._on_gts)
            else:
                self.stop_sampling = True

    def _track_progress(self, x: float, y: float) -> None:
        s = project(self.path, (x, y)).arclength
        if self._last_s is not None:
            self._progress += self.path.lap_delta(s - self._last_s)
        self._last_s = s

    def _laps_reached(self) -> bool:
        if self.laps_target is None:
            return False
        return self._progress >= self.laps_target * self.path.total_length

    def _on_sense_done(self, t_ns: int, cid: int, pose_snapshot) -> None:
        x, y, heading, v, t_sample = pose_snapshot
        stale = t_sample < self._mirror["sample_t"]
        if not stale:
            self._mirror = {"x": x, "y": y, "heading": heading, "v": v, "sample_t": t_sample}
        if self.trigger_zone and not self.scenario_triggered:
            x0, y0, x1, y1 = self.trigger_zone
            if x0 <= self._mirror["x"] <= x1 and y0 <= self._mirror["y"] <= y1:
                self.scenario_triggered = True
                for npc in self.npcs:
                    npc.activate(t_ns)
        payload = {
            "x": self._mirror["x"], "y": self._mirror["y"],
            "heading": self._mirror["heading"], "v": self._mirror["v"],
            "stale": stale,
        }
        states = [npc.state_at(t_ns) for npc in self.npcs]
        self._npc_states = (t_ns, states)
        for a in states:
            if a is not None:
                payload[f"npc_{a.agent_id}_x"] = a.x
                payload[f"npc_{a.agent_id}_y"] = a.y
                payload[f"npc_{a.agent_id}_vx"] = a.vx
                payload[f"npc_{a.agent_id}_vy"] = a.vy
                payload[f"npc_{a.agent_id}_r"] = a.radius
        self.audit.append(TimedEvent(self.run_id, cid, R2V_SENSE_DONE, t_ns, payload))
        self._schedule(t_ns, self._on_sut_in, cid)

    def _detections(self, t_ns: int) -> tuple[AgentState, ...]:
        rng_m = self.cfg["report"]["sensing_range_m"]
        # An NPC's state depends only on t_ns and its activation time, and
        # activation happens only where the cache is refreshed.
        t_cached, states = self._npc_states
        if t_cached != t_ns:
            states = [npc.state_at(t_ns) for npc in self.npcs]
        x, y = self._mirror["x"], self._mirror["y"]
        return tuple(a for a in states
                     if a is not None and math.hypot(a.x - x, a.y - y) <= rng_m)

    def _on_sut_in(self, t_ns: int, cid: int) -> None:
        self.audit.append(TimedEvent(self.run_id, cid, SUT_CMD_IN, t_ns))
        obs = Observation(
            t_ns=t_ns,
            ego=TrajectorySample(t_ns, self._mirror["x"], self._mirror["y"], self._mirror["heading"]),
            detections=self._detections(t_ns),
            route=self.path,
            goal_speed=self.goal_speed,
        )
        try:
            cmd = self.sut.step(obs)
        except Exception as exc:  # controller misbehaved: abort, keep partial data
            self._abort(f"sut raised: {exc}")
            return
        if cmd is None:
            self._abort("sut produced no command")
            return
        if cmd.t_issued_ns - t_ns > 10 * self.period_ns:
            self._abort("sut missed the 10-period watchdog deadline")
            return
        self._schedule(cmd.t_issued_ns, self._on_sut_out, cid, cmd)

    def _on_sut_out(self, t_ns: int, cid: int, cmd) -> None:
        self.audit.append(TimedEvent(self.run_id, cid, SUT_CMD_OUT, t_ns, {
            "speed": cmd.speed_setpoint, "steer": cmd.steer_setpoint,
        }))
        sched = self.v2r.transmit(t_ns)
        if sched.dropped:
            self._schedule(sched.t_perturb_in, self._emit, PERTURB_IN, cid, {"dropped": True})
            return
        self._schedule(sched.t_perturb_in, self._emit, PERTURB_IN, cid)
        self._schedule(sched.t_perturb_out, self._emit, PERTURB_OUT, cid)
        self._schedule(sched.t_deliver, self._emit, V2R_DELIVER, cid,
                       {"fifo_clamped": True} if sched.fifo_clamped else NO_PAYLOAD)
        self._schedule(sched.t_deliver, self._on_actuator, cid, cmd)

    def _on_actuator(self, t_ns: int, cid: int, cmd) -> None:
        self.plant.advance_to(t_ns)
        flags = self.plant.apply_command(t_ns, cmd.speed_setpoint, cmd.steer_setpoint)
        payload = {"speed": cmd.speed_setpoint, "steer": cmd.steer_setpoint}
        payload.update(flags)
        self.audit.append(TimedEvent(self.run_id, cid, ACTUATOR_APPLY, t_ns, payload))

    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason

    # -- main loop ----------------------------------------------------------

    def run(self) -> dict:
        self._emit(0, RUN_HEADER, 0, {"config_json": canonical_json(self.cfg)})
        self._schedule(0, self._on_gts)
        heap, clock = self.heap, self.clock
        while heap and not self.aborted:
            t_ns, _seq, handler, args = heappop(heap)
            if t_ns < clock.now_ns:
                raise SchedulerCorruptionError(f"popped event at {t_ns} before clock {clock.now_ns}")
            clock.now_ns = t_ns
            handler(t_ns, *args)
        self._emit(clock.now_ns, RUN_END, 0, {
            "aborted": self.aborted,
            "abort_reason": self.abort_reason or "",
            "gts_samples": self.gts_count,
        })
        return self.analyzer.finish()


# ---------------------------------------------------------------------------
# Report building (shared by live runs and log replay)


def _summary_dict(s: MetricSummary | None) -> dict | None:
    if s is None:
        return None
    return {"mean": s.mean, "std": s.std, "rmse": s.rmse, "mae": s.mae, "p95": s.p95, "n": s.n}


def _field(ev: TimedEvent, key: str, types=(int, float), kind: str = "a number"):
    """The payload value of ``key``, whose type must be one of ``types`` (by
    default a JSON number: an int or a float, not a bool)."""
    value = ev.payload.get(key)
    if type(value) not in types:
        raise ValueError(f"{ev.stage.name} cid {ev.cid}: payload field {key!r} must be "
                         f"{kind}, not {value!r}")
    return value


#: Types of a JSON number, as ``_field`` checks it by default.
_NUMBERS = frozenset((int, float))
#: Payload keys of a ground-truth row, and of the ego state a sense event carries.
_POSE_KEYS = ("x", "y", "heading")
_EGO_KEYS = ("x", "y", "v", "heading")
#: Length of a cid's list of stage times, which ``Stage`` indexes.
_N_STAGES = len(Stage)


def _numbers(ev: TimedEvent, keys: tuple[str, ...]) -> tuple:
    """The payload values of ``keys``, each of which must be a JSON number; the
    first that is not fails as ``_field`` words it."""
    values = tuple(map(ev.payload.get, keys))
    if not _NUMBERS.issuperset(map(type, values)):
        for key in keys:
            _field(ev, key)
    return values


class Analyzer:
    """The one analysis of a run, fed its audit records one at a time (live by
    ``AuditLog.append``, from a file by ``AuditLog.read_ndjson``); ``finish``
    returns the report.  The first record must be the run header, which
    carries the resolved config; a missing end record marks the log as
    truncated.  ``rows`` holds the ground-truth samples as ``(t_ns, x, y,
    heading)``; after ``finish``, ``safety_trace`` is the trace behind
    ``report["safety"]`` (None when the report has no safety section).
    """

    def __init__(self) -> None:
        self.cfg: dict | None = None
        self.run_id: str | None = None
        self.rows: list[tuple[int, float, float, float]] = []
        # A list per cid, not a dict: on the 55,002-record stage-3 log a dict
        # per cid raised the peak memory of latency assembly from 3.7 to 6.0 MB.
        self.times: dict[int, list[int | None]] = {}
        self.frames: list[tuple[int, dict]] = []  # the safety frames of a scenario run
        self.sent = self.dropped = self.delivered = 0
        self.end: dict | None = None
        self.safety_trace: SafetyTrace | None = None
        self._npc_keys = None  # per NPC of a scenario: (id, its payload keys)

    def feed(self, ev: TimedEvent) -> None:
        _run_id, cid, stage, t_ns, payload = ev
        if cid > 0:
            t = self.times.get(cid)
            if t is None:
                t = self.times[cid] = [None] * _N_STAGES
            t[stage] = t_ns
        if self.cfg is None:
            self._header(ev)
        elif stage is GTS_SAMPLE:
            self.rows.append((t_ns, *_numbers(ev, _POSE_KEYS)))
        elif stage is R2V_SENSE_DONE and self._npc_keys is not None and "x" in payload:
            self._frame(ev)
        elif stage is PERTURB_IN:
            self.sent += 1
            if "dropped" in payload:
                self.dropped += _field(ev, "dropped", (bool,), "a bool")
        elif stage is V2R_DELIVER:
            self.delivered += 1
        elif stage is RUN_END:
            _field(ev, "aborted", (bool,), "a bool")
            _field(ev, "abort_reason", (str,), "a string")
            samples = _field(ev, "gts_samples", (int,), "an integer")
            if samples != len(self.rows):
                raise ValueError(f"RunEnd cid {cid}: payload field 'gts_samples' is {samples}, "
                                 f"but the log holds {len(self.rows)} GtsSample records")
            self.end = payload

    def _header(self, ev: TimedEvent) -> None:
        if ev.stage is not Stage.RunHeader:
            raise ValueError("audit log does not start with a run header")
        text = ev.payload.get("config_json")
        try:  # resolved again, so that a damaged echo fails naming its field
            if not isinstance(text, str):
                raise ValueError("config_json: missing or not a string")
            cfg = cfg_mod.resolve_run_config(json.loads(text))
        except ValueError as exc:  # also a ConfigError or a JSON syntax error
            raise ValueError(f"config echo: {exc}") from exc
        if cfg["run_id"] != ev.run_id:
            raise ValueError(f"config echo: run_id: {cfg['run_id']!r} differs from the records' "
                             f"run_id {ev.run_id!r}")
        self.cfg, self.run_id = cfg, ev.run_id
        if cfg["scenario"] is not None:
            self._npc_keys = [(nid, tuple(f"npc_{nid}_{k}" for k in ("x", "y", "vx", "vy", "r")))
                              for nid in (npc["id"] for npc in cfg["scenario"]["npcs"])]

    def _frame(self, ev: TimedEvent) -> None:
        """Keep the ``d_min_trace`` frame of a sense event: the ego's mirrored
        state and that of every NPC the payload carries, each checked."""
        x, y, v, heading = _numbers(ev, _EGO_KEYS)
        agents = {"ego": (x, y, v * math.cos(heading), v * math.sin(heading),
                          self.cfg["report"]["ego_radius_m"])}
        for nid, keys in self._npc_keys:
            if keys[0] in ev.payload:
                agents[nid] = _numbers(ev, keys)
        for state in agents.values():
            check_agent(*state)
        self.frames.append((ev.t_ns, agents))

    def finish(self) -> dict:
        """The report of the records fed so far."""
        cfg, end = self.cfg, self.end
        if cfg is None:
            raise ValueError("empty audit log")
        truncated = end is None
        aborted = end["aborted"] if end else False

        run_path = ReferencePath(cfg["path"]["vertices"], closed=cfg["path"]["closed"])

        traj = self.rows
        cte_summary = ate_summary = None
        distance = 0.0
        max_cte = 0.0
        progress = 0.0
        if traj:
            ctes, ates = [], []
            last_s = None
            for s, c, a in track_errors(run_path, traj, cfg["sut"]["goal_speed_mps"]):
                ctes.append(c)
                ates.append(a)
                if last_s is not None:
                    progress += run_path.lap_delta(s - last_s)
                last_s = s
            for i in range(1, len(traj)):
                distance += math.hypot(traj[i][1] - traj[i - 1][1], traj[i][2] - traj[i - 1][2])
            cte_summary = summarize(ctes)
            ate_summary = summarize(ates)
            max_cte = max(ctes)

        records, incomplete, gapped = temporal.assemble_all(self.times)

        completed = not aborted and not truncated and cte_summary is not None \
            and max_cte <= cfg["report"]["completion_corridor_m"]
        if cfg["termination"]["mode"] == "laps":
            completed = completed and progress >= cfg["termination"]["laps"] * run_path.total_length

        safety = None
        if self.frames:
            trace = self.safety_trace = d_min_trace(self.frames, "ego")
            sev = extract_events(
                trace,
                ttc_threshold_s=cfg["report"]["ttc_threshold_s"],
                ttc_prominence_s=cfg["report"]["ttc_prominence_s"],
                dmin_prominence_m=cfg["report"]["dmin_prominence_m"],
                min_separation_s=cfg["report"]["min_separation_s"],
            )
            safety = {
                "n_frames": len(trace),
                "ttc_min_s": finite_or_none(trace.ttc_min),
                "t_at_ttc_min_ns": trace.t_at_ttc_min,
                "d_min_m": finite_or_none(trace.d_min),
                "t_at_d_min_ns": trace.t_at_d_min,
                "events": [e.to_dict() for e in sev],
                "triggered": any(len(agents) > 1 for _t, agents in self.frames),
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
                "gts_samples": len(traj),
                "latency_records": len(records),
                "incomplete": {str(cid): stage.name for cid, stage in sorted(incomplete.items())},
                "v2r_sent": self.sent,
                "v2r_delivered": self.delivered,
                "v2r_dropped": self.dropped,
            },
            "completeness": {
                "fraction": (len(records) - len(gapped)) / len(records) if records else 1.0,
                "violations": gapped,
            },
            "cte": _summary_dict(cte_summary),
            "ate": _summary_dict(ate_summary),
            "distance_m": distance,
            "progress_m": progress,
            "max_cte_m": max_cte,
            "latency_ms": temporal.summarize_latency(records),
            "safety": safety,
            "files": dict(ARTIFACTS),
        }


def build_report(fold: Analyzer) -> dict:
    """The report of a fold that has been fed a whole log."""
    return fold.finish()


#: Text of ``report.json``, in the format of every JSON artifact.
report_to_json = json_document


# ---------------------------------------------------------------------------
# Workflow stages


def run_stage1(resolved: dict, log_path=None) -> tuple[dict, "Runner"]:
    """One closed-loop run, with the scenario if the config carries one;
    returns (report, runner).  With ``log_path``, the audit log is written
    there record by record, and the file is closed even if the run raises."""
    runner = Runner(resolved)
    if log_path is None:
        return runner.run(), runner
    with runner.ctx.audit.write_ndjson(log_path):
        return runner.run(), runner


def sweep_point_seed(base_seed: int, delay_ms: float, rep: int) -> int:
    """Per-point seed, a function of the delay value (not its list position)."""
    return substream_seed(base_seed, f"sweep/delay={delay_ms:g}/rep={rep}")


def run_stage2(sweep_resolved: dict, on_point=None, log_path=None):
    """Latency sweep: one stage-1-style run per (delay, repetition).

    Returns (rows, {delay: [reports]}) with rows sorted by delay; per-point
    aborts are recorded (completed = False) and the sweep continues.  The
    optional ``log_path(delay, rep)`` names the file that receives the
    point's audit log as it runs, and ``on_point(delay, rep, report,
    runner)`` fires after each point (for artifact writing).
    """
    base = sweep_resolved["base"]
    reps = sweep_resolved["repetitions"]
    rows = []
    reports: dict[float, list] = {}
    for delay in sweep_resolved["injected_delays_ms"]:
        per_delay = []
        for rep in range(reps):
            point = json.loads(json.dumps(base))
            point["seed"] = sweep_point_seed(base["seed"], delay, rep)
            point["run_id"] = f"{base['run_id']}-d{delay:g}ms-r{rep}"
            point["links"]["v2r"]["perturbation"]["fixed_delay_ms"] = float(delay)
            report, runner = run_stage1(point, None if log_path is None else log_path(delay, rep))
            if on_point is not None:
                on_point(delay, rep, report, runner)
            per_delay.append(report)
        reports[delay] = per_delay
        cte_rmse = [r["cte"]["rmse"] for r in per_delay if r["cte"] is not None]
        cte_mean = [r["cte"]["mean"] for r in per_delay if r["cte"] is not None]
        cte_p95 = [r["cte"]["p95"] for r in per_delay if r["cte"] is not None]
        rows.append({
            "delay_ms": float(delay),
            "cte_rmse_m": float(np.mean(cte_rmse)) if cte_rmse else math.nan,
            "cte_mean_m": float(np.mean(cte_mean)) if cte_mean else math.nan,
            "cte_p95_m": float(np.mean(cte_p95)) if cte_p95 else math.nan,
            "distance_m": float(np.mean([r["distance_m"] for r in per_delay])),
            "completed": all(r["completed"] for r in per_delay),
        })
    return rows, reports


def write_response_curve(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("delay_ms,cte_rmse_m,cte_mean_m,cte_p95_m,distance_m,completed\n")
        for r in rows:
            fh.write(f"{r['delay_ms']:g},{r['cte_rmse_m']!r},{r['cte_mean_m']!r},"
                     f"{r['cte_p95_m']!r},{r['distance_m']!r},{str(r['completed']).lower()}\n")


# ---------------------------------------------------------------------------
# Replay


def replay_report(log_path) -> dict:
    """Rebuild the report from an audit log file alone (no simulation); a
    failure is a ``ValueError`` naming the log."""
    fold = Analyzer()
    AuditLog.read_ndjson(log_path, fold)
    try:
        return build_report(fold)
    except ValueError as exc:
        raise ValueError(f"{log_path}: {exc}") from exc
