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

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

from . import config as cfg_mod
from . import temporal
from .core import (NS_PER_S, RunContext, Stage, TimedEvent, json_document, ms_to_ns, s_to_ns,
                   substream_seed)
from .links import R2VLink, V2RLink
from .plant import Plant
from .safety import AgentState, SafetyTrace, d_min_trace, extract_events, finite_or_none
from .spatial import MetricSummary, ReferencePath, TrajectorySample, project, summarize, track_errors
from .sut import Observation, build_sut


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


class EventQueue:
    """Min-heap on (t_ns, insertion sequence)."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, t_ns: int, fn, now_ns: int) -> None:
        if t_ns < now_ns:
            raise SchedulerCorruptionError(
                f"event scheduled in the past ({t_ns} < {now_ns})")
        heapq.heappush(self._heap, (int(t_ns), self._seq, fn))
        self._seq += 1

    def pop(self):
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


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
        pos = self.route.point_at(s)
        tan = self.route.tangent_at(s)
        return AgentState(self.npc_id, int(t_ns), float(pos[0]), float(pos[1]),
                          float(v * tan[0]), float(v * tan[1]), self.radius)


class Runner:
    """Executes one run from a resolved config document."""

    def __init__(self, resolved: dict) -> None:
        self.cfg = resolved
        self.ctx = RunContext(resolved["run_id"], resolved["seed"])
        self.path = ReferencePath(resolved["path"]["vertices"], closed=resolved["path"]["closed"])
        plant_cfg = cfg_mod.build_plant_config(resolved["plant"])
        pose = resolved["plant"]["initial_pose"]
        if pose is None:
            start = self.path.vertices[0]
            tan = self.path.tangent_at(0.0)
            pose = [float(start[0]), float(start[1]), math.atan2(tan[1], tan[0])]
        self.plant = Plant(plant_cfg, pose[0], pose[1], pose[2], rng=self.ctx.stream("plant.deadtime"))
        self.period_ns = ms_to_ns(resolved["gts"]["sample_period_ms"])
        self.r2v = R2VLink(cfg_mod.build_r2v_config(resolved["links"]["r2v"],
                                                    resolved["gts"]["sample_period_ms"]),
                           self.ctx.stream)
        self.v2r = V2RLink(cfg_mod.build_v2r_config(resolved["links"]["v2r"]), self.ctx.stream)
        sut_cfg = resolved["sut"]
        params = dict(sut_cfg["params"])
        if sut_cfg["name"] == "pure-pursuit":
            params.setdefault("wheelbase", resolved["plant"]["wheelbase_m"])
            params.setdefault("ego_radius", resolved["report"]["ego_radius_m"])
        self.sut = build_sut(sut_cfg["name"], params, cfg_mod.build_sut_latency(sut_cfg["latency"]),
                             self.ctx.stream("sut.lat"))
        self.sut.reset(self.path)
        self.goal_speed = sut_cfg["goal_speed_mps"]
        self.queue = EventQueue()
        self.npcs = [Npc(spec) for spec in (resolved["scenario"] or {"npcs": []})["npcs"]]
        self.trigger_zone = (resolved["scenario"] or {}).get("trigger_zone")
        self.scenario_triggered = False

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

    def _schedule(self, t_ns: int, fn) -> None:
        self.queue.push(t_ns, fn, self.ctx.clock.now())

    def _on_gts(self, t_ns: int) -> None:
        self.plant.advance_to(t_ns)
        st = self.plant.state()
        cid = self.ctx.issue_correlation_id()
        self.gts_count += 1
        self.ctx.emit(Stage.GtsSample, cid, t_ns, {
            "x": st.pose.x, "y": st.pose.y, "heading": st.pose.heading, "v": st.v_actual,
        })
        self._track_progress(st.pose.x, st.pose.y)
        sched = self.r2v.transmit(t_ns)
        self._schedule(sched.t_ingest_start, lambda t, c=cid: self.ctx.emit(Stage.R2vIngestStart, c, t))
        self._schedule(sched.t_ingest_done, lambda t, c=cid: self.ctx.emit(Stage.R2vIngestDone, c, t))
        self._schedule(sched.t_adv_done, lambda t, c=cid: self.ctx.emit(Stage.R2vAdvDone, c, t))
        pose_snapshot = (st.pose.x, st.pose.y, st.pose.heading, st.v_actual, t_ns)
        self._schedule(sched.t_sense_done, lambda t, c=cid, p=pose_snapshot: self._on_sense_done(t, c, p))
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
        for npc in self.npcs:
            a = npc.state_at(t_ns)
            if a is not None:
                payload[f"npc_{a.agent_id}_x"] = a.x
                payload[f"npc_{a.agent_id}_y"] = a.y
                payload[f"npc_{a.agent_id}_vx"] = a.vx
                payload[f"npc_{a.agent_id}_vy"] = a.vy
                payload[f"npc_{a.agent_id}_r"] = a.radius
        self.ctx.emit(Stage.R2vSenseDone, cid, t_ns, payload)
        self._schedule(t_ns, lambda t, c=cid: self._on_sut_in(t, c))

    def _detections(self, t_ns: int) -> tuple[AgentState, ...]:
        rng_m = self.cfg["report"]["sensing_range_m"]
        out = []
        for npc in self.npcs:
            a = npc.state_at(t_ns)
            if a is None:
                continue
            if math.hypot(a.x - self._mirror["x"], a.y - self._mirror["y"]) <= rng_m:
                out.append(a)
        return tuple(out)

    def _on_sut_in(self, t_ns: int, cid: int) -> None:
        self.ctx.emit(Stage.SutCmdIn, cid, t_ns)
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
        self._schedule(cmd.t_issued_ns, lambda t, c=cid, k=cmd: self._on_sut_out(t, c, k))

    def _on_sut_out(self, t_ns: int, cid: int, cmd) -> None:
        self.ctx.emit(Stage.SutCmdOut, cid, t_ns, {
            "speed": cmd.speed_setpoint, "steer": cmd.steer_setpoint,
        })
        sched = self.v2r.transmit(t_ns)
        if sched.dropped:
            self._schedule(sched.t_perturb_in,
                           lambda t, c=cid: self.ctx.emit(Stage.PerturbIn, c, t, {"dropped": True}))
            return
        self._schedule(sched.t_perturb_in, lambda t, c=cid: self.ctx.emit(Stage.PerturbIn, c, t))
        self._schedule(sched.t_perturb_out, lambda t, c=cid: self.ctx.emit(Stage.PerturbOut, c, t))
        deliver_payload = {"fifo_clamped": True} if sched.fifo_clamped else {}
        self._schedule(sched.t_deliver,
                       lambda t, c=cid, p=deliver_payload: self.ctx.emit(Stage.V2rDeliver, c, t, p))
        self._schedule(sched.t_deliver, lambda t, c=cid, k=cmd: self._on_actuator(t, c, k))

    def _on_actuator(self, t_ns: int, cid: int, cmd) -> None:
        self.plant.advance_to(t_ns)
        flags = self.plant.apply_command(t_ns, cmd.speed_setpoint, cmd.steer_setpoint)
        payload = {"speed": cmd.speed_setpoint, "steer": cmd.steer_setpoint}
        payload.update(flags)
        self.ctx.emit(Stage.ActuatorApply, cid, t_ns, payload)

    def _abort(self, reason: str) -> None:
        self.aborted = True
        self.abort_reason = reason

    # -- main loop ----------------------------------------------------------

    def run(self) -> Analysis:
        self.ctx.emit(Stage.RunHeader, 0, 0, {"config_json": cfg_mod.canonical_json(self.cfg)})
        self._schedule(0, self._on_gts)
        while len(self.queue) and not self.aborted:
            t_ns, _seq, fn = self.queue.pop()
            now = self.ctx.clock.now()
            if t_ns < now:
                raise SchedulerCorruptionError(f"popped event at {t_ns} before clock {now}")
            self.ctx.clock.advance(t_ns - now)
            fn(t_ns)
        self.ctx.emit(Stage.RunEnd, 0, self.ctx.clock.now(), {
            "aborted": self.aborted,
            "abort_reason": self.abort_reason or "",
            "gts_samples": self.gts_count,
        })
        return analyze(self.ctx.audit.events)


# ---------------------------------------------------------------------------
# Report building (shared by live runs and log replay)


def _summary_dict(s: MetricSummary | None) -> dict | None:
    if s is None:
        return None
    return {"mean": s.mean, "std": s.std, "rmse": s.rmse, "mae": s.mae, "p95": s.p95, "n": s.n}


def _frames_from_events(events, ego_radius: float) -> list[list[AgentState]]:
    frames = []
    for ev in events:
        if ev.stage is not Stage.R2vSenseDone or "x" not in ev.payload:
            continue
        p = ev.payload
        ego = AgentState("ego", ev.t_ns, p["x"], p["y"],
                         p["v"] * math.cos(p["heading"]), p["v"] * math.sin(p["heading"]),
                         ego_radius)
        frame = [ego]
        for key in p:
            if key.startswith("npc_") and key.endswith("_x"):
                nid = key[len("npc_"):-len("_x")]
                frame.append(AgentState(nid, ev.t_ns, p[f"npc_{nid}_x"], p[f"npc_{nid}_y"],
                                        p[f"npc_{nid}_vx"], p[f"npc_{nid}_vy"], p[f"npc_{nid}_r"]))
        frames.append(frame)
    return frames


@dataclass(frozen=True)
class Analysis:
    """Everything derived from one run's audit events.

    ``report`` is the stage report; ``trajectory`` holds the ground-truth
    samples as ``(t_ns, x, y, heading)``; ``safety_trace`` is the trace behind
    ``report["safety"]`` (None when the report has no safety section).
    """

    report: dict
    trajectory: list[tuple[int, float, float, float]]
    safety_trace: SafetyTrace | None


def analyze(events: list[TimedEvent]) -> Analysis:
    """Recompute every reported number from an audit event list, in one pass.

    The first record must be the run header (it carries the resolved config);
    a missing end record marks the log as truncated.
    """
    if not events:
        raise ValueError("empty audit log")
    header = events[0]
    if header.stage is not Stage.RunHeader:
        raise ValueError("audit log does not start with a run header")
    cfg = json.loads(header.payload["config_json"])
    end = next((ev for ev in events if ev.stage is Stage.RunEnd), None)
    truncated = end is None
    aborted = bool(end.payload["aborted"]) if end else False

    run_path = ReferencePath(cfg["path"]["vertices"], closed=cfg["path"]["closed"])

    traj = [(ev.t_ns, ev.payload["x"], ev.payload["y"], ev.payload["heading"]) for ev in events
            if ev.stage is Stage.GtsSample]
    cte_summary = ate_summary = None
    distance = 0.0
    max_cte = 0.0
    progress = 0.0
    if traj:
        ctes, ates = [], []
        last_s = None
        errors = track_errors(run_path, traj, cfg["sut"]["goal_speed_mps"])
        for (_, x, y, _), (proj, a) in zip(traj, errors):
            ctes.append(math.hypot(x - proj.point[0], y - proj.point[1]))
            ates.append(a)
            if last_s is not None:
                progress += run_path.lap_delta(proj.arclength - last_s)
            last_s = proj.arclength
        for i in range(1, len(traj)):
            distance += math.hypot(traj[i][1] - traj[i - 1][1], traj[i][2] - traj[i - 1][2])
        cte_summary = summarize(ctes)
        ate_summary = summarize(ates)
        max_cte = max(ctes)

    records, incomplete = temporal.assemble_all(events)
    completeness = temporal.check_completeness(records)

    sent = sum(1 for ev in events if ev.stage is Stage.PerturbIn)
    dropped = sum(1 for ev in events if ev.stage is Stage.PerturbIn and ev.payload.get("dropped"))
    delivered = sum(1 for ev in events if ev.stage is Stage.V2rDeliver)

    completed = not aborted and not truncated and cte_summary is not None \
        and max_cte <= cfg["report"]["completion_corridor_m"]
    if cfg["termination"]["mode"] == "laps":
        completed = completed and progress >= cfg["termination"]["laps"] * run_path.total_length

    safety = trace = None
    if cfg["scenario"] is not None:
        frames = _frames_from_events(events, cfg["report"]["ego_radius_m"])
        if frames:
            trace = d_min_trace(frames, "ego")
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
                "triggered": any(key.startswith("npc_") for ev in events
                                 if ev.stage is Stage.R2vSenseDone for key in ev.payload),
            }

    stage_id = "stage3" if cfg["scenario"] is not None else "stage1"
    report = {
        "schema_version": 1,
        "stage": stage_id,
        "run_id": header.run_id,
        "seed": cfg["seed"],
        "aborted": aborted,
        "abort_reason": (end.payload.get("abort_reason", "") if end else "") or None,
        "truncated": truncated,
        "completed": completed,
        "cycles": {
            "gts_samples": len(traj),
            "latency_records": len(records),
            "incomplete": {str(cid): stage.name for cid, stage in sorted(incomplete.items())},
            "v2r_sent": sent,
            "v2r_delivered": delivered,
            "v2r_dropped": dropped,
        },
        "completeness": {
            "fraction": completeness.fraction,
            "violations": list(completeness.violations),
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
    return Analysis(report, traj, trace)


def build_report(events: list[TimedEvent]) -> dict:
    """The report of ``analyze``."""
    return analyze(events).report


#: Text of ``report.json``, in the format of every JSON artifact.
report_to_json = json_document


# ---------------------------------------------------------------------------
# Workflow stages


def run_stage1(resolved: dict) -> tuple[dict, "Runner"]:
    """Baseline run (no scenario required); returns (report, runner)."""
    runner = Runner(resolved)
    return runner.run().report, runner


def sweep_point_seed(base_seed: int, delay_ms: float, rep: int) -> int:
    """Per-point seed, a function of the delay value (not its list position)."""
    return substream_seed(base_seed, f"sweep/delay={delay_ms:g}/rep={rep}")


def run_stage2(sweep_resolved: dict, on_point=None):
    """Latency sweep: one stage-1-style run per (delay, repetition).

    Returns (rows, {delay: [reports]}) with rows sorted by delay; per-point
    aborts are recorded (completed = False) and the sweep continues.  The
    optional ``on_point(delay, rep, report, runner)`` callback fires after
    each point (for artifact writing).
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
            report, runner = run_stage1(point)
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


def run_stage3(resolved: dict) -> tuple[dict, "Runner"]:
    """Scripted multi-agent run; the config must carry a scenario."""
    if resolved["scenario"] is None:
        raise cfg_mod.ConfigError("scenario", "stage 3 requires a scenario script")
    return run_stage1(resolved)


# ---------------------------------------------------------------------------
# Replay


def replay_report(log_path) -> dict:
    """Rebuild the report from an audit log file alone (no simulation)."""
    from .core import AuditLog
    events = AuditLog.read_ndjson(log_path)
    if not events:
        raise ValueError(f"audit log {log_path} is empty")
    return build_report(events)
