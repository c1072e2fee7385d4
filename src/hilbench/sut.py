"""Black-box driving controller contract and the reference implementation.

A controller sees only the platform-published observation (synchronized ego
pose, detected agents, route handle, goal speed) and returns one command,
``(speed, steer)``.  The module deliberately imports nothing from the plant,
link, orchestration or core layers: the observation is the whole world, the
route included, and time and randomness belong to the platform.  The one
state a controller keeps between steps is its velocity estimate, and a run
builds a new controller, so each run starts from none.

The reference controller is pure pursuit for steering plus a curvature-based
speed cap and a constant-velocity yield rule.  The runner checks the command
it returns and draws its processing latency, so the closed loop exhibits a
realistic, measurable compute-time signature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .safety import AgentState
from .spatial import ReferencePath, TrajectorySample, project


class Observation(NamedTuple):
    """Everything a controller is allowed to see for one cycle."""

    ego: TrajectorySample
    detections: tuple[AgentState, ...]
    route: ReferencePath
    goal_speed: float


@dataclass(frozen=True)
class PurePursuitParams:
    wheelbase: float = 0.09
    k_v: float = 0.5          # lookahead gain, seconds of travel
    l_min: float = 0.3
    l_max: float = 1.2
    a_lat_max: float = 0.35   # curvature feedforward speed cap, m/s^2
    t_h: float = 2.0          # yield prediction horizon, s
    d_stop: float = 0.5       # yield clearance, m
    ego_radius: float = 0.08


class PurePursuitSut:
    """Reference controller: pure pursuit + speed governor + yield rule."""

    def __init__(self, params: PurePursuitParams) -> None:
        self.params = params
        self._last_pose: TrajectorySample | None = None
        self._v_est = 0.0

    def step(self, obs: Observation) -> tuple[float, float]:
        """The command ``(speed, steer)`` that answers ``obs``."""
        p = self.params
        route = obs.route

        ex, ey, heading = obs.ego.x, obs.ego.y, obs.ego.heading
        self._update_velocity_estimate(obs.ego)

        proj = project(route, (ex, ey))
        lookahead = p.l_min + p.k_v * max(self._v_est, 0.0)
        lookahead = min(max(lookahead, p.l_min), p.l_max)
        s_look = proj.arclength + lookahead
        if not route.closed:
            s_look = min(s_look, route.total_length)
        target_x, target_y, _tx, _ty = route.pose_at(s_look)

        alpha = math.atan2(target_y - ey, target_x - ex) - heading
        steer = math.atan2(2.0 * p.wheelbase * math.sin(alpha), lookahead)

        speed = self._speed_with_curvature_cap(obs.goal_speed, route, proj.arclength, lookahead)
        if self._should_yield(obs):
            speed = 0.0
        return speed, steer

    def _update_velocity_estimate(self, ego: TrajectorySample) -> None:
        last = self._last_pose
        if last is not None and ego.t_ns > last.t_ns:
            dt = (ego.t_ns - last.t_ns) / 1e9
            self._v_est = math.hypot(ego.x - last.x, ego.y - last.y) / dt
        self._last_pose = ego

    def _speed_with_curvature_cap(self, goal_speed, route, s_here, lookahead) -> float:
        """Cap speed from the heading change of the path over the lookahead."""
        _x, _y, ax, ay = route.pose_at(s_here)
        _x, _y, bx, by = route.pose_at(s_here + lookahead)
        dtheta = abs(math.remainder(math.atan2(by, bx) - math.atan2(ay, ax), 2.0 * math.pi))
        kappa = dtheta / max(lookahead, 1e-9)
        if kappa <= 1e-9:
            return goal_speed
        return min(goal_speed, math.sqrt(self.params.a_lat_max / kappa))

    def _should_yield(self, obs: Observation) -> bool:
        """Stop if any detection's predicted body gap falls below the clearance."""
        p = self.params
        evx = self._v_est * math.cos(obs.ego.heading)
        evy = self._v_est * math.sin(obs.ego.heading)
        for det in obs.detections:
            dpx, dpy = det.x - obs.ego.x, det.y - obs.ego.y
            dvx, dvy = det.vx - evx, det.vy - evy
            rsum = p.ego_radius + det.radius
            # min over s in [0, t_h] of ||dp + dv s||
            a = dvx * dvx + dvy * dvy
            if a == 0.0:
                s_star = 0.0
            else:
                s_star = min(max(-(dpx * dvx + dpy * dvy) / a, 0.0), p.t_h)
            for s in (0.0, s_star, p.t_h):
                if math.hypot(dpx + dvx * s, dpy + dvy * s) - rsum < p.d_stop:
                    return True
        return False

