"""Vehicle plant model and actuator identification.

Each actuator channel (steering, velocity) is a first-order lag with gain and
dead time.  Dead time is realized with timestamped due-times and the lag is
evaluated in closed form from the last activation anchor, so channel outputs
are bit-identical regardless of how finely the simulation steps.  The pose
integrates a kinematic bicycle on a fixed control-period grid.

The identification half generates open-loop step logs and fits (K, tau_p, L)
back out of them, reporting the fit R^2 and the 90% response time
t90 = L + tau_p * ln(10).
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import NS_PER_S, rng_stream, s_to_ns
from .spatial import TrajectorySample, normalize_heading

LN10 = math.log(10.0)


@dataclass(frozen=True)
class FOPDTParams:
    """First-order-plus-dead-time channel: gain K, lag tau_p (s), dead time L (s)."""

    K: float
    tau_p: float
    L: float

    def __post_init__(self):
        if not (math.isfinite(self.K) and self.K != 0.0):
            raise ValueError("K must be finite and nonzero")
        if not (self.tau_p > 0.0):
            raise ValueError("tau_p must be positive")
        if self.L < 0.0:
            raise ValueError("dead time must be non-negative")

    @property
    def t90(self) -> float:
        return self.L + self.tau_p * LN10


@dataclass(frozen=True)
class DeadTimeJitter:
    """Optional per-command lognormal dead-time jitter (median = configured L)."""

    sigma: float

    @staticmethod
    def from_p95(l_median: float, l_p95: float) -> "DeadTimeJitter":
        if not (l_p95 > l_median > 0.0):
            raise ValueError("p95 dead time must exceed the median")
        return DeadTimeJitter(sigma=math.log(l_p95 / l_median) / 1.6448536269514722)


class CommandMap:
    """Monotone piecewise-linear command-to-setpoint calibration table.

    Commands outside the table domain clamp to the endpoints and are flagged.
    """

    def __init__(self, points) -> None:
        pts = [(float(c), float(s)) for c, s in points]
        if len(pts) < 2:
            raise ValueError("command map needs at least 2 points")
        cmds = [c for c, _ in pts]
        setps = [s for _, s in pts]
        if any(b <= a for a, b in zip(cmds, cmds[1:])):
            raise ValueError("command map commands must be strictly increasing")
        if any(b < a for a, b in zip(setps, setps[1:])):
            raise ValueError("command map must be monotone non-decreasing")
        self._cmds = np.array(cmds)
        self._setps = np.array(setps)

    def __call__(self, command: float) -> tuple[float, bool]:
        """Return (setpoint, clamped)."""
        if command < self._cmds[0]:
            return float(self._setps[0]), True
        if command > self._cmds[-1]:
            return float(self._setps[-1]), True
        return float(np.interp(command, self._cmds, self._setps)), False

    @staticmethod
    def identity(lo: float = -10.0, hi: float = 10.0) -> "CommandMap":
        return CommandMap([(lo, lo), (hi, hi)])

    @staticmethod
    def scale(k: float, lo: float = -10.0, hi: float = 10.0) -> "CommandMap":
        return CommandMap([(lo, k * lo), (hi, k * hi)])

    def to_points(self) -> list[list[float]]:
        return [[float(c), float(s)] for c, s in zip(self._cmds, self._setps)]


@dataclass(frozen=True)
class PlantConfig:
    wheelbase: float
    steering: FOPDTParams
    velocity: FOPDTParams
    steer_map: CommandMap
    speed_map: CommandMap
    max_steer: float
    max_speed: float
    control_period_s: float
    steering_jitter: DeadTimeJitter | None = None
    velocity_jitter: DeadTimeJitter | None = None

    def __post_init__(self):
        if self.wheelbase <= 0.0:
            raise ValueError("wheelbase must be positive")
        if self.control_period_s <= 0.0:
            raise ValueError("control period must be positive")


class FopdtChannel:
    """One actuator channel.

    Pending setpoints sit in a due-time queue for the dead time; the active
    target then pulls the output exponentially.  ``value(t)`` is a pure
    function of the activation history, so querying at intermediate times
    never changes later outputs.
    """

    def __init__(
        self,
        params: FOPDTParams,
        t0_ns: int = 0,
        initial: float = 0.0,
        output_limit: float | None = None,
        jitter: DeadTimeJitter | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.params = params
        self._limit = output_limit
        self._jitter = jitter
        self._rng = rng
        self._anchor_t = int(t0_ns)
        self._anchor_val = float(initial)
        self._target = float(initial)
        self._pending: deque[tuple[int, float]] = deque()

    def apply(self, t_ns: int, setpoint: float) -> None:
        if not math.isfinite(setpoint):
            raise ValueError("setpoint must be finite")
        dead = self.params.L
        if self._jitter is not None:
            dead = dead * math.exp(self._jitter.sigma * float(self._rng.standard_normal()))
        due = int(t_ns) + s_to_ns(dead)
        target = self.params.K * setpoint
        if self._limit is not None:
            target = min(max(target, -self._limit), self._limit)
        # Newer command supersedes any pending one that would activate later.
        while self._pending and self._pending[-1][0] >= due:
            self._pending.pop()
        self._pending.append((due, target))

    def value(self, t_ns: int) -> float:
        t_ns = int(t_ns)
        while self._pending and self._pending[0][0] <= t_ns:
            due, target = self._pending.popleft()
            self._anchor_val = self._relax(due)
            self._anchor_t = due
            self._target = target
        return self._relax(t_ns)

    def _relax(self, t_ns: int) -> float:
        dt_s = (t_ns - self._anchor_t) / NS_PER_S
        return self._target + (self._anchor_val - self._target) * math.exp(-dt_s / self.params.tau_p)

    def pending(self) -> tuple[tuple[int, float], ...]:
        return tuple(self._pending)


@dataclass(frozen=True)
class PlantState:
    pose: TrajectorySample
    v_actual: float
    steer_actual: float


class Plant:
    """Kinematic bicycle driven by the two FOPDT channels.

    Pose integration happens on a fixed grid of the control period (absolute
    multiples, in integer nanoseconds), independent of when events arrive.
    """

    def __init__(self, cfg: PlantConfig, x: float, y: float, heading: float,
                 rng: np.random.Generator | None = None) -> None:
        self.cfg = cfg
        self._x = float(x)
        self._y = float(y)
        self._heading = normalize_heading(float(heading))
        self._t_ns = 0
        self._dt_grid_ns = s_to_ns(cfg.control_period_s)
        self._speed_ch = FopdtChannel(
            cfg.velocity, output_limit=cfg.max_speed * max(abs(cfg.velocity.K), 1.0),
            jitter=cfg.velocity_jitter, rng=rng)
        self._steer_ch = FopdtChannel(
            cfg.steering, output_limit=cfg.max_steer,
            jitter=cfg.steering_jitter, rng=rng)

    @property
    def t_ns(self) -> int:
        return self._t_ns

    @property
    def v_actual(self) -> float:
        return self._speed_ch.value(self._t_ns)

    @property
    def steer_actual(self) -> float:
        return self._steer_ch.value(self._t_ns)

    def state(self) -> PlantState:
        return PlantState(
            pose=TrajectorySample(self._t_ns, self._x, self._y, self._heading),
            v_actual=self.v_actual,
            steer_actual=self.steer_actual,
        )

    def apply_command(self, t_ns: int, speed_cmd: float, steer_cmd: float) -> dict:
        """Map, clamp, and queue both channel setpoints; returns clamp flags."""
        if not (math.isfinite(speed_cmd) and math.isfinite(steer_cmd)):
            raise ValueError("commands must be finite")
        flags = {}
        sp_clamped = min(max(speed_cmd, -self.cfg.max_speed), self.cfg.max_speed)
        st_clamped = min(max(steer_cmd, -self.cfg.max_steer), self.cfg.max_steer)
        if sp_clamped != speed_cmd:
            flags["speed_limited"] = True
        if st_clamped != steer_cmd:
            flags["steer_limited"] = True
        sp_set, sp_map_clamped = self.cfg.speed_map(sp_clamped)
        st_set, st_map_clamped = self.cfg.steer_map(st_clamped)
        if sp_map_clamped:
            flags["speed_map_clamped"] = True
        if st_map_clamped:
            flags["steer_map_clamped"] = True
        self._speed_ch.apply(t_ns, sp_set)
        self._steer_ch.apply(t_ns, st_set)
        return flags

    def advance_to(self, t_ns: int) -> None:
        t_ns = int(t_ns)
        if t_ns < self._t_ns:
            raise ValueError("plant cannot integrate backwards")
        while self._t_ns < t_ns:
            next_grid = (self._t_ns // self._dt_grid_ns + 1) * self._dt_grid_ns
            t_next = min(next_grid, t_ns)
            self._integrate(t_next)

    def _integrate(self, t_next_ns: int) -> None:
        dt_s = (t_next_ns - self._t_ns) / NS_PER_S
        v = self._speed_ch.value(self._t_ns)
        steer = self._steer_ch.value(self._t_ns)
        self._x += v * math.cos(self._heading) * dt_s
        self._y += v * math.sin(self._heading) * dt_s
        self._heading = normalize_heading(
            self._heading + (v / self.cfg.wheelbase) * math.tan(steer) * dt_s)
        self._t_ns = t_next_ns

    def step(self, speed_cmd: float, steer_cmd: float, dt_s: float) -> PlantState:
        """Apply one command and integrate forward by dt (<= control period)."""
        if not (0.0 < dt_s <= self.cfg.control_period_s):
            raise ValueError("dt must be in (0, control_period]")
        self.apply_command(self._t_ns, speed_cmd, steer_cmd)
        self.advance_to(self._t_ns + s_to_ns(dt_s))
        return self.state()


# ---------------------------------------------------------------------------
# Step experiments and identification


@dataclass(frozen=True)
class StepLog:
    """Uniformly sampled open-loop step test: (t, command, response)."""

    channel: str
    t_s: np.ndarray
    command: np.ndarray
    response: np.ndarray

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t_s,command,response\n")
            for t, c, r in zip(self.t_s, self.command, self.response):
                fh.write(f"{float(t)!r},{float(c)!r},{float(r)!r}\n")

    @staticmethod
    def load_csv(path, channel: str = "") -> "StepLog":
        t, c, r = [], [], []
        with open(path, "r", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                t.append(float(row["t_s"]))
                c.append(float(row["command"]))
                r.append(float(row["response"]))
        return StepLog(channel, np.array(t), np.array(c), np.array(r))


def run_step_experiment(
    cfg: PlantConfig,
    channel: str,
    amplitude: float,
    duration_s: float,
    noise_std: float,
    seed: int,
    baseline_s: float = 0.3,
) -> StepLog:
    """Simulate one open-loop step test on a channel.

    The command is 0 until ``baseline_s`` then ``amplitude``; the response is
    the channel output sampled every control period plus Gaussian measurement
    noise drawn from the run's "plant" stream.
    """
    params = {"steering": cfg.steering, "velocity": cfg.velocity}[channel]
    if duration_s <= params.L + 5.0 * params.tau_p:
        raise ValueError("duration too short: need more than L + 5*tau_p")
    period = cfg.control_period_s
    n_base = int(round(baseline_s / period))
    if n_base < 10:
        raise ValueError("baseline must cover at least 10 samples")
    ch = FopdtChannel(params)
    ch.apply(s_to_ns(n_base * period), amplitude)
    n = int(math.floor(duration_s / period)) + 1
    t = np.arange(n) * period
    command = np.where(np.arange(n) >= n_base, amplitude, 0.0)
    response = np.array([ch.value(s_to_ns(ti)) for ti in t])
    if noise_std > 0.0:
        rng = rng_stream(seed, "plant")
        response = response + noise_std * rng.standard_normal(n)
    return StepLog(channel, t, command, response)


@dataclass(frozen=True)
class FopdtFit:
    params: FOPDTParams
    r2: float
    t90: float


def _weighted_log_slope(x, z):
    # Zero-intercept LS on ln(z) vs t, weighted by z^2 (the log noise blows
    # up as the response settles, so the tail must not dominate the slope).
    w = z * z
    lnz = np.log(z)
    denom = float(np.sum(w * x * x))
    if denom == 0.0:
        return None
    slope = float(np.sum(w * x * lnz)) / denom
    return slope if slope < 0.0 else None


def _fit_tau_for_dead_time(t_rel, y, y0, y_ss):
    """Log-linear decay fit for a fixed dead time -> tau, or None if unusable.

    Two passes: a rough slope from the early response (normalized remaining
    response above 0.25, safely clear of the noise floor), then a refit over
    the fixed time window t <= 2.5*tau_rough.  The second pass selects
    samples by time, not by noisy value, which avoids censoring bias near
    steady state.
    """
    span = y_ss - y0
    if span == 0.0:
        return None
    mask = t_rel > 0.0
    z = (y_ss - y[mask]) / span
    x = t_rel[mask]
    rough_keep = z > 0.25
    if np.count_nonzero(rough_keep) < 3:
        rough_keep = z > 0.02
        if np.count_nonzero(rough_keep) < 3:
            return None
    slope = _weighted_log_slope(x[rough_keep], z[rough_keep])
    if slope is None:
        return None
    tau_rough = -1.0 / slope
    window = (x <= 2.5 * tau_rough) & (z > 1e-9)
    if np.count_nonzero(window) >= 3:
        refined = _weighted_log_slope(x[window], z[window])
        if refined is not None:
            return -1.0 / refined
    return tau_rough


def _sse_for_dead_time(dead, t, y, t_step, y0, k_amp):
    t_rel = t - (t_step + dead)
    tau = _fit_tau_for_dead_time(t_rel, y, y0, y0 + k_amp)
    if tau is None:
        return math.inf, None
    pred = np.where(t_rel > 0.0, y0 + k_amp * (1.0 - np.exp(-np.maximum(t_rel, 0.0) / tau)), y0)
    return float(np.sum((y - pred) ** 2)), tau


def fit_fopdt(log: StepLog, l_max: float = 0.3) -> FopdtFit:
    """Identify (K, tau_p, L) from a single-step log.

    K comes from the steady-state ratio (mean of the last 10% minus the
    pre-step baseline, over the step amplitude).  The dead time is grid
    searched at one-sample resolution over [0, l_max] with tau fitted per
    candidate on the log-linear form, then refined by golden section around
    the best grid point.
    """
    t, cmd, y = log.t_s, log.command, log.response
    changed = np.nonzero(cmd != cmd[0])[0]
    if changed.size == 0:
        raise ValueError("no detectable step in command")
    i_step = int(changed[0])
    if not np.all(cmd[i_step:] == cmd[i_step]):
        raise ValueError("log must contain a single step")
    if i_step < 10:
        raise ValueError("need at least 10 pre-step baseline samples")
    amp = float(cmd[i_step] - cmd[0])
    t_step = float(t[i_step])
    y0 = float(np.mean(y[:i_step]))
    n_tail = max(int(round(0.1 * t.size)), 1)
    y_ss = float(np.mean(y[-n_tail:]))
    K = (y_ss - y0) / amp
    k_amp = y_ss - y0

    period = float(t[1] - t[0])
    grid = np.arange(0.0, l_max + period / 2.0, period)
    scores = [_sse_for_dead_time(d, t, y, t_step, y0, k_amp) for d in grid]
    best_i = int(np.argmin([s for s, _ in scores]))
    if not math.isfinite(scores[best_i][0]):
        raise ValueError("could not fit a first-order response to this log")

    lo = max(grid[best_i] - period, 0.0)
    hi = min(grid[best_i] + period, l_max)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = _sse_for_dead_time(c, t, y, t_step, y0, k_amp)[0]
    fd = _sse_for_dead_time(d, t, y, t_step, y0, k_amp)[0]
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = _sse_for_dead_time(c, t, y, t_step, y0, k_amp)[0]
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = _sse_for_dead_time(d, t, y, t_step, y0, k_amp)[0]
    dead = (a + b) / 2.0
    sse, tau = _sse_for_dead_time(dead, t, y, t_step, y0, k_amp)
    if tau is None:
        dead = float(grid[best_i])
        sse, tau = scores[best_i]

    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - sse / ss_tot if ss_tot > 0.0 else 0.0
    params = FOPDTParams(K=K, tau_p=tau, L=dead)
    return FopdtFit(params=params, r2=r2, t90=params.t90)


# ---------------------------------------------------------------------------
# Shipped presets

#: tau_p derived from the characterized 90% response times via
#: tau_p = (t90 - L) / ln(10).
STEERING_TAU = 0.3660
STEERING_DEAD = 0.0072
VELOCITY_TAU = 0.2199
VELOCITY_DEAD = 0.0236


def preset(name: str, control_period_s: float = 0.02, wheelbase: float = 0.09,
           max_steer: float = 0.45, max_speed: float = 1.5) -> PlantConfig:
    """Named plant presets.

    ``calibrated``: unit gains on both channels (the command units are the
    physical units).  ``paper-uncalibrated``: the as-characterized gains
    (velocity 2.11, steering 0.26) that motivate recalibration, with the
    dead-time jitter parameters available but disabled.
    """
    base = dict(
        wheelbase=wheelbase,
        steer_map=CommandMap.identity(),
        speed_map=CommandMap.identity(),
        max_steer=max_steer,
        max_speed=max_speed,
        control_period_s=control_period_s,
    )
    if name == "calibrated":
        return PlantConfig(
            steering=FOPDTParams(K=1.0, tau_p=STEERING_TAU, L=STEERING_DEAD),
            velocity=FOPDTParams(K=1.0, tau_p=VELOCITY_TAU, L=VELOCITY_DEAD),
            **base,
        )
    if name == "paper-uncalibrated":
        return PlantConfig(
            steering=FOPDTParams(K=0.26, tau_p=STEERING_TAU, L=STEERING_DEAD),
            velocity=FOPDTParams(K=2.11, tau_p=VELOCITY_TAU, L=VELOCITY_DEAD),
            **base,
        )
    raise ValueError(f"unknown plant preset {name!r}")


#: Jitter presets matching the characterized p95 dead times (off by default).
STEERING_JITTER = DeadTimeJitter.from_p95(STEERING_DEAD, 0.0352)
VELOCITY_JITTER = DeadTimeJitter.from_p95(VELOCITY_DEAD, 0.0923)
