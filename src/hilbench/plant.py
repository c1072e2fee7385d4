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

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import NS_PER_S, rng_stream, s_to_ns
from .spatial import normalize_heading

LN10 = math.log(10.0)


@dataclass(frozen=True)
class FOPDTParams:
    """First-order-plus-dead-time channel: gain K, lag tau_p (s), dead time L (s).
    The run config checks the values a run uses: K finite and nonzero, tau_p
    positive, L non-negative."""

    K: float
    tau_p: float
    L: float

    @property
    def t90(self) -> float:
        return self.L + self.tau_p * LN10


class CommandMap:
    """Monotone piecewise-linear command-to-setpoint calibration table.

    Commands outside the table domain clamp to the endpoints and are flagged.
    """

    def __init__(self, points) -> None:
        pts = [(float(c), float(s)) for c, s in points]
        cmds = [c for c, _ in pts]
        setps = [s for _, s in pts]
        if any(b <= a for a, b in zip(cmds, cmds[1:])):
            raise ValueError("command map commands must be strictly increasing")
        if any(b < a for a, b in zip(setps, setps[1:])):
            raise ValueError("command map must be monotone non-decreasing")
        self._cmds = cmds
        self._setps = setps

    def __call__(self, command: float) -> tuple[float, bool]:
        """Return (setpoint, clamped); within the domain the setpoint is
        ``np.interp(command, cmds, setps)``, bit for bit, on scalars."""
        x = float(command)
        xp, fp = self._cmds, self._setps
        if x < xp[0]:
            return fp[0], True
        if x > xp[-1]:
            return fp[-1], True
        if x != x:
            return x, False
        j = bisect_right(xp, x) - 1
        if j == len(xp) - 1 or xp[j] == x:
            return fp[j], False
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        y = slope * (x - xp[j]) + fp[j]
        if y != y:  # as numpy does: try from the right end, then a flat segment
            y = slope * (x - xp[j + 1]) + fp[j + 1]
            if y != y and fp[j] == fp[j + 1]:
                y = fp[j]
        return y, False


def channel_params(plant: dict, channel: str) -> FOPDTParams:
    """The FOPDT parameters of ``channel`` (``steering`` or ``velocity``) in a
    resolved ``plant`` config section."""
    section = plant[channel]
    return FOPDTParams(K=section["K"], tau_p=section["tau_p_s"], L=section["L_s"])


class FopdtChannel:
    """One actuator channel.

    Pending setpoints sit in a due-time queue for the dead time; the active
    target then pulls the output exponentially.  ``value(t)`` is a pure
    function of the activation history, so querying at intermediate times
    never changes later outputs.  With ``jitter_sigma`` set, each command's
    dead time is L times a lognormal draw from ``rng`` (median L).
    """

    def __init__(
        self,
        params: FOPDTParams,
        output_limit: float | None = None,
        jitter_sigma: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.params = params
        self._limit = output_limit
        self._jitter_sigma = jitter_sigma
        self._rng = rng
        # The channel rests at 0 from t = 0 until its first activation.
        self._anchor_t = 0
        self._anchor_val = 0.0
        self._target = 0.0
        self._pending: deque[tuple[int, float]] = deque()

    def apply(self, t_ns: int, setpoint: float) -> None:
        dead = self.params.L
        if self._jitter_sigma is not None:
            dead = dead * math.exp(self._jitter_sigma * float(self._rng.standard_normal()))
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


class Plant:
    """Kinematic bicycle driven by the two FOPDT channels.

    Pose integration happens on a fixed grid of the control period (absolute
    multiples, in integer nanoseconds), independent of when events arrive.
    ``cfg`` is the resolved ``plant`` config section.
    """

    def __init__(self, cfg: dict, x: float, y: float, heading: float,
                 rng: np.random.Generator | None = None) -> None:
        self._wheelbase = cfg["wheelbase_m"]
        self._max_speed = cfg["max_speed_mps"]
        self._max_steer = cfg["max_steer_rad"]
        self._speed_map = CommandMap(cfg["speed_map"])
        self._steer_map = CommandMap(cfg["steer_map"])
        self._x = float(x)
        self._y = float(y)
        self._heading = normalize_heading(float(heading))
        self._t_ns = 0
        self._dt_grid_ns = s_to_ns(cfg["control_period_ms"] / 1e3)
        jitter = cfg["dead_time_jitter"]
        velocity = channel_params(cfg, "velocity")
        self._speed_ch = FopdtChannel(
            velocity, output_limit=self._max_speed * max(abs(velocity.K), 1.0),
            jitter_sigma=jitter["velocity_sigma"] if jitter["enabled"] else None, rng=rng)
        self._steer_ch = FopdtChannel(
            channel_params(cfg, "steering"), output_limit=self._max_steer,
            jitter_sigma=jitter["steering_sigma"] if jitter["enabled"] else None, rng=rng)

    @property
    def pose(self) -> tuple[float, float, float]:
        """``(x, y, heading)`` at the plant's time."""
        return self._x, self._y, self._heading

    @property
    def v_actual(self) -> float:
        return self._speed_ch.value(self._t_ns)

    def apply_command(self, t_ns: int, speed_cmd: float, steer_cmd: float) -> dict:
        """Map, clamp, and queue both channel setpoints; returns clamp flags."""
        if not (math.isfinite(speed_cmd) and math.isfinite(steer_cmd)):
            raise ValueError("commands must be finite")
        flags = {}
        sp_clamped = min(max(speed_cmd, -self._max_speed), self._max_speed)
        st_clamped = min(max(steer_cmd, -self._max_steer), self._max_steer)
        if sp_clamped != speed_cmd:
            flags["speed_limited"] = True
        if st_clamped != steer_cmd:
            flags["steer_limited"] = True
        sp_set, sp_map_clamped = self._speed_map(sp_clamped)
        st_set, st_map_clamped = self._steer_map(st_clamped)
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
            self._heading + (v / self._wheelbase) * math.tan(steer) * dt_s)
        self._t_ns = t_next_ns


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
            for t, c, r in zip(self.t_s.tolist(), self.command.tolist(), self.response.tolist()):
                fh.write(f"{t!r},{c!r},{r!r}\n")


#: Pre-step baseline of a step experiment, in seconds.
STEP_BASELINE_S = 0.3
#: Upper end of the dead-time search of ``fit_fopdt``, in seconds.
DEAD_TIME_SEARCH_MAX_S = 0.3


def run_step_experiment(
    cfg: dict,
    channel: str,
    amplitude: float,
    duration_s: float,
    noise_std: float,
    seed: int,
) -> StepLog:
    """Simulate one open-loop step test on a channel of the resolved ``plant``
    config section ``cfg``.

    The command is 0 until ``STEP_BASELINE_S`` then ``amplitude``; the
    response is the channel output sampled every control period plus Gaussian
    measurement noise drawn from the run's "plant" stream.
    """
    params = channel_params(cfg, channel)
    if duration_s <= params.L + 5.0 * params.tau_p:
        raise ValueError("duration too short: need more than L + 5*tau_p")
    period = cfg["control_period_ms"] / 1e3
    n_base = int(round(STEP_BASELINE_S / period))
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


def _weighted_log_slope(x, z):
    # Zero-intercept LS on ln(z) vs t, weighted by z^2 (the log noise blows
    # up as the response settles, so the tail must not dominate the slope).
    # Every sample the callers pass has x > 0 and z > 0, so the sum is positive.
    w = z * z
    lnz = np.log(z)
    slope = float(np.sum(w * x * lnz)) / float(np.sum(w * x * x))
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


def fit_fopdt(log: StepLog) -> FopdtFit:
    """Identify (K, tau_p, L) from a single-step log.

    K comes from the steady-state ratio (mean of the last 10% minus the
    pre-step baseline, over the step amplitude).  The dead time is grid
    searched at one-sample resolution over [0, DEAD_TIME_SEARCH_MAX_S] with
    tau fitted per candidate on the log-linear form, then refined by golden
    section around the best grid point.
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
    l_max = DEAD_TIME_SEARCH_MAX_S
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
    return FopdtFit(params=FOPDTParams(K=K, tau_p=tau, L=dead), r2=r2)
