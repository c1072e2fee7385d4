"""Run-configuration documents: validation and defaults.

Configs are single JSON documents.  ``resolve_run_config`` validates a raw
document, fills every default, and returns the fully explicit dict that gets
echoed into the audit-log header (reports must be recomputable from the log
alone, so the header carries the complete resolved configuration).  A run
reads its sections from that same dict: the plant, the links and the latency
samplers take their resolved sections as they are, so every check on a value
is made here, once.

Each section is declared once as a field table, ``{key: (check, default)}``;
one walker, ``_fields``, checks the declared fields in order and rejects any
other key at its JSON path.  ``check(value, path)`` returns the resolved
value.  A default is a raw value for the same check, ``_REQUIRED``, or
``_OMIT`` (left out of the echo).
"""

from __future__ import annotations

import copy
import json
import math

from .plant import CommandMap
from .spatial import PathError, ReferencePath
from .sut import PurePursuitParams

SCHEMA_VERSION = 1

_REQUIRED = object()
_OMIT = object()


class ConfigError(ValueError):
    """Validation failure, carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _fields(obj, path: str, table: dict) -> dict:
    """Check the object ``obj`` against ``table``; return its resolved form."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    out = {}
    for key, (check, default) in table.items():
        if key in obj:
            out[key] = check(obj[key], _at(path, key))
        elif default is _REQUIRED:
            raise ConfigError(_at(path, key), "missing required field")
        elif default is not _OMIT:
            out[key] = check(default, _at(path, key))
    for key in obj:
        if key not in table:
            raise ConfigError(_at(path, key), "unexpected field")
    return out


# ---------------------------------------------------------------------------
# Field checks: each takes ``(value, path)`` and returns the resolved value.

def _section(table: dict):
    return lambda value, path: _fields(value, path, table)


def _num(lo=None, hi=None, positive=False, integer=False):
    """A finite number within the bounds, resolved to a float (or an int)."""
    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
            raise ConfigError(path, "must be an integer" if integer else "must be a number")
        try:
            v = value if integer else float(value)
        except OverflowError:  # an int beyond the float range
            v = math.inf
        if not integer and not math.isfinite(v):
            raise ConfigError(path, "must be finite")
        if lo is not None and v < lo:
            raise ConfigError(path, f"must be >= {lo}")
        if hi is not None and v > hi:
            raise ConfigError(path, f"must be <= {hi}")
        if positive and v <= 0.0:
            raise ConfigError(path, "must be positive")
        return v
    return check


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, "must be a boolean")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "must be a non-empty string")
    return value


def _one_of(*names):
    def check(value, path):
        if value not in names:
            raise ConfigError(path, "must be " + " or ".join(map(repr, names)))
        return value
    return check


def _list(item, n: int, message: str, exact=False):
    """A list of at least (``exact``: exactly) ``n`` items, each checked by ``item``."""
    def check(value, path):
        if not isinstance(value, list) or len(value) < n or (exact and len(value) != n):
            raise ConfigError(path, message)
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return check


def _vector(n: int, shape: str):
    return _list(_num(), n, f"must be {shape}", exact=True)


def _or_null(check):
    return lambda value, path: None if value is None else check(value, path)


def _schema_version(value, path: str) -> int:
    if value != SCHEMA_VERSION:
        raise ConfigError(path, f"unsupported version {value}")
    return SCHEMA_VERSION


# ---------------------------------------------------------------------------
# Latency distributions

_COMPONENT = {
    "mean_ms": (_num(lo=0.0), _REQUIRED),
    "std_ms": (_num(lo=0.0), _REQUIRED),
    "weight": (_num(lo=0.0, hi=1.0), _REQUIRED),
}
_DISTRIBUTIONS = {
    "constant": {"ms": (_num(lo=0.0), _REQUIRED)},
    "gaussian_truncated": {
        "mean_ms": (_num(lo=0.0), _REQUIRED),
        "std_ms": (_num(lo=0.0), _REQUIRED),
        "min_ms": (_num(lo=0.0), 0.0),
        "max_ms": (_num(lo=0.0), _OMIT),
    },
    "lognormal": {"mu": (_num(), _REQUIRED), "sigma": (_num(lo=0.0), _REQUIRED)},
    "bimodal": {"components": (_list(_section(_COMPONENT), 2, "must list exactly 2 components",
                                     exact=True), _REQUIRED)},
}
#: The other lognormal form, resolved to ``mu``/``sigma`` for the echo.
_LOGNORMAL_MOMENTS = {"mean_ms": (_num(lo=1e-12), _REQUIRED), "std_ms": (_num(lo=0.0), _REQUIRED)}


def resolve_distribution(obj, path: str, kind_key: str = "kind") -> dict:
    """Validate one latency distribution and return its explicit form.

    ``kind_key`` names the field that holds the kind: ``"kind"`` for the
    link stages and ``"mode"`` for ``sut.latency``; the echo keeps it.
    """
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    kind = _one_of(*_DISTRIBUTIONS)(obj.get(kind_key), f"{path}.{kind_key}")
    moments = kind == "lognormal" and "mu" not in obj and "sigma" not in obj
    if kind == "lognormal" and not moments and ("mean_ms" in obj or "std_ms" in obj):
        raise ConfigError(path, "give either mu/sigma or mean_ms/std_ms, not both")
    table = _LOGNORMAL_MOMENTS if moments else _DISTRIBUTIONS[kind]
    out = _fields(obj, path, {kind_key: (_as_str, _REQUIRED), **table})
    if moments:
        # The mu and sigma of the lognormal with this mean and std.
        mean_ms, std_ms = out.pop("mean_ms"), out.pop("std_ms")
        sigma2 = math.log1p((std_ms / mean_ms) ** 2)
        out.update(mu=math.log(mean_ms) - sigma2 / 2.0, sigma=math.sqrt(sigma2))
    if "max_ms" in out and out["max_ms"] < out["min_ms"]:
        raise ConfigError(f"{path}.max_ms", f"must be >= {out['min_ms']}")
    if kind == "bimodal" and abs(sum(c["weight"] for c in out["components"]) - 1.0) > 1e-9:
        raise ConfigError(f"{path}.components", "weights must sum to 1")
    return out


# ---------------------------------------------------------------------------
# Paths

_PATH_PRESETS = {
    # Sandbox loop: a plain square with sharp corners, centered in the
    # 4.2 m x 4.2 m floor, driven counter-clockwise.
    "square-sandbox": {
        "closed": True,
        "vertices": [[0.7, 0.7], [3.5, 0.7], [3.5, 3.5], [0.7, 3.5]],
    },
}
_PRESET_PATH = {"preset": (_one_of(*_PATH_PRESETS), _REQUIRED)}
_PATH = {
    "closed": (_as_bool, _REQUIRED),
    "vertices": (_list(_vector(2, "[x, y]"), 2, "must be a list of at least 2 [x, y] points"),
                 _REQUIRED),
}


def _path(obj, path: str) -> dict:
    """A polyline, or a named preset (which excludes ``closed``/``vertices``)."""
    if isinstance(obj, dict) and "preset" in obj:
        return copy.deepcopy(_PATH_PRESETS[_fields(obj, path, _PRESET_PATH)["preset"]])
    out = _fields(obj, path, _PATH)
    try:
        ReferencePath(out["vertices"], closed=out["closed"])
    except PathError as exc:
        raise ConfigError(f"{path}.vertices", str(exc)) from exc
    return out


# ---------------------------------------------------------------------------
# Plant

_MAP_POINTS = _list(_vector(2, "[command, setpoint]"), 2,
                    "must be a list of at least 2 [command, setpoint] points")
_IDENTITY_MAP = [[-10.0, -10.0], [10.0, 10.0]]


def _plant_preset(steering_gain: float, velocity_gain: float) -> dict:
    """A preset's plant defaults.  Each ``tau_p_s`` is derived from the
    characterized 90% response time via tau_p = (t90 - L) / ln(10)."""
    return {
        "wheelbase_m": 0.09, "control_period_ms": 20.0, "max_steer_rad": 0.45,
        "max_speed_mps": 1.5,
        "steering": {"K": steering_gain, "tau_p_s": 0.3660, "L_s": 0.0072},
        "velocity": {"K": velocity_gain, "tau_p_s": 0.2199, "L_s": 0.0236},
        "steer_map": _IDENTITY_MAP, "speed_map": _IDENTITY_MAP,
    }


#: ``calibrated``: unit gains on both channels (the command units are the
#: physical units).  ``paper-uncalibrated``: the as-characterized gains
#: (velocity 2.11, steering 0.26) that motivate recalibration.
_PLANT_PRESETS = {
    "calibrated": _plant_preset(1.0, 1.0),
    "paper-uncalibrated": _plant_preset(0.26, 2.11),
}


def _p95_sigma(l_median: float, l_p95: float) -> float:
    """The sigma of a lognormal dead time with median ``l_median`` and 95th
    percentile ``l_p95``."""
    return math.log(l_p95 / l_median) / 1.6448536269514722


#: Per-command lognormal dead-time jitter around each channel's L, off by
#: default; its sigmas match the characterized p95 dead times.
_JITTER = {
    "enabled": (_as_bool, False),
    "steering_sigma": (_num(lo=0.0), _p95_sigma(0.0072, 0.0352)),
    "velocity_sigma": (_num(lo=0.0), _p95_sigma(0.0236, 0.0923)),
}


def _command_map(value, path: str) -> list:
    points = _MAP_POINTS(value, path)
    try:
        CommandMap(points)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    return points


def _channel(defaults: dict) -> tuple:
    return _section({
        "K": (_num(), defaults["K"]),
        "tau_p_s": (_num(lo=1e-9), defaults["tau_p_s"]),
        "L_s": (_num(lo=0.0), defaults["L_s"]),
    }), {}


def _plant(obj, path: str) -> dict:
    """The plant section; its ``preset`` supplies every other default."""
    name = obj.get("preset", "calibrated") if isinstance(obj, dict) else "calibrated"
    base = _PLANT_PRESETS.get(name) if isinstance(name, str) else None
    if base is None:
        raise ConfigError(f"{path}.preset", f"unknown plant preset {name!r}")
    out = _fields(obj, path, {
        "preset": (_as_str, name),
        "wheelbase_m": (_num(lo=1e-6), base["wheelbase_m"]),
        "control_period_ms": (_num(lo=1e-3), base["control_period_ms"]),
        "max_steer_rad": (_num(lo=1e-6), base["max_steer_rad"]),
        "max_speed_mps": (_num(lo=1e-6), base["max_speed_mps"]),
        "steering": _channel(base["steering"]),
        "velocity": _channel(base["velocity"]),
        "steer_map": (_command_map, base["steer_map"]),
        "speed_map": (_command_map, base["speed_map"]),
        "dead_time_jitter": (_section(_JITTER), {}),
        "initial_pose": (_or_null(_vector(3, "[x, y, heading] or null")), None),
    })
    for channel in ("steering", "velocity"):
        if out[channel]["K"] == 0.0:
            raise ConfigError(f"{path}.{channel}.K", "must be nonzero")
    return out


# ---------------------------------------------------------------------------
# Scenario scripts

_SPEED = {
    "accel_mps2": (_num(lo=1e-6), _REQUIRED),
    "cruise_mps": (_num(lo=1e-6), _REQUIRED),
    "decel_mps2": (_num(lo=1e-6), _OMIT),
}


def _speed(obj, path: str) -> dict:
    out = _fields(obj, path, _SPEED)
    out.setdefault("decel_mps2", out["accel_mps2"])
    return out


_NPC = {
    "id": (_as_str, _REQUIRED),
    "spawn": (_vector(3, "[x, y, heading]"), _OMIT),
    "route": (_path, _REQUIRED),
    "speed": (_speed, _REQUIRED),
    "radius_m": (_num(lo=1e-6), _REQUIRED),
}
_SCENARIO = {
    "trigger_zone": (_vector(4, "[x0, y0, x1, y1]"), _REQUIRED),
    "npcs": (_list(_section(_NPC), 1, "must list at least one agent"), _REQUIRED),
}


def _scenario(obj, path: str) -> dict | None:
    if obj is None:
        return None
    out = _fields(obj, path, _SCENARIO)
    x0, y0, x1, y1 = out["trigger_zone"]
    if x0 >= x1 or y0 >= y1:
        raise ConfigError(f"{path}.trigger_zone", "must satisfy x0 < x1 and y0 < y1")
    seen_ids = set()
    for i, npc in enumerate(out["npcs"]):
        npath = f"{path}.npcs[{i}]"
        if npc["id"] in seen_ids or npc["id"] == "ego":
            raise ConfigError(f"{npath}.id", f"duplicate or reserved agent id {npc['id']!r}")
        seen_ids.add(npc["id"])
        route = npc["route"]
        if "spawn" not in npc:
            npc["spawn"] = ReferencePath(route["vertices"], closed=route["closed"]).start_pose()
        elif math.hypot(npc["spawn"][0] - route["vertices"][0][0],
                        npc["spawn"][1] - route["vertices"][0][1]) > 1e-3:
            raise ConfigError(f"{npath}.spawn", "must coincide with the route start")
    return out


# ---------------------------------------------------------------------------
# Whole run documents

_TERMINATION = {
    "duration": {"mode": (_as_str, _REQUIRED), "duration_s": (_num(positive=True), _REQUIRED)},
    "laps": {"mode": (_as_str, _REQUIRED), "laps": (_num(lo=1, integer=True), _REQUIRED),
             "max_duration_s": (_num(lo=1e-9), _REQUIRED)},
}


def _termination(obj, path: str) -> dict:
    """By duration or by laps; a given ``mode`` must match the fields present."""
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    mode = _one_of(*_TERMINATION)(obj.get("mode", "laps" if "laps" in obj else "duration"),
                                  f"{path}.mode")
    return _fields({"mode": mode, **obj}, path, _TERMINATION[mode])


_PERTURBATION = {
    "fixed_delay_ms": (_num(lo=0.0), 0.0),
    "jitter": (_or_null(resolve_distribution), None),
    "loss_probability": (_num(lo=0.0, hi=1.0), 0.0),
    "reorder_allowed": (_as_bool, False),
}
#: The shipped link distributions, each at its characterized mean and spread:
#: the simulator-advancement stage is long-tailed, the others tight.
_LINKS = {
    "r2v": (_section({
        "ingest": (resolve_distribution,
                   {"kind": "gaussian_truncated", "mean_ms": 0.26, "std_ms": 0.11}),
        "adv": (resolve_distribution, {"kind": "lognormal", "mean_ms": 28.68, "std_ms": 23.22}),
        "sense": (resolve_distribution,
                  {"kind": "gaussian_truncated", "mean_ms": 7.64, "std_ms": 2.66}),
    }), {}),
    "v2r": (_section({
        "base": (resolve_distribution,
                 {"kind": "gaussian_truncated", "mean_ms": 8.58, "std_ms": 1.2}),
        "perturbation": (_section(_PERTURBATION), {}),
    }), {}),
}

#: ``PurePursuitParams`` fields a config may set.  The wheelbase and the ego
#: radius come from ``plant`` and ``report``.
_SUT_PARAMS = {
    "k_v": (_num(lo=0.0), _OMIT),
    "l_min": (_num(positive=True), _OMIT),
    "l_max": (_num(), _OMIT),
    "a_lat_max": (_num(positive=True), _OMIT),
    "t_h": (_num(lo=0.0), _OMIT),
    "d_stop": (_num(lo=0.0), _OMIT),
}


def _sut_params(obj, path: str) -> dict:
    """The given controller parameters, echoed as given (an int stays an int)."""
    out = _fields(obj, path, _SUT_PARAMS)
    l_min = out.get("l_min", PurePursuitParams.l_min)
    if out.get("l_max", PurePursuitParams.l_max) < l_min:
        raise ConfigError(f"{path}.l_max", f"must be >= l_min ({l_min})")
    return {key: obj[key] for key in out}


_SUT = {
    "name": (_one_of("pure-pursuit"), "pure-pursuit"),
    "goal_speed_mps": (_num(lo=0.0), 0.3),
    "latency": (lambda value, path: resolve_distribution(value, path, kind_key="mode"),
                {"mode": "constant", "ms": 15.48}),
    "params": (_sut_params, {}),
}
_REPORT = {key: (_num(lo=0.0), default) for key, default in {
    "completion_corridor_m": 0.5, "ttc_threshold_s": 1.5, "ttc_prominence_s": 0.3,
    "dmin_prominence_m": 1.0, "min_separation_s": 5.0, "ego_radius_m": 0.08,
    "sensing_range_m": 2.5,
}.items()}
_RUN = {
    "schema_version": (_schema_version, SCHEMA_VERSION),
    "run_id": (_as_str, "run"),
    "seed": (_num(lo=0, integer=True), _REQUIRED),
    "termination": (_termination, _REQUIRED),
    "path": (_path, _REQUIRED),
    "gts": (_section({"sample_period_ms": (_num(lo=1e-3), 20.0)}), {}),
    "plant": (_plant, {}),
    "links": (_section(_LINKS), {}),
    "sut": (_section(_SUT), {}),
    "report": (_section(_REPORT), {}),
    "scenario": (_scenario, None),
}


def resolve_run_config(obj: dict) -> dict:
    return _fields(obj, "", _RUN)


def _sweep_delays(value, path: str) -> list:
    """Strictly increasing delays whose ``{delay:g}`` labels differ: a label
    names its sweep point's directory, run_id and seed.  A delay of -0.0
    becomes 0.0 (``+ 0.0``), so that a zero delay has the one label "0"."""
    delays = [delay + 0.0 for delay in
              _list(_num(lo=0.0), 1, "must be a non-empty list")(value, path)]
    for i in range(1, len(delays)):
        before, delay = delays[i - 1], delays[i]
        if delay <= before:
            raise ConfigError(f"{path}[{i}]", f"must be above the delay before it ({before!r})")
        if f"{delay:g}" == f"{before:g}":
            raise ConfigError(f"{path}[{i}]", f"has the label {delay:g} of the delay before it; "
                                              f"a label keeps 6 significant digits")
    return delays


def _sweep_base(value, path: str) -> dict:
    try:
        return resolve_run_config(value)
    except ConfigError as exc:
        raise ConfigError(_at(path, exc.path) if exc.path else path, exc.message) from exc


_SWEEP = {
    "schema_version": (_schema_version, SCHEMA_VERSION),
    "injected_delays_ms": (_sweep_delays, _REQUIRED),
    "repetitions": (_num(lo=1, integer=True), 1),
    "base": (_sweep_base, _REQUIRED),
}


def resolve_sweep_config(obj: dict) -> dict:
    return _fields(obj, "", _SWEEP)


def load_json(path, field: str = ""):
    """Read the JSON document at ``path``; a failure is a ``ConfigError`` at ``field``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(field, f"invalid JSON in {path}: {exc}") from exc
