"""Run-configuration documents: validation, defaults, and object building.

Configs are single JSON documents.  ``resolve_run_config`` validates a raw
document, fills every default, and returns the fully explicit dict that gets
echoed into the audit-log header (reports must be recomputable from the log
alone, so the header carries the complete resolved configuration).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import fields

from . import plant as plant_mod
from .links import PerturbationConfig, R2VConfig, StageLatencyModel, V2RConfig
from .plant import CommandMap, DeadTimeJitter, FOPDTParams, PlantConfig
from .spatial import PathError, ReferencePath
from .sut import PurePursuitParams

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Validation failure, carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return obj[key]


def _as_number(value, path: str, lo=None, hi=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, "must be a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if lo is not None and v < lo:
        raise ConfigError(path, f"must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(path, f"must be <= {hi}")
    return v


def _as_int(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, "must be an integer")
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}")
    return value


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, "must be a boolean")
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "must be a non-empty string")
    return value


# ---------------------------------------------------------------------------
# Latency distributions

def resolve_distribution(obj, path: str, kind_key: str = "kind") -> dict:
    """Validate one latency distribution and return its explicit form.

    ``kind_key`` names the field that holds the kind: ``"kind"`` for the
    link stages and ``"mode"`` for ``sut.latency``; the echo keeps it.
    """
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    kind = _as_str(_require(obj, kind_key, path), f"{path}.{kind_key}")
    if kind == "constant":
        return {kind_key: "constant", "ms": _as_number(_require(obj, "ms", path), f"{path}.ms", lo=0.0)}
    if kind == "gaussian_truncated":
        out = {
            kind_key: kind,
            "mean_ms": _as_number(_require(obj, "mean_ms", path), f"{path}.mean_ms", lo=0.0),
            "std_ms": _as_number(_require(obj, "std_ms", path), f"{path}.std_ms", lo=0.0),
            "min_ms": _as_number(obj.get("min_ms", 0.0), f"{path}.min_ms", lo=0.0),
        }
        if "max_ms" in obj:
            out["max_ms"] = _as_number(obj["max_ms"], f"{path}.max_ms", lo=out["min_ms"])
        return out
    if kind == "lognormal":
        if ("mu" in obj or "sigma" in obj) and ("mean_ms" in obj or "std_ms" in obj):
            raise ConfigError(path, "give either mu/sigma or mean_ms/std_ms, not both")
        if "mu" in obj or "sigma" in obj:
            return {
                kind_key: kind,
                "mu": _as_number(_require(obj, "mu", path), f"{path}.mu"),
                "sigma": _as_number(_require(obj, "sigma", path), f"{path}.sigma", lo=0.0),
            }
        mean = _as_number(_require(obj, "mean_ms", path), f"{path}.mean_ms", lo=1e-12)
        std = _as_number(_require(obj, "std_ms", path), f"{path}.std_ms", lo=0.0)
        model = StageLatencyModel.lognormal_from_mean_std(mean, std)
        return {kind_key: kind, "mu": model.params["mu"], "sigma": model.params["sigma"]}
    if kind == "bimodal":
        comps = obj.get("components")
        if not (isinstance(comps, list) and len(comps) == 2):
            raise ConfigError(f"{path}.components", "must list exactly 2 components")
        out_comps = []
        for i, c in enumerate(comps):
            cpath = f"{path}.components[{i}]"
            if not isinstance(c, dict):
                raise ConfigError(cpath, "must be an object")
            out_comps.append({
                "mean_ms": _as_number(_require(c, "mean_ms", cpath), f"{cpath}.mean_ms", lo=0.0),
                "std_ms": _as_number(_require(c, "std_ms", cpath), f"{cpath}.std_ms", lo=0.0),
                "weight": _as_number(_require(c, "weight", cpath), f"{cpath}.weight", lo=0.0, hi=1.0),
            })
        if abs(out_comps[0]["weight"] + out_comps[1]["weight"] - 1.0) > 1e-9:
            raise ConfigError(f"{path}.components", "weights must sum to 1")
        return {kind_key: kind, "components": out_comps}
    raise ConfigError(f"{path}.{kind_key}", f"unknown distribution kind {kind!r}")


def build_distribution(resolved: dict, kind_key: str = "kind") -> StageLatencyModel:
    params = {k: v for k, v in resolved.items() if k != kind_key}
    return StageLatencyModel(resolved[kind_key], params)


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


def resolve_path(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    if "preset" in obj:
        name = _as_str(obj["preset"], f"{path}.preset")
        if name not in _PATH_PRESETS:
            raise ConfigError(f"{path}.preset", f"unknown path preset {name!r}")
        return copy.deepcopy(_PATH_PRESETS[name])
    closed = _as_bool(_require(obj, "closed", path), f"{path}.closed")
    vertices = _require(obj, "vertices", path)
    if not isinstance(vertices, list) or len(vertices) < 2:
        raise ConfigError(f"{path}.vertices", "must be a list of at least 2 [x, y] points")
    out = []
    for i, v in enumerate(vertices):
        if not (isinstance(v, list) and len(v) == 2):
            raise ConfigError(f"{path}.vertices[{i}]", "must be [x, y]")
        out.append([_as_number(v[0], f"{path}.vertices[{i}][0]"),
                    _as_number(v[1], f"{path}.vertices[{i}][1]")])
    try:
        ReferencePath(out, closed=closed)
    except PathError as exc:
        raise ConfigError(f"{path}.vertices", str(exc)) from exc
    return {"closed": closed, "vertices": out}


# ---------------------------------------------------------------------------
# Plant

def resolve_plant(obj, path: str) -> dict:
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object")
    preset_name = obj.get("preset", "calibrated")
    try:
        base = plant_mod.preset(preset_name)
    except ValueError as exc:
        raise ConfigError(f"{path}.preset", str(exc)) from exc

    def chan(name: str, params: FOPDTParams) -> dict:
        sub = obj.get(name, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"{path}.{name}", "must be an object")
        gain = _as_number(sub.get("K", params.K), f"{path}.{name}.K")
        if gain == 0.0:
            raise ConfigError(f"{path}.{name}.K", "must be nonzero")
        return {
            "K": gain,
            "tau_p_s": _as_number(sub.get("tau_p_s", params.tau_p), f"{path}.{name}.tau_p_s", lo=1e-9),
            "L_s": _as_number(sub.get("L_s", params.L), f"{path}.{name}.L_s", lo=0.0),
        }

    jitter = obj.get("dead_time_jitter", {})
    if not isinstance(jitter, dict):
        raise ConfigError(f"{path}.dead_time_jitter", "must be an object")
    resolved = {
        "preset": preset_name,
        "wheelbase_m": _as_number(obj.get("wheelbase_m", base.wheelbase), f"{path}.wheelbase_m", lo=1e-6),
        "control_period_ms": _as_number(obj.get("control_period_ms", base.control_period_s * 1e3),
                                        f"{path}.control_period_ms", lo=1e-3),
        "max_steer_rad": _as_number(obj.get("max_steer_rad", base.max_steer), f"{path}.max_steer_rad", lo=1e-6),
        "max_speed_mps": _as_number(obj.get("max_speed_mps", base.max_speed), f"{path}.max_speed_mps", lo=1e-6),
        "steering": chan("steering", base.steering),
        "velocity": chan("velocity", base.velocity),
        "steer_map": obj.get("steer_map", base.steer_map.to_points()),
        "speed_map": obj.get("speed_map", base.speed_map.to_points()),
        "dead_time_jitter": {
            "enabled": _as_bool(jitter.get("enabled", False), f"{path}.dead_time_jitter.enabled"),
            "steering_sigma": _as_number(jitter.get("steering_sigma", plant_mod.STEERING_JITTER.sigma),
                                         f"{path}.dead_time_jitter.steering_sigma", lo=0.0),
            "velocity_sigma": _as_number(jitter.get("velocity_sigma", plant_mod.VELOCITY_JITTER.sigma),
                                         f"{path}.dead_time_jitter.velocity_sigma", lo=0.0),
        },
        "initial_pose": obj.get("initial_pose"),
    }
    for map_key in ("steer_map", "speed_map"):
        pts = resolved[map_key]
        if not isinstance(pts, list) or len(pts) < 2:
            raise ConfigError(f"{path}.{map_key}", "must be a list of at least 2 [command, setpoint] points")
        checked = []
        for i, pt in enumerate(pts):
            ppath = f"{path}.{map_key}[{i}]"
            if not (isinstance(pt, list) and len(pt) == 2):
                raise ConfigError(ppath, "must be [command, setpoint]")
            checked.append([_as_number(v, f"{ppath}[{j}]") for j, v in enumerate(pt)])
        resolved[map_key] = checked
        try:
            CommandMap(checked)
        except ValueError as exc:
            raise ConfigError(f"{path}.{map_key}", str(exc)) from exc
    ip = resolved["initial_pose"]
    if ip is not None:
        if not (isinstance(ip, list) and len(ip) == 3):
            raise ConfigError(f"{path}.initial_pose", "must be [x, y, heading] or null")
        resolved["initial_pose"] = [_as_number(v, f"{path}.initial_pose[{i}]") for i, v in enumerate(ip)]
    return resolved


def build_plant_config(resolved: dict) -> PlantConfig:
    jit = resolved["dead_time_jitter"]
    enabled = jit["enabled"]
    return PlantConfig(
        wheelbase=resolved["wheelbase_m"],
        steering=FOPDTParams(K=resolved["steering"]["K"], tau_p=resolved["steering"]["tau_p_s"],
                             L=resolved["steering"]["L_s"]),
        velocity=FOPDTParams(K=resolved["velocity"]["K"], tau_p=resolved["velocity"]["tau_p_s"],
                             L=resolved["velocity"]["L_s"]),
        steer_map=CommandMap(resolved["steer_map"]),
        speed_map=CommandMap(resolved["speed_map"]),
        max_steer=resolved["max_steer_rad"],
        max_speed=resolved["max_speed_mps"],
        control_period_s=resolved["control_period_ms"] / 1e3,
        steering_jitter=DeadTimeJitter(jit["steering_sigma"]) if enabled else None,
        velocity_jitter=DeadTimeJitter(jit["velocity_sigma"]) if enabled else None,
    )


# ---------------------------------------------------------------------------
# Scenario scripts

def resolve_scenario(obj, path: str) -> dict | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ConfigError(path, "must be an object or null")
    zone = _require(obj, "trigger_zone", path)
    if not (isinstance(zone, list) and len(zone) == 4):
        raise ConfigError(f"{path}.trigger_zone", "must be [x0, y0, x1, y1]")
    zone = [_as_number(v, f"{path}.trigger_zone[{i}]") for i, v in enumerate(zone)]
    if zone[0] >= zone[2] or zone[1] >= zone[3]:
        raise ConfigError(f"{path}.trigger_zone", "must satisfy x0 < x1 and y0 < y1")
    npcs = _require(obj, "npcs", path)
    if not isinstance(npcs, list) or len(npcs) < 1:
        raise ConfigError(f"{path}.npcs", "must list at least one agent")
    out_npcs = []
    seen_ids = set()
    for i, npc in enumerate(npcs):
        npath = f"{path}.npcs[{i}]"
        if not isinstance(npc, dict):
            raise ConfigError(npath, "must be an object")
        nid = _as_str(_require(npc, "id", npath), f"{npath}.id")
        if nid in seen_ids or nid == "ego":
            raise ConfigError(f"{npath}.id", f"duplicate or reserved agent id {nid!r}")
        seen_ids.add(nid)
        spawn = _require(npc, "spawn", npath)
        if not (isinstance(spawn, list) and len(spawn) == 3):
            raise ConfigError(f"{npath}.spawn", "must be [x, y, heading]")
        spawn = [_as_number(v, f"{npath}.spawn[{j}]") for j, v in enumerate(spawn)]
        route = resolve_path(_require(npc, "route", npath), f"{npath}.route")
        start = route["vertices"][0]
        if math.hypot(spawn[0] - start[0], spawn[1] - start[1]) > 1e-3:
            raise ConfigError(f"{npath}.spawn", "must coincide with the route start")
        speed = _require(npc, "speed", npath)
        if not isinstance(speed, dict):
            raise ConfigError(f"{npath}.speed", "must be an object")
        out_npcs.append({
            "id": nid,
            "spawn": spawn,
            "route": route,
            "speed": {
                "accel_mps2": _as_number(_require(speed, "accel_mps2", f"{npath}.speed"),
                                         f"{npath}.speed.accel_mps2", lo=1e-6),
                "cruise_mps": _as_number(_require(speed, "cruise_mps", f"{npath}.speed"),
                                         f"{npath}.speed.cruise_mps", lo=1e-6),
                "decel_mps2": _as_number(speed.get("decel_mps2", speed["accel_mps2"]),
                                         f"{npath}.speed.decel_mps2", lo=1e-6),
            },
            "radius_m": _as_number(_require(npc, "radius_m", npath), f"{npath}.radius_m", lo=1e-6),
        })
    return {"trigger_zone": zone, "npcs": out_npcs}


# ---------------------------------------------------------------------------
# Whole run documents

_REPORT_DEFAULTS = {
    "completion_corridor_m": 0.5,
    "ttc_threshold_s": 1.5,
    "ttc_prominence_s": 0.3,
    "dmin_prominence_m": 1.0,
    "min_separation_s": 5.0,
    "ego_radius_m": 0.08,
    "sensing_range_m": 2.5,
}


def resolve_run_config(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("", "config must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")

    term_in = _require(obj, "termination", "")
    if not isinstance(term_in, dict):
        raise ConfigError("termination", "must be an object")
    if "laps" in term_in:
        termination = {
            "mode": "laps",
            "laps": _as_int(term_in["laps"], "termination.laps", lo=1),
            "max_duration_s": _as_number(_require(term_in, "max_duration_s", "termination"),
                                         "termination.max_duration_s", lo=1e-9),
        }
    else:
        duration = _as_number(_require(term_in, "duration_s", "termination"),
                              "termination.duration_s")
        if duration <= 0.0:
            raise ConfigError("termination.duration_s", "must be positive")
        termination = {"mode": "duration", "duration_s": duration}

    links_in = obj.get("links", {})
    if not isinstance(links_in, dict):
        raise ConfigError("links", "must be an object")
    r2v_in = links_in.get("r2v", {})
    v2r_in = links_in.get("v2r", {})
    for name, sub in (("r2v", r2v_in), ("v2r", v2r_in)):
        if not isinstance(sub, dict):
            raise ConfigError(f"links.{name}", "must be an object")
    from .links import default_r2v_config, default_v2r_config
    d_r2v = default_r2v_config()
    d_v2r = default_v2r_config()
    r2v = {
        "ingest": resolve_distribution(r2v_in["ingest"], "links.r2v.ingest")
        if "ingest" in r2v_in else d_r2v.ingest.to_dict(),
        "adv": resolve_distribution(r2v_in["adv"], "links.r2v.adv")
        if "adv" in r2v_in else d_r2v.adv.to_dict(),
        "sense": resolve_distribution(r2v_in["sense"], "links.r2v.sense")
        if "sense" in r2v_in else d_r2v.sense.to_dict(),
    }
    pert_in = v2r_in.get("perturbation", {})
    if not isinstance(pert_in, dict):
        raise ConfigError("links.v2r.perturbation", "must be an object")
    perturbation = {
        "fixed_delay_ms": _as_number(pert_in.get("fixed_delay_ms", 0.0),
                                     "links.v2r.perturbation.fixed_delay_ms", lo=0.0),
        "jitter": resolve_distribution(pert_in["jitter"], "links.v2r.perturbation.jitter")
        if pert_in.get("jitter") is not None else None,
        "loss_probability": _as_number(pert_in.get("loss_probability", 0.0),
                                       "links.v2r.perturbation.loss_probability", lo=0.0, hi=1.0),
        "reorder_allowed": _as_bool(pert_in.get("reorder_allowed", False),
                                    "links.v2r.perturbation.reorder_allowed"),
    }
    v2r = {
        "base": resolve_distribution(v2r_in["base"], "links.v2r.base")
        if "base" in v2r_in else d_v2r.base.to_dict(),
        "perturbation": perturbation,
    }

    sut_in = obj.get("sut", {})
    if not isinstance(sut_in, dict):
        raise ConfigError("sut", "must be an object")
    sut_name = _as_str(sut_in.get("name", "pure-pursuit"), "sut.name")
    if sut_name != "pure-pursuit":
        raise ConfigError("sut.name", f"unknown SUT {sut_name!r}; the only controller is 'pure-pursuit'")
    sut_params = sut_in.get("params", {})
    if not isinstance(sut_params, dict):
        raise ConfigError("sut.params", "must be an object")
    known = {f.name for f in fields(PurePursuitParams)}
    for key, value in sut_params.items():
        if key not in known:
            raise ConfigError(f"sut.params.{key}", "unknown pure-pursuit parameter")
        _as_number(value, f"sut.params.{key}")
    latency = resolve_distribution(sut_in.get("latency", {"mode": "constant", "ms": 15.48}),
                                   "sut.latency", kind_key="mode")

    report = dict(_REPORT_DEFAULTS)
    rep_in = obj.get("report", {})
    if not isinstance(rep_in, dict):
        raise ConfigError("report", "must be an object")
    for key in rep_in:
        if key not in _REPORT_DEFAULTS:
            raise ConfigError(f"report.{key}", "unknown report option")
        report[key] = _as_number(rep_in[key], f"report.{key}", lo=0.0)

    gts_in = obj.get("gts", {})
    if not isinstance(gts_in, dict):
        raise ConfigError("gts", "must be an object")
    gts = {"sample_period_ms": _as_number(gts_in.get("sample_period_ms", 20.0),
                                          "gts.sample_period_ms", lo=1e-3)}

    resolved = {
        "schema_version": SCHEMA_VERSION,
        "run_id": _as_str(obj.get("run_id", "run"), "run_id"),
        "seed": _as_int(_require(obj, "seed", ""), "seed", lo=0),
        "termination": termination,
        "path": resolve_path(_require(obj, "path", ""), "path"),
        "gts": gts,
        "plant": resolve_plant(obj.get("plant"), "plant"),
        "links": {"r2v": r2v, "v2r": v2r},
        "sut": {
            "name": sut_name,
            "goal_speed_mps": _as_number(sut_in.get("goal_speed_mps", 0.3), "sut.goal_speed_mps", lo=0.0),
            "latency": latency,
            "params": sut_params,
        },
        "report": report,
        "scenario": resolve_scenario(obj.get("scenario"), "scenario"),
    }
    return resolved


def resolve_sweep_config(obj: dict) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError("", "sweep config must be a JSON object")
    delays = _require(obj, "injected_delays_ms", "")
    if not isinstance(delays, list) or not delays:
        raise ConfigError("injected_delays_ms", "must be a non-empty list")
    vals = [_as_number(d, f"injected_delays_ms[{i}]", lo=0.0) for i, d in enumerate(delays)]
    if vals != sorted(vals):
        raise ConfigError("injected_delays_ms", "must be sorted ascending")
    reps = _as_int(obj.get("repetitions", 1), "repetitions", lo=1)
    base_in = _require(obj, "base", "")
    try:
        base = resolve_run_config(base_in)
    except ConfigError as exc:
        raise ConfigError(f"base.{exc.path}" if exc.path else "base", exc.message) from exc
    return {
        "schema_version": SCHEMA_VERSION,
        "injected_delays_ms": vals,
        "repetitions": reps,
        "base": base,
    }


def build_r2v_config(resolved: dict) -> R2VConfig:
    return R2VConfig(
        ingest=build_distribution(resolved["ingest"]),
        adv=build_distribution(resolved["adv"]),
        sense=build_distribution(resolved["sense"]),
    )


def build_v2r_config(resolved: dict) -> V2RConfig:
    pert = resolved["perturbation"]
    return V2RConfig(
        base=build_distribution(resolved["base"]),
        perturbation=PerturbationConfig(
            fixed_delay_ms=pert["fixed_delay_ms"],
            jitter=build_distribution(pert["jitter"]) if pert["jitter"] is not None else None,
            loss_probability=pert["loss_probability"],
            reorder_allowed=pert["reorder_allowed"],
        ),
    )


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
