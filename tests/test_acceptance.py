"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are fixed here; every expected value is either an
arithmetic consequence of the configured models or computed by the
independent oracle implemented inside the test.
"""

import math
import time

import numpy as np
import pytest

from hilbench import presets
from hilbench.config import resolve_run_config, resolve_sweep_config
from hilbench.core import Stage, rng_stream
from hilbench.orchestrator import (
    replay_report,
    report_to_json,
    run_stage1,
    run_stage2,
)
from hilbench.plant import fit_fopdt, preset, run_step_experiment
from hilbench.registration import run_benchmark
from hilbench.safety import AgentState, contact_ttc
from hilbench.spatial import ReferencePath, project
from hilbench.temporal import assemble_all


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {mark}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_run():
    """The shipped default configuration: a 2000-cycle stage-1 run."""
    resolved = resolve_run_config(presets.load("stage1-default"))
    t0 = time.monotonic()
    report, runner = run_stage1(resolved)
    elapsed = time.monotonic() - t0
    return report, runner, elapsed


def test_01_latency_identities(default_run):
    report, runner, elapsed = default_run
    records, incomplete, gapped = assemble_all(runner.ctx.audit.events)
    complete = report["completeness"]["fraction"]
    ok = (
        len(records) == 2000
        and not incomplete
        and not gapped
        and complete == 1.0
        and all(r["r2v"] == r["ingest"] + r["adv"] + r["sense"]
                and r["platform"] == r["v2r"] + r["r2v"]
                and r["total"] == r["sut"] + r["platform"] for r in records.values())
        and elapsed < 10.0
    )
    verdict("1 latency-identity", ok,
            f"records={len(records)} complete={complete:.3f} runtime={elapsed:.2f}s")


def test_02_link_character(default_run):
    report, _, _ = default_run
    lat = report["latency_ms"]
    r2v_mean = lat["r2v"]["mean_ms"]
    v2r_mean = lat["v2r"]["mean_ms"]
    ok = (
        abs(r2v_mean - 36.58) / 36.58 < 0.10
        and abs(v2r_mean - 8.58) / 8.58 < 0.10
        and lat["v2r"]["cv"] < 0.3
        and lat["r2v"]["cv"] > 0.45
        and lat["adv"]["cv"] > lat["sense"]["cv"] > lat["v2r"]["cv"]
    )
    verdict("2 link-character", ok,
            f"r2v {r2v_mean:.2f}ms cv {lat['r2v']['cv']:.2f} | "
            f"v2r {v2r_mean:.2f}ms cv {lat['v2r']['cv']:.2f} | "
            f"adv cv {lat['adv']['cv']:.2f} > sense cv {lat['sense']['cv']:.2f}")


_ORACLE_N = 1_000_000
_ORACLE_FRAC = np.linspace(0.0, 1.0, _ORACLE_N)
_ORACLE_BUF = {k: np.empty(_ORACLE_N) for k in ("s", "u")}


def _cte(path: ReferencePath, p) -> float:
    """Cross-track error: distance from ``p`` to its path projection."""
    proj = project(path, p)
    return math.hypot(p[0] - proj.point[0], p[1] - proj.point[1])


def _dense_min_distance(path: ReferencePath, p) -> float:
    """10^6 uniformly spaced path samples (plus the exact vertices).

    A sample at arc length ``u`` past the start ``v`` of its segment, with
    unit direction ``t``, lies at squared distance ``u^2 + 2u(e.t) + |e|^2``
    from ``p``, where ``e = v - p``.
    """
    verts = path.vertices
    if path.closed:
        verts = np.vstack([verts, verts[:1]])
    seg = np.diff(verts, axis=0)
    lengths = np.hypot(*seg.T)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    e = verts[:-1] - p
    e_dot_t = (e * seg).sum(axis=1) / lengths
    e_sq = (e * e).sum(axis=1)
    s = np.multiply(_ORACLE_FRAC, cum[-1], out=_ORACLE_BUF["s"])
    best = float(((verts - p) ** 2).sum(axis=1).min())
    bounds = np.searchsorted(s, cum[1:-1])
    for i, (lo, hi) in enumerate(zip([0, *bounds], [*bounds, _ORACLE_N])):
        if lo == hi:
            continue
        u = np.subtract(s[lo:hi], cum[i], out=_ORACLE_BUF["u"][lo:hi])
        np.multiply(u, u + 2.0 * e_dot_t[i], out=u)  # |e|^2 is added to the minimum
        best = min(best, float(u.min()) + e_sq[i])
    return math.sqrt(best)


def test_03_projection_oracle():
    rng = rng_stream(7, "acceptance.projection")
    t0 = time.monotonic()
    worst = 0.0
    for case in range(1000):
        n_verts = int(rng.integers(3, 21))
        ang = rng.uniform(0, 2 * math.pi, size=n_verts - 1)
        steps = rng.uniform(0.1, 1.0, size=(n_verts - 1, 1)) * \
            np.stack([np.cos(ang), np.sin(ang)], axis=1)
        verts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        closed = bool(rng.random() < 0.3) and n_verts >= 4
        try:
            path = ReferencePath(verts, closed=closed)
        except ValueError:
            path = ReferencePath(verts, closed=False)
        p = rng.uniform(-3, 9, size=2)
        d = _cte(path, p)
        oracle = _dense_min_distance(path, p)
        assert d <= oracle + 1e-9, f"case {case}: projection worse than a dense sample"
        worst = max(worst, abs(d - oracle))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    verdict("3 projection-oracle", ok, f"worst |cte-oracle| {worst:.2e} m runtime {elapsed:.1f}s")


def test_04_fopdt_recovery():
    cfg = preset("paper-uncalibrated")
    channels = {
        "steering": (0.3, 0.85),
        "velocity": (1.0, 0.53),
    }
    counts = {}
    for channel, (amplitude, t90_anchor) in channels.items():
        params = {"steering": cfg.steering, "velocity": cfg.velocity}[channel]
        noise = 0.02 * abs(params.K * amplitude)  # 2% of the response step
        duration = params.L + 10 * params.tau_p + 1.0
        good_r2 = good_t90 = 0
        for seed in range(20):
            log = run_step_experiment(cfg, channel, amplitude, duration, noise, seed=seed)
            fit = fit_fopdt(log)
            good_r2 += fit.r2 > 0.97
            good_t90 += abs(fit.t90 - t90_anchor) / t90_anchor < 0.05
        counts[channel] = (good_r2, good_t90)
    ok = all(r2 >= 19 and t90 >= 19 for r2, t90 in counts.values())
    verdict("4 fopdt-recovery", ok,
            " ".join(f"{ch} r2 {c[0]}/20 t90 {c[1]}/20" for ch, c in counts.items()))


def test_05_registration_ladder():
    t0 = time.monotonic()
    pairs, train_idx, test_idx, results = run_benchmark()
    elapsed = time.monotonic() - t0
    rmse = {name: res[1].rmse for name, res in results.items()}
    improvement = (rmse["rigid_svd"] - rmse["hybrid"]) / rmse["rigid_svd"]
    ok = (
        len(pairs) == 3433 and train_idx.size == 2746 and test_idx.size == 687
        and rmse["raw"] > rmse["rigid_svd"] > rmse["affine"] > rmse["hybrid"]
        and improvement >= 0.30
        and elapsed < 300.0
    )
    verdict("5 registration-ladder", ok,
            f"rmse mm: raw {rmse['raw']*1e3:.1f} > svd {rmse['rigid_svd']*1e3:.2f} > "
            f"affine {rmse['affine']*1e3:.2f} > hybrid {rmse['hybrid']*1e3:.2f}; "
            f"improvement {improvement*100:.1f}% runtime {elapsed:.0f}s")


def test_06_determinism_and_auditability(tmp_path):
    resolved = resolve_run_config(presets.load("stage1-default"))
    report1, runner1 = run_stage1(resolved)
    report2, runner2 = run_stage1(resolved)
    log1 = tmp_path / "a.ndjson"
    log2 = tmp_path / "b.ndjson"
    runner1.ctx.audit.write_ndjson(log1)
    runner2.ctx.audit.write_ndjson(log2)
    logs_identical = log1.read_bytes() == log2.read_bytes()
    replayed = replay_report(log1)
    replay_exact = report_to_json(replayed) == report_to_json(report1)
    ok = logs_identical and replay_exact
    verdict("6 determinism-auditability", ok,
            f"logs byte-identical={logs_identical} replay bit-exact={replay_exact}")


def test_07_stage2_cliff():
    sweep = resolve_sweep_config(presets.load("stage2-cliff-sweep"))
    t0 = time.monotonic()
    rows, _ = run_stage2(sweep)
    elapsed = time.monotonic() - t0
    rmse = {r["delay_ms"]: r["cte_rmse_m"] for r in rows}
    completed = {r["delay_ms"]: r["completed"] for r in rows}
    delays = sorted(rmse)
    endpoint_ratio = rmse[80.0] / rmse[0.0]
    adjacent = [(b, rmse[b] / rmse[a]) for a, b in zip(delays, delays[1:])]
    max_adjacent = max(ratio for _, ratio in adjacent)
    failures = [d for d in delays if not completed[d]]
    cliff = failures[0] if failures else None
    failure_tail = cliff is not None and all(not completed[d] for d in delays if d >= cliff)
    ok = (
        endpoint_ratio >= 5.0
        and max_adjacent >= 3.0
        and failure_tail
        and elapsed < 300.0
    )
    verdict("7 stage2-cliff", ok,
            f"rmse(80)/rmse(0)={endpoint_ratio:.2f} max adjacent={max_adjacent:.2f} "
            f"cliff at {cliff} ms runtime {elapsed:.0f}s")


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


def _ttc_body(ego: AgentState, other: AgentState) -> float:
    """Seconds until two bodies touch: ``contact_ttc`` of their relative motion."""
    return contact_ttc(other.x - ego.x, other.y - ego.y, other.vx - ego.vx, other.vy - ego.vy,
                       ego.radius + other.radius)


def _body_gap(a: AgentState, b: AgentState) -> float:
    """Gap between two circular bodies, floored at 0."""
    return max(math.hypot(b.x - a.x, b.y - a.y) - (a.radius + b.radius), 0.0)


def test_08_stage3_safety_accounting():
    resolved = resolve_run_config(presets.load("stage3-intersection"))
    report, runner = run_stage1(resolved)
    safety = report["safety"]
    duration_ok = resolved["termination"]["duration_s"] >= 90.0

    events = runner.ctx.audit.events
    frames = _frames_from_events(events, resolved["report"]["ego_radius_m"])
    brute_min = math.inf
    ttc_series = []
    for frame in frames:
        ego = next(a for a in frame if a.agent_id == "ego")
        others = [a for a in frame if a.agent_id != "ego"]
        for a in others:
            brute_min = min(brute_min, _body_gap(ego, a))
        ttc_series.append(min((_ttc_body(ego, a) for a in others), default=math.inf))

    global_mins = [(e["kind"], e["metric"]) for e in safety["events"]
                   if e["kind"] == "GlobalMin"]
    one_each = sorted(global_mins) == [("GlobalMin", "Dmin"), ("GlobalMin", "TTC")]

    dmin_matches = safety["d_min_m"] == brute_min

    ttc_arr = np.array(ttc_series)
    below = ttc_arr < resolved["report"]["ttc_threshold_s"]
    dips = int(np.sum(below & ~np.concatenate([[False], below[:-1]])))
    crossings = sum(1 for e in safety["events"]
                    if e["kind"] == "ThresholdCross" and e["metric"] == "TTC")
    ok = duration_ok and one_each and dmin_matches and dips == crossings and dips >= 1
    verdict("8 stage3-safety", ok,
            f"d_min {safety['d_min_m']:.3f} m == brute {brute_min:.3f}; "
            f"ttc dips {dips} == crossings {crossings}; ttc_min {safety['ttc_min_s']:.2f} s")


def test_09_ttc_oracle():
    rng = rng_stream(11, "acceptance.ttc")
    horizon, dt = 30.0, 1e-4
    checked = finite_cases = 0
    worst = 0.0
    while checked < 500:
        px, py = rng.uniform(-8, 8, size=2)
        if rng.random() < 0.5:
            # Collision-bound half: velocity roughly toward the ego.
            dist = math.hypot(px, py)
            speed = float(rng.uniform(0.5, 3.0))
            perp = float(rng.uniform(-0.3, 0.3))
            vx = -px / dist * speed - py / dist * perp
            vy = -py / dist * speed + px / dist * perp
        else:
            vx, vy = rng.uniform(-3, 3, size=2)
        r1 = float(rng.uniform(0.2, 1.2))
        ego = _agent("e", 0.0, 0.0, 0.0, 0.0, 0.5)
        other = _agent("o", px, py, vx, vy, r1)
        closed = _ttc_body(ego, other)
        if math.isfinite(closed) and closed > horizon - 5.0:
            continue  # outside the oracle's horizon
        s = np.arange(0.0, horizon, dt)
        gap = np.hypot(px + vx * s, py + vy * s) - (0.5 + r1)
        if float(np.abs(gap).min()) < 1e-3 and not math.isfinite(closed):
            continue  # grazing tangency: quantized oracle may disagree
        hit = np.nonzero(gap <= 0.0)[0]
        oracle = float(s[hit[0]]) if hit.size else math.inf
        assert math.isfinite(closed) == math.isfinite(oracle), \
            f"finiteness disagrees: {closed} vs {oracle}"
        if math.isfinite(closed):
            worst = max(worst, abs(closed - oracle))
            finite_cases += 1
        checked += 1
    ok = worst < 1e-3 and finite_cases > 100
    verdict("9 ttc-oracle", ok,
            f"checked 500 ({finite_cases} finite), worst |closed-oracle| {worst:.2e} s")


def _agent(aid, x, y, vx, vy, r):
    return AgentState(aid, 0, x, y, vx, vy, r)
