import math

import numpy as np
import pytest

from hilbench import presets
from hilbench.config import ConfigError, resolve_distribution, resolve_run_config
from hilbench.core import ms_to_ns, rng_stream
from hilbench.links import R2VLink, V2RLink, sampler


def constant(ms):
    return {"kind": "constant", "ms": ms}


def gaussian(mean_ms, std_ms, **bounds):
    return {"kind": "gaussian_truncated", "mean_ms": mean_ms, "std_ms": std_ms, **bounds}


def lognormal(mean_ms, std_ms):
    return {"kind": "lognormal", "mean_ms": mean_ms, "std_ms": std_ms}


def bimodal(mean1_ms=10.0, std1_ms=2.0, weight1=0.6):
    return {"kind": "bimodal", "components": [
        {"mean_ms": mean1_ms, "std_ms": std1_ms, "weight": weight1},
        {"mean_ms": 28.0, "std_ms": 3.0, "weight": 1.0 - weight1},
    ]}


def resolved(dist) -> dict:
    """A latency distribution as its config form resolves."""
    return resolve_distribution(dist, "d")


def draws(dist):
    """The ``sample_ms(rng)`` sampler of a distribution in its config form."""
    return sampler(resolved(dist))


def resolved_links(**links) -> dict:
    """The resolved ``links`` section of ``stage1-default`` with ``links`` set."""
    return resolve_run_config({**presets.load("stage1-default"), "links": links})["links"]


def shipped_links() -> dict:
    """The link distributions of a run config that sets none."""
    return resolved_links()


def v2r_link(seed, base, **perturbation):
    return V2RLink(resolved_links(v2r={"base": base, "perturbation": perturbation})["v2r"],
                   factory_for(seed))


def _reference_truncated_normal(rng, mean, std, lo, hi):
    for _ in range(100):
        v = mean + std * float(rng.standard_normal())
        if v >= lo and (hi is None or v <= hi):
            return v
    return min(max(mean, lo), hi) if hi is not None else max(mean, lo)


def _reference_sample_ms(kind, params, rng):
    """One draw of each kind, as the sampler computed it when it branched on
    the kind at every call."""
    if kind == "constant":
        return float(params["ms"])
    if kind == "gaussian_truncated":
        return _reference_truncated_normal(rng, params["mean_ms"], params["std_ms"],
                                           params.get("min_ms", 0.0), params.get("max_ms"))
    if kind == "bimodal":
        comps = params["components"]
        comp = comps[0] if float(rng.random()) < comps[0]["weight"] else comps[1]
        return _reference_truncated_normal(rng, comp["mean_ms"], comp["std_ms"], 0.0, None)
    return float(math.exp(params["mu"] + params["sigma"] * float(rng.standard_normal())))


def factory_for(seed):
    return lambda label: rng_stream(seed, label)


class TestDistributions:
    def test_constant(self):
        sample_ms = draws(constant(8.58))
        assert sample_ms(rng_stream(1, "x")) == 8.58

    def test_truncated_gaussian_nonnegative(self):
        sample_ms = draws(gaussian(0.26, 0.11, min_ms=0.0))
        rng = rng_stream(2, "x")
        samples = [sample_ms(rng) for _ in range(5000)]
        assert min(samples) >= 0.0
        assert np.mean(samples) == pytest.approx(0.26, abs=0.02)

    def test_lognormal_solver_hits_moments(self):
        sample_ms = draws(lognormal(28.68, 23.22))
        rng = rng_stream(3, "x")
        samples = np.array([sample_ms(rng) for _ in range(200_000)])
        assert samples.min() > 0.0
        assert np.mean(samples) == pytest.approx(28.68, rel=0.02)
        assert np.std(samples, ddof=1) == pytest.approx(23.22, rel=0.05)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            sampler({"kind": "weird"})

    @pytest.mark.parametrize("case", [
        (constant(8), constant(8.0)),
        (gaussian(4.0, 12.0, max_ms=30.0), gaussian(4.0, 12.0, min_ms=0.0, max_ms=30.0)),
        # The mu and sigma of the lognormal with that mean and std.
        (lognormal(28.68, 23.22),
         {"kind": "lognormal", "mu": math.log(28.68) - math.log1p((23.22 / 28.68) ** 2) / 2.0,
          "sigma": math.sqrt(math.log1p((23.22 / 28.68) ** 2))}),
        (bimodal(), {"kind": "bimodal", "components": [
            {"mean_ms": 10.0, "std_ms": 2.0, "weight": 0.6},
            {"mean_ms": 28.0, "std_ms": 3.0, "weight": 0.4}]}),
    ], ids=lambda case: case[1]["kind"])
    def test_config_form_rebuilds_the_model(self, case):
        # A distribution as a config writes it resolves to its explicit
        # parameters, those that the sampler reads.
        form, explicit = case
        assert resolve_distribution(form, "d") == explicit

    @pytest.mark.parametrize("seed", [0, 5, 20240808])
    @pytest.mark.parametrize("dist", [
        constant(8.58),
        constant(3),
        gaussian(0.26, 0.11),
        gaussian(4.0, 12.0, max_ms=30.0),
        gaussian(1.0, 2.0),
        # Every draw misses [5, 5.1], so each one falls back to the clamp.
        gaussian(0.0, 0.01, min_ms=5.0, max_ms=5.1),
        lognormal(28.68, 23.22),
        bimodal(),
        bimodal(mean1_ms=1.0, std1_ms=5.0, weight1=0.3),
    ], ids=lambda d: d["kind"])
    def test_draws_equal_the_reference_formulas(self, dist, seed):
        params = resolved(dist)
        ref_rng, rng = rng_stream(seed, "draws"), rng_stream(seed, "draws")
        ref = [_reference_sample_ms(params["kind"], params, ref_rng).hex() for _ in range(3000)]
        sample_ms = sampler(params)
        got = [sample_ms(rng) for _ in range(3000)]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == ref

    def test_bad_truncation_bounds_rejected(self):
        with pytest.raises(ConfigError) as exc:
            resolved(gaussian(1.0, 0.1, min_ms=2.0, max_ms=1.0))
        assert exc.value.path == "d.max_ms"


class TestR2V:
    def test_constant_stage_boundaries(self):
        cfg = resolved_links(r2v={"ingest": constant(0.26), "adv": constant(28.68),
                                  "sense": constant(7.64)})["r2v"]
        link = R2VLink(cfg, factory_for(1))
        sched = link.transmit(0)
        assert sched.t_ingest_start == 0
        assert sched.t_ingest_done == ms_to_ns(0.26)
        assert sched.t_adv_done == ms_to_ns(0.26) + ms_to_ns(28.68)
        assert sched.t_sense_done == ms_to_ns(0.26) + ms_to_ns(28.68) + ms_to_ns(7.64)
        assert sched.t_sense_done == pytest.approx(ms_to_ns(36.58), abs=2)

    def test_all_zero_delivers_immediately(self):
        cfg = resolved_links(r2v={stage: constant(0.0) for stage in ("ingest", "adv", "sense")})
        link = R2VLink(cfg["r2v"], factory_for(1))
        assert link.transmit(12345).t_sense_done == 12345

    def test_default_adv_long_tail_character(self):
        link = R2VLink(shipped_links()["r2v"], factory_for(42))
        scheds = [link.transmit(0) for _ in range(2000)]
        adv = np.array([s.t_adv_done - s.t_ingest_done for s in scheds]) / 1e6
        assert np.mean(adv) == pytest.approx(28.68, rel=0.10)
        cv = np.std(adv, ddof=1) / np.mean(adv)
        assert 0.6 <= cv <= 1.0

    def test_never_negative_durations(self):
        link = R2VLink(shipped_links()["r2v"], factory_for(9))
        for _ in range(5000):
            s = link.transmit(0)
            assert 0 <= s.t_ingest_done <= s.t_adv_done <= s.t_sense_done


class TestPerturb:
    """The injector stage of ``V2RLink.transmit``, behind a zero base latency."""

    def test_passthrough(self):
        s = v2r_link(1, constant(0.0)).transmit(1000)
        assert not s.dropped and s.t_perturb_out == 1000

    def test_fixed_delay_40ms(self):
        s = v2r_link(1, constant(0.0), fixed_delay_ms=40.0).transmit(0)
        assert s.t_perturb_out == ms_to_ns(40.0)

    def test_certain_loss(self):
        link = v2r_link(1, constant(0.0), loss_probability=1.0)
        for _ in range(100):
            assert link.transmit(0).dropped

    def test_loss_draw_consumed_even_at_zero_probability(self):
        # Same seed, different loss settings -> same jitter values.
        jit = gaussian(5.0, 2.0)
        outs = {}
        for p in (0.0, 0.5):
            link = v2r_link(7, constant(0.0), jitter=jit, loss_probability=p,
                            reorder_allowed=True)
            vals = []
            for _ in range(50):
                s = link.transmit(0)
                vals.append(None if s.dropped else s.t_perturb_out)
            outs[p] = vals
        surviving = [(a, b) for a, b in zip(outs[0.0], outs[0.5]) if b is not None]
        assert surviving and all(a == b for a, b in surviving)
        assert None in outs[0.5]

    def test_fifo_clamp(self):
        link = v2r_link(1, constant(0.0))
        assert not link.transmit(500).fifo_clamped
        s = link.transmit(100)
        assert s.t_perturb_out == 500 and s.fifo_clamped


class TestV2R:
    def test_constant_base_latency(self):
        link = v2r_link(1, constant(8.58))
        s = link.transmit(0)
        assert s.t_deliver - s.t_perturb_in == ms_to_ns(8.58)

    def test_delay_is_additive_in_aperture(self):
        link = v2r_link(1, constant(8.58), fixed_delay_ms=40.0)
        s = link.transmit(0)
        assert s.t_deliver - s.t_perturb_in == ms_to_ns(48.58)

    def test_default_cv_band(self):
        link = V2RLink(shipped_links()["v2r"], factory_for(42))
        scheds = [link.transmit(i * ms_to_ns(20.0)) for i in range(2000)]
        dt = np.array([s.t_deliver - s.t_perturb_in for s in scheds]) / 1e6
        cv = np.std(dt, ddof=1) / np.mean(dt)
        assert 0.1 <= cv <= 0.2

    def test_fifo_deliveries(self):
        link = v2r_link(5, gaussian(8.0, 6.0))
        last = -1
        for i in range(2000):
            s = link.transmit(i * ms_to_ns(2.0))  # dense sends force crossings
            if not s.dropped:
                assert s.t_deliver >= last
                last = s.t_deliver

    def test_conservation_counts(self):
        link = v2r_link(11, constant(5.0), loss_probability=0.3)
        n = 2000
        scheds = [link.transmit(i * ms_to_ns(20.0)) for i in range(n)]
        delivered = [s for s in scheds if not s.dropped]
        dropped = n - len(delivered)
        assert all(s.t_deliver >= s.t_perturb_out >= s.t_perturb_in for s in delivered)
        assert 0.25 * n < dropped < 0.35 * n

    def test_dropped_schedule_has_no_delivery(self):
        link = v2r_link(2, constant(5.0), loss_probability=1.0)
        s = link.transmit(777)
        assert s.dropped and s.t_perturb_in == 777

    def test_reorder_allowed_disables_fifo_clamp(self):
        link = v2r_link(5, gaussian(8.0, 6.0), reorder_allowed=True)
        scheds = [link.transmit(i * ms_to_ns(2.0)) for i in range(2000)]
        deliveries = [s.t_deliver for s in scheds if not s.dropped]
        assert any(b < a for a, b in zip(deliveries, deliveries[1:]))
        assert not any(s.fifo_clamped for s in scheds)
