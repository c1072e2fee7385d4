import math

import numpy as np
import pytest

from hilbench.config import build_distribution
from hilbench.core import ms_to_ns, rng_stream
from hilbench.links import (
    PerturbationConfig,
    R2VConfig,
    R2VLink,
    StageLatencyModel,
    V2RConfig,
    V2RLink,
    default_r2v_config,
    default_v2r_config,
    perturb,
)


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
        m = StageLatencyModel.constant(8.58)
        assert m.sample_ms(rng_stream(1, "x")) == 8.58

    def test_truncated_gaussian_nonnegative(self):
        m = StageLatencyModel.gaussian_truncated(0.26, 0.11, min_ms=0.0)
        rng = rng_stream(2, "x")
        samples = [m.sample_ms(rng) for _ in range(5000)]
        assert min(samples) >= 0.0
        assert np.mean(samples) == pytest.approx(0.26, abs=0.02)

    def test_lognormal_solver_hits_moments(self):
        m = StageLatencyModel.lognormal_from_mean_std(28.68, 23.22)
        rng = rng_stream(3, "x")
        samples = np.array([m.sample_ms(rng) for _ in range(200_000)])
        assert samples.min() > 0.0
        assert np.mean(samples) == pytest.approx(28.68, rel=0.02)
        assert np.std(samples, ddof=1) == pytest.approx(23.22, rel=0.05)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StageLatencyModel("weird", {})

    @pytest.mark.parametrize("model", [
        StageLatencyModel.constant(8.58),
        StageLatencyModel.gaussian_truncated(4.0, 12.0, max_ms=30.0),
        StageLatencyModel.lognormal_from_mean_std(28.68, 23.22),
        StageLatencyModel.bimodal(),
    ], ids=lambda m: m.kind)
    def test_config_form_rebuilds_the_model(self, model):
        assert build_distribution(model.to_dict()) == model

    @pytest.mark.parametrize("seed", [0, 5, 20240808])
    @pytest.mark.parametrize("model", [
        StageLatencyModel.constant(8.58),
        StageLatencyModel("constant", {"ms": 3}),
        StageLatencyModel.gaussian_truncated(0.26, 0.11),
        StageLatencyModel.gaussian_truncated(4.0, 12.0, max_ms=30.0),
        StageLatencyModel("gaussian_truncated", {"mean_ms": 1.0, "std_ms": 2.0}),
        # Every draw misses [5, 5.1], so each one falls back to the clamp.
        StageLatencyModel.gaussian_truncated(0.0, 0.01, min_ms=5.0, max_ms=5.1),
        StageLatencyModel.lognormal_from_mean_std(28.68, 23.22),
        StageLatencyModel.bimodal(),
        StageLatencyModel.bimodal(mean1_ms=1.0, std1_ms=5.0, weight1=0.3),
    ], ids=lambda m: m.kind)
    def test_draws_equal_the_reference_formulas(self, model, seed):
        ref_rng, rng = rng_stream(seed, "draws"), rng_stream(seed, "draws")
        ref = [_reference_sample_ms(model.kind, model.params, ref_rng).hex() for _ in range(3000)]
        got = [model.sample_ms(rng) for _ in range(3000)]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == ref

    def test_bad_truncation_bounds_rejected(self):
        with pytest.raises(ValueError):
            StageLatencyModel.gaussian_truncated(1.0, 0.1, min_ms=2.0, max_ms=1.0)


class TestR2V:
    def test_constant_stage_boundaries(self):
        cfg = R2VConfig(
            ingest=StageLatencyModel.constant(0.26),
            adv=StageLatencyModel.constant(28.68),
            sense=StageLatencyModel.constant(7.64),
        )
        link = R2VLink(cfg, factory_for(1))
        sched = link.transmit(0)
        assert sched.t_ingest_start == 0
        assert sched.t_ingest_done == ms_to_ns(0.26)
        assert sched.t_adv_done == ms_to_ns(0.26) + ms_to_ns(28.68)
        assert sched.t_sense_done == ms_to_ns(0.26) + ms_to_ns(28.68) + ms_to_ns(7.64)
        assert sched.t_sense_done == pytest.approx(ms_to_ns(36.58), abs=2)

    def test_all_zero_delivers_immediately(self):
        cfg = R2VConfig(*[StageLatencyModel.constant(0.0)] * 3)
        link = R2VLink(cfg, factory_for(1))
        assert link.transmit(12345).t_sense_done == 12345

    def test_default_adv_long_tail_character(self):
        link = R2VLink(default_r2v_config(), factory_for(42))
        scheds = [link.transmit(0) for _ in range(2000)]
        adv = np.array([s.t_adv_done - s.t_ingest_done for s in scheds]) / 1e6
        assert np.mean(adv) == pytest.approx(28.68, rel=0.10)
        cv = np.std(adv, ddof=1) / np.mean(adv)
        assert 0.6 <= cv <= 1.0

    def test_never_negative_durations(self):
        link = R2VLink(default_r2v_config(), factory_for(9))
        for _ in range(5000):
            s = link.transmit(0)
            assert 0 <= s.t_ingest_done <= s.t_adv_done <= s.t_sense_done


class TestPerturb:
    def test_passthrough(self):
        cfg = PerturbationConfig()
        out = perturb(cfg, 1000, rng_stream(1, "l"), rng_stream(1, "j"))
        assert not out.dropped and out.t_out_ns == 1000

    def test_fixed_delay_40ms(self):
        cfg = PerturbationConfig(fixed_delay_ms=40.0)
        out = perturb(cfg, 0, rng_stream(1, "l"), rng_stream(1, "j"))
        assert out.t_out_ns == ms_to_ns(40.0)

    def test_certain_loss(self):
        cfg = PerturbationConfig(loss_probability=1.0)
        rng = rng_stream(1, "l")
        for _ in range(100):
            assert perturb(cfg, 0, rng, rng_stream(1, "j")).dropped

    def test_loss_draw_consumed_even_at_zero_probability(self):
        # Same seed, different loss settings -> same jitter values.
        jit = StageLatencyModel.gaussian_truncated(5.0, 2.0)
        outs = {}
        for p in (0.0, 0.5):
            cfg = PerturbationConfig(jitter=jit, loss_probability=p)
            loss_rng, jit_rng = rng_stream(7, "loss"), rng_stream(7, "jit")
            vals = []
            for _ in range(50):
                o = perturb(cfg, 0, loss_rng, jit_rng)
                vals.append(None if o.dropped else o.t_out_ns)
            outs[p] = vals
        surviving = [(a, b) for a, b in zip(outs[0.0], outs[0.5]) if b is not None]
        assert surviving and all(a == b for a, b in surviving)

    def test_fifo_clamp(self):
        cfg = PerturbationConfig(fixed_delay_ms=0.0)
        out = perturb(cfg, 100, rng_stream(1, "l"), rng_stream(1, "j"), last_out_ns=500)
        assert out.t_out_ns == 500 and out.clamped


class TestV2R:
    def test_constant_base_latency(self):
        cfg = V2RConfig(base=StageLatencyModel.constant(8.58))
        link = V2RLink(cfg, factory_for(1))
        s = link.transmit(0)
        assert s.t_deliver - s.t_perturb_in == ms_to_ns(8.58)

    def test_delay_is_additive_in_aperture(self):
        cfg = V2RConfig(base=StageLatencyModel.constant(8.58),
                        perturbation=PerturbationConfig(fixed_delay_ms=40.0))
        link = V2RLink(cfg, factory_for(1))
        s = link.transmit(0)
        assert s.t_deliver - s.t_perturb_in == ms_to_ns(48.58)

    def test_default_cv_band(self):
        link = V2RLink(default_v2r_config(), factory_for(42))
        scheds = [link.transmit(i * ms_to_ns(20.0)) for i in range(2000)]
        dt = np.array([s.t_deliver - s.t_perturb_in for s in scheds]) / 1e6
        cv = np.std(dt, ddof=1) / np.mean(dt)
        assert 0.1 <= cv <= 0.2

    def test_fifo_deliveries(self):
        cfg = V2RConfig(base=StageLatencyModel.gaussian_truncated(8.0, 6.0),
                        perturbation=PerturbationConfig())
        link = V2RLink(cfg, factory_for(5))
        last = -1
        for i in range(2000):
            s = link.transmit(i * ms_to_ns(2.0))  # dense sends force crossings
            if not s.dropped:
                assert s.t_deliver >= last
                last = s.t_deliver

    def test_conservation_counts(self):
        cfg = V2RConfig(base=StageLatencyModel.constant(5.0),
                        perturbation=PerturbationConfig(loss_probability=0.3))
        link = V2RLink(cfg, factory_for(11))
        n = 2000
        scheds = [link.transmit(i * ms_to_ns(20.0)) for i in range(n)]
        delivered = [s for s in scheds if not s.dropped]
        dropped = n - len(delivered)
        assert all(s.t_deliver >= s.t_perturb_out >= s.t_perturb_in for s in delivered)
        assert 0.25 * n < dropped < 0.35 * n

    def test_dropped_schedule_has_no_delivery(self):
        cfg = V2RConfig(base=StageLatencyModel.constant(5.0),
                        perturbation=PerturbationConfig(loss_probability=1.0))
        link = V2RLink(cfg, factory_for(2))
        s = link.transmit(777)
        assert s.dropped and s.t_perturb_in == 777

    def test_reorder_allowed_disables_fifo_clamp(self):
        cfg = V2RConfig(base=StageLatencyModel.gaussian_truncated(8.0, 6.0),
                        perturbation=PerturbationConfig(reorder_allowed=True))
        link = V2RLink(cfg, factory_for(5))
        scheds = [link.transmit(i * ms_to_ns(2.0)) for i in range(2000)]
        deliveries = [s.t_deliver for s in scheds if not s.dropped]
        assert any(b < a for a, b in zip(deliveries, deliveries[1:]))
        assert not any(s.fifo_clamped for s in scheds)
