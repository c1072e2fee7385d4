"""Data-link models: the pose synchronization pipeline and the command link.

The real-to-virtual (R2V) direction is a three-stage pipeline
(ingest -> advance -> sense) whose per-stage durations are drawn from
configurable distributions; it never drops samples.  The virtual-to-real
(V2R) direction carries commands through a programmable perturbation injector
(fixed delay, jitter, loss) followed by the base link latency.

Each link reads its resolved config section, as ``config.resolve_run_config``
echoes it.  ``sampler`` turns a resolved latency distribution into the
``sample_ms(rng)`` closure behind every latency draw of a run, the
controller's included.

Links return schedules (timestamps for every stage boundary); whoever drives
the run turns the schedule into events.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .core import ms_to_ns


def _truncated_normal(rng: np.random.Generator, mean: float, std: float, lo: float,
                      hi: float | None) -> float:
    """A normal draw redrawn until it falls within [lo, hi] (hi None: no upper
    bound); after 100 misses, the mean clamped into the bounds."""
    for _ in range(100):
        v = mean + std * float(rng.standard_normal())
        if v >= lo and (hi is None or v <= hi):
            return v
    # Pathological truncation: fall back to clamping.
    return min(max(mean, lo), hi) if hi is not None else max(mean, lo)


def sampler(dist: dict, kind_key: str = "kind") -> Callable[[np.random.Generator], float]:
    """``sample_ms(rng)`` for one resolved latency distribution: one draw in ms
    from ``rng``, always >= 0.  ``kind_key`` names the field that holds the
    kind (``"mode"`` for ``sut.latency``).  The sampler of the kind is picked,
    and its parameters read, once.

    kinds:
      constant            ms
      gaussian_truncated  mean_ms, std_ms, min_ms, max_ms (optional)
      lognormal           mu, sigma  (of the underlying normal, ms scale)
      bimodal             components, two {mean_ms, std_ms, weight} dicts
                          whose weights sum to 1; each a Gaussian truncated at 0
    """
    kind = dist[kind_key]
    if kind == "constant":
        ms = dist["ms"]
        return lambda rng: ms
    if kind == "gaussian_truncated":
        mean, std, lo, hi = dist["mean_ms"], dist["std_ms"], dist["min_ms"], dist.get("max_ms")
        return lambda rng: _truncated_normal(rng, mean, std, lo, hi)
    if kind == "lognormal":
        mu, sigma = dist["mu"], dist["sigma"]
        return lambda rng: math.exp(mu + sigma * float(rng.standard_normal()))
    if kind == "bimodal":
        comps = dist["components"]
        w0 = comps[0]["weight"]
        (mean0, std0), (mean1, std1) = ((c["mean_ms"], c["std_ms"]) for c in comps)

        def sample(rng):
            if float(rng.random()) < w0:
                return _truncated_normal(rng, mean0, std0, 0.0, None)
            return _truncated_normal(rng, mean1, std1, 0.0, None)
        return sample
    raise ValueError(f"unknown latency distribution {kind!r}")


class R2VSchedule(NamedTuple):
    """Stage boundary times for one pose sample's trip into the virtual domain."""

    t_ingest_start: int
    t_ingest_done: int
    t_adv_done: int
    t_sense_done: int


class R2VLink:
    """Pose synchronization pipeline; independent per-sample timing, no drops."""

    def __init__(self, cfg: dict, stream_factory) -> None:
        """``cfg``: the resolved ``links.r2v`` section."""
        self._ingest = sampler(cfg["ingest"])
        self._adv = sampler(cfg["adv"])
        self._sense = sampler(cfg["sense"])
        self._ingest_rng = stream_factory("r2v.ingest")
        self._adv_rng = stream_factory("r2v.adv")
        self._sense_rng = stream_factory("r2v.sense")

    def transmit(self, t_now_ns: int) -> R2VSchedule:
        d_ingest = ms_to_ns(self._ingest(self._ingest_rng))
        d_adv = ms_to_ns(self._adv(self._adv_rng))
        d_sense = ms_to_ns(self._sense(self._sense_rng))
        t0 = int(t_now_ns)
        # (t_ingest_start, t_ingest_done, t_adv_done, t_sense_done)
        return tuple.__new__(R2VSchedule, (t0, t0 + d_ingest, t0 + d_ingest + d_adv,
                                           t0 + d_ingest + d_adv + d_sense))


class V2RSchedule(NamedTuple):
    """Stage boundary times for one command's trip to the actuator."""

    dropped: bool
    t_perturb_in: int
    t_perturb_out: int = 0
    t_deliver: int = 0
    fifo_clamped: bool = False


class V2RLink:
    """Command link: perturbation injector then base latency.

    The injector draws the jitter and then the loss of every command, even
    when the command is dropped or ``loss_probability`` is 0, so changing the
    loss setting never reshuffles the timing of the commands that survive.  A
    surviving command leaves the injector after the fixed delay plus its
    jitter, and is delivered after a draw of the base latency.

    With reordering disallowed (the default) both stages are FIFO: a
    command's injector output time and its delivery time are each clamped up
    to the previous command's when the draws would cross.  The clamp is
    flagged because it stretches the measured link latency beyond the sum of
    its parts for that command.
    """

    def __init__(self, cfg: dict, stream_factory) -> None:
        """``cfg``: the resolved ``links.v2r`` section."""
        pert = cfg["perturbation"]
        self._jitter = sampler(pert["jitter"]) if pert["jitter"] is not None else None
        self._loss_probability = pert["loss_probability"]
        self._fixed_delay_ns = ms_to_ns(pert["fixed_delay_ms"])
        self._fifo = not pert["reorder_allowed"]
        self._base = sampler(cfg["base"])
        self._base_rng = stream_factory("v2r.base")
        self._loss_rng = stream_factory("perturb.loss")
        self._jitter_rng = stream_factory("perturb.jitter")
        self._last_perturb_out: int | None = None
        self._last_deliver: int | None = None

    def transmit(self, t_now_ns: int) -> V2RSchedule:
        t_in = int(t_now_ns)
        jitter_ms = self._jitter(self._jitter_rng) if self._jitter is not None else 0.0
        if float(self._loss_rng.random()) < self._loss_probability:
            # (dropped, t_perturb_in, t_perturb_out, t_deliver, fifo_clamped)
            return tuple.__new__(V2RSchedule, (True, t_in, 0, 0, False))
        t_out = t_in + self._fixed_delay_ns + ms_to_ns(jitter_ms)
        clamped = False
        if self._fifo and self._last_perturb_out is not None and t_out < self._last_perturb_out:
            t_out = self._last_perturb_out
            clamped = True
        self._last_perturb_out = t_out
        t_deliver = t_out + ms_to_ns(self._base(self._base_rng))
        if self._fifo and self._last_deliver is not None and t_deliver < self._last_deliver:
            t_deliver = self._last_deliver
            clamped = True
        self._last_deliver = t_deliver
        return tuple.__new__(V2RSchedule, (False, t_in, t_out, t_deliver, clamped))
