"""Data-link models: the pose synchronization pipeline and the command link.

The real-to-virtual (R2V) direction is a three-stage pipeline
(ingest -> advance -> sense) whose per-stage durations are drawn from
configurable distributions; it never drops samples.  The virtual-to-real
(V2R) direction carries commands through a programmable perturbation injector
(fixed delay, jitter, loss) followed by the base link latency.

Links return schedules (timestamps for every stage boundary); whoever drives
the run turns the schedule into events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ms_to_ns


@dataclass(frozen=True)
class StageLatencyModel:
    """One stage-duration distribution; every sample is >= 0 ms.

    kinds:
      constant            params: ms
      gaussian_truncated  params: mean_ms, std_ms, min_ms (default 0), max_ms (optional)
      lognormal           params: mu, sigma  (of the underlying normal, ms scale)
    """

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind == "constant":
            if self.params["ms"] < 0.0:
                raise ValueError("constant latency must be >= 0")
        elif self.kind == "gaussian_truncated":
            lo = self.params.get("min_ms", 0.0)
            hi = self.params.get("max_ms")
            if lo < 0.0:
                raise ValueError("truncation lower bound must be >= 0")
            if hi is not None and hi < lo:
                raise ValueError("truncation bounds out of order")
        elif self.kind == "lognormal":
            if self.params["sigma"] < 0.0:
                raise ValueError("lognormal sigma must be >= 0")
        else:
            raise ValueError(f"unknown latency distribution {self.kind!r}")

    def sample_ms(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return float(self.params["ms"])
        if self.kind == "gaussian_truncated":
            mean = self.params["mean_ms"]
            std = self.params["std_ms"]
            lo = self.params.get("min_ms", 0.0)
            hi = self.params.get("max_ms")
            for _ in range(100):
                v = mean + std * float(rng.standard_normal())
                if v >= lo and (hi is None or v <= hi):
                    return v
            # Pathological truncation: fall back to clamping.
            return min(max(mean, lo), hi) if hi is not None else max(mean, lo)
        # lognormal
        return float(math.exp(self.params["mu"] + self.params["sigma"] * float(rng.standard_normal())))

    @staticmethod
    def constant(ms: float) -> "StageLatencyModel":
        return StageLatencyModel("constant", {"ms": float(ms)})

    @staticmethod
    def gaussian_truncated(mean_ms: float, std_ms: float, min_ms: float = 0.0,
                           max_ms: float | None = None) -> "StageLatencyModel":
        p = {"mean_ms": float(mean_ms), "std_ms": float(std_ms), "min_ms": float(min_ms)}
        if max_ms is not None:
            p["max_ms"] = float(max_ms)
        return StageLatencyModel("gaussian_truncated", p)

    @staticmethod
    def lognormal_from_mean_std(mean_ms: float, std_ms: float) -> "StageLatencyModel":
        """Solve (mu, sigma) so the lognormal has the requested mean and std."""
        if mean_ms <= 0.0:
            raise ValueError("lognormal mean must be positive")
        cv2 = (std_ms / mean_ms) ** 2
        sigma2 = math.log1p(cv2)
        mu = math.log(mean_ms) - sigma2 / 2.0
        return StageLatencyModel("lognormal", {"mu": mu, "sigma": math.sqrt(sigma2)})

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{k: float(v) for k, v in self.params.items()}}


@dataclass(frozen=True)
class R2VConfig:
    ingest: StageLatencyModel
    adv: StageLatencyModel
    sense: StageLatencyModel
    sample_period_ms: float = 20.0

    def __post_init__(self):
        if self.sample_period_ms <= 0.0:
            raise ValueError("sample period must be positive")


@dataclass(frozen=True)
class PerturbationConfig:
    fixed_delay_ms: float = 0.0
    jitter: StageLatencyModel | None = None
    loss_probability: float = 0.0
    reorder_allowed: bool = False

    def __post_init__(self):
        if self.fixed_delay_ms < 0.0:
            raise ValueError("fixed delay must be >= 0")
        if not (0.0 <= self.loss_probability <= 1.0):
            raise ValueError("loss probability must be within [0, 1]")


@dataclass(frozen=True)
class V2RConfig:
    base: StageLatencyModel
    perturbation: PerturbationConfig = field(default_factory=PerturbationConfig)


@dataclass(frozen=True)
class R2VSchedule:
    """Stage boundary times for one pose sample's trip into the virtual domain."""

    t_ingest_start: int
    t_ingest_done: int
    t_adv_done: int
    t_sense_done: int


class R2VLink:
    """Pose synchronization pipeline; independent per-sample timing, no drops."""

    def __init__(self, cfg: R2VConfig, stream_factory) -> None:
        self.cfg = cfg
        self._ingest_rng = stream_factory("r2v.ingest")
        self._adv_rng = stream_factory("r2v.adv")
        self._sense_rng = stream_factory("r2v.sense")

    def transmit(self, t_now_ns: int) -> R2VSchedule:
        d_ingest = ms_to_ns(self.cfg.ingest.sample_ms(self._ingest_rng))
        d_adv = ms_to_ns(self.cfg.adv.sample_ms(self._adv_rng))
        d_sense = ms_to_ns(self.cfg.sense.sample_ms(self._sense_rng))
        t0 = int(t_now_ns)
        return R2VSchedule(
            t_ingest_start=t0,
            t_ingest_done=t0 + d_ingest,
            t_adv_done=t0 + d_ingest + d_adv,
            t_sense_done=t0 + d_ingest + d_adv + d_sense,
        )


@dataclass(frozen=True)
class PerturbOutcome:
    dropped: bool
    t_out_ns: int = 0
    clamped: bool = False


def perturb(cfg: PerturbationConfig, t_now_ns: int, loss_rng, jitter_rng,
            last_out_ns: int | None = None) -> PerturbOutcome:
    """Apply the injector to one command at ``t_now_ns``.

    Both the loss and jitter draws are consumed for every command (even when
    the command is dropped or loss_probability is 0), so changing the loss
    setting never reshuffles the timing of the commands that survive.  When
    reordering is disallowed the output time is clamped to the previous
    output time.
    """
    jitter_ms = cfg.jitter.sample_ms(jitter_rng) if cfg.jitter is not None else 0.0
    u = float(loss_rng.random())
    if u < cfg.loss_probability:
        return PerturbOutcome(dropped=True)
    t_out = int(t_now_ns) + ms_to_ns(cfg.fixed_delay_ms) + ms_to_ns(jitter_ms)
    clamped = False
    if not cfg.reorder_allowed and last_out_ns is not None and t_out < last_out_ns:
        t_out = last_out_ns
        clamped = True
    return PerturbOutcome(dropped=False, t_out_ns=t_out, clamped=clamped)


@dataclass(frozen=True)
class V2RSchedule:
    """Stage boundary times for one command's trip to the actuator."""

    dropped: bool
    t_perturb_in: int
    t_perturb_out: int = 0
    t_deliver: int = 0
    fifo_clamped: bool = False


class V2RLink:
    """Command link: perturbation injector then base latency.

    With reordering disallowed (the default) deliveries are FIFO: a delivery
    time is clamped up to the previous one when the draws would cross.  The
    clamp is flagged because it stretches the measured link latency beyond
    the sum of its parts for that command.
    """

    def __init__(self, cfg: V2RConfig, stream_factory) -> None:
        self.cfg = cfg
        self._base_rng = stream_factory("v2r.base")
        self._loss_rng = stream_factory("perturb.loss")
        self._jitter_rng = stream_factory("perturb.jitter")
        self._last_perturb_out: int | None = None
        self._last_deliver: int | None = None

    def transmit(self, t_now_ns: int) -> V2RSchedule:
        out = perturb(self.cfg.perturbation, t_now_ns, self._loss_rng,
                      self._jitter_rng, self._last_perturb_out)
        if out.dropped:
            return V2RSchedule(dropped=True, t_perturb_in=int(t_now_ns))
        self._last_perturb_out = out.t_out_ns
        t_deliver = out.t_out_ns + ms_to_ns(self.cfg.base.sample_ms(self._base_rng))
        clamped = out.clamped
        if not self.cfg.perturbation.reorder_allowed and self._last_deliver is not None \
                and t_deliver < self._last_deliver:
            t_deliver = self._last_deliver
            clamped = True
        self._last_deliver = t_deliver
        return V2RSchedule(
            dropped=False,
            t_perturb_in=int(t_now_ns),
            t_perturb_out=out.t_out_ns,
            t_deliver=t_deliver,
            fifo_clamped=clamped,
        )


def default_r2v_config(sample_period_ms: float = 20.0) -> R2VConfig:
    """Shipped R2V stage distributions.

    Ingest and sense are tight truncated Gaussians; the simulator-advancement
    stage is lognormal (long-tailed), parameterized to the characterized
    per-stage means and spreads.
    """
    return R2VConfig(
        ingest=StageLatencyModel.gaussian_truncated(0.26, 0.11, min_ms=0.0),
        adv=StageLatencyModel.lognormal_from_mean_std(28.68, 23.22),
        sense=StageLatencyModel.gaussian_truncated(7.64, 2.66, min_ms=0.0),
        sample_period_ms=sample_period_ms,
    )


def default_v2r_config() -> V2RConfig:
    return V2RConfig(
        base=StageLatencyModel.gaussian_truncated(8.58, 1.2, min_ms=0.0),
        perturbation=PerturbationConfig(),
    )
