"""Deterministic load generation and trace replay.

Three pieces:

* :func:`generate_trace` — a seeded trace of timed requests.  Arrival
  processes: ``uniform`` (Poisson), ``diurnal`` (Poisson with a
  sinusoidally modulated rate — the day/night cycle compressed to
  ``period_s``) and ``bursty`` (Poisson with the middle third
  accelerated by ``burst_factor`` — the same window the fault plane's
  ``serving.burst`` site compresses in any pattern).  Layer/hardware
  payloads are drawn from a workload pool (default: the VGG-16 conv
  layers on two Paper II configurations) by the same seeded generator,
  so a (seed, spec) pair names one exact trace forever.

* :func:`routed_replay` / :func:`replay` — a loop that feeds a trace's
  arrival instants to the live server's batching core
  (:class:`~repro.serve.batcher.BatchCore`: admission, per-shard
  micro-batches flushed on size or age, ledger) and prices every flush
  on modelled time.  :func:`routed_replay` hands each flush to a
  :class:`~repro.serve.router.ReplicaRouter`; :func:`replay` to one
  service behind ``servers`` FCFS replicas, each request occupying a
  replica for its engine-priced ``response.seconds``.  Only the pricing
  differs from the live ``ServeApp``, which reads the wall clock around
  the backend call, so a 10k-request overload run takes milliseconds
  and two runs produce bit-identical responses, timelines and
  :class:`~repro.serve.middleware.ServingStats`.

* :class:`FixedServiceTime` — the constant-service backend that turns
  :func:`replay` into an M/D/c queue, which is how the serving studies
  (``serving-latency``, the design recommender) price a replica whose
  per-image time the analytical model predicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapreplace
from typing import Sequence

import numpy as np

from repro import faults
from repro.errors import ServeError
from repro.nn.layer import ConvSpec
from repro.nn.models.vgg16 import vgg16_conv_specs
from repro.serve.batcher import BatchCore, TimedRequest
from repro.serve.middleware import ServingStats
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.router import ReplicaRouter, RoutedOutcome
from repro.serve.service import PredictionService
from repro.simulator.hwconfig import HardwareConfig
from repro.utils.prng import make_rng

#: Arrival patterns :func:`generate_trace` knows how to draw.
PATTERNS = ("uniform", "diurnal", "bursty")


@dataclass(frozen=True)
class TraceSpec:
    """A reproducible description of one load trace."""

    pattern: str = "bursty"
    n_requests: int = 1000
    rate_rps: float = 100.0
    seed: int = 0
    #: bursty: arrival-rate multiplier over the middle third of the trace.
    burst_factor: float = 4.0
    #: diurnal: rate(t) = rate_rps * (1 + amplitude * sin(2*pi*t/period)).
    diurnal_period_s: float = 60.0
    diurnal_amplitude: float = 0.6

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ServeError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.n_requests < 1:
            raise ServeError("n_requests must be >= 1")
        if self.rate_rps <= 0:
            raise ServeError("rate_rps must be positive")
        if self.burst_factor < 1.0:
            raise ServeError("burst_factor must be >= 1")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServeError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_s <= 0:
            raise ServeError("diurnal_period_s must be positive")


def default_workload() -> list[tuple[ConvSpec, HardwareConfig]]:
    """The default payload pool: VGG-16 convs x two Paper II configs."""
    specs = vgg16_conv_specs()
    hws = [HardwareConfig.paper2_rvv(512, 1.0),
           HardwareConfig.paper2_rvv(512, 2.0)]
    return [(s, hw) for hw in hws for s in specs]


def _arrival_times(spec: TraceSpec) -> list[float]:
    rng = make_rng(spec.seed)
    n = spec.n_requests
    if spec.pattern == "diurnal":
        # thinning-free sequential draw: each gap uses the rate at the
        # current instant, which is exact enough for a load test and
        # keeps generation O(n) and bit-deterministic
        gaps = np.empty(n)
        t = 0.0
        for i in range(n):
            rate = spec.rate_rps * (
                1.0 + spec.diurnal_amplitude
                * math.sin(2.0 * math.pi * t / spec.diurnal_period_s)
            )
            gaps[i] = rng.exponential(1.0 / rate)
            t += gaps[i]
    else:
        gaps = rng.exponential(1.0 / spec.rate_rps, n)
    if spec.pattern == "bursty":
        start, stop, factor = faults.FaultPlan(
            serving_burst=spec.burst_factor
        ).burst_window(n)
        gaps[start:stop] /= factor
    plan = faults.active_plan()
    if plan is not None:
        start, stop, factor = plan.burst_window(n)
        if factor > 1.0:
            gaps[start:stop] /= factor
            faults.mark_injected("serving.burst")
    return [float(t) for t in gaps.cumsum()]


def generate_trace(
    spec: TraceSpec,
    workload: Sequence[tuple[ConvSpec, HardwareConfig]] | None = None,
) -> list[TimedRequest]:
    """The seeded trace: ``n_requests`` timed requests, fully determined."""
    pool = list(workload) if workload is not None else default_workload()
    if not pool:
        raise ServeError("workload pool must not be empty")
    arrivals = _arrival_times(spec)
    rng = make_rng(spec.seed + 1)  # payload stream independent of gaps
    picks = rng.integers(0, len(pool), size=spec.n_requests)
    out = []
    for i, (arrival, pick) in enumerate(zip(arrivals, picks)):
        layer, hw = pool[int(pick)]
        out.append(
            TimedRequest(
                arrival=arrival,
                request=ServeRequest(spec=layer, hw=hw, id=f"r-{i}"),
            )
        )
    return out


def _feed(core: BatchCore, trace: Sequence[TimedRequest]) -> list[str]:
    """Feed ``trace`` to ``core`` in arrival order, then flush every open
    batch at its due instant.  Returns the shed request ids."""
    shed_ids: list[str] = []
    arrive = core.arrive
    for timed in sorted(trace, key=lambda t: t.arrival):
        if not arrive(timed):
            shed_ids.append(timed.request.id)
    core.flush_due(math.inf)
    return shed_ids


# ---------------------------------------------------------------------- #
# single-service replay
# ---------------------------------------------------------------------- #
class FixedServiceTime:
    """A backend whose every response is ``ok`` after ``seconds``.

    Replaying a trace against it with ``max_batch=1`` is an M/D/c queue
    over ``servers`` replicas of a model whose per-image time is known
    (e.g. from the co-location model).
    """

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ServeError(f"service time must be positive, got {seconds}")
        self.seconds = seconds

    def handle_batch(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        return [ServeResponse(id=r.id, seconds=self.seconds) for r in requests]

    def snapshot(self) -> dict:
        return {"seconds": self.seconds}


@dataclass
class ReplayResult:
    """Everything one replay produced, in trace order."""

    #: response per admitted request, in admission (flush) order.
    responses: list[ServeResponse]
    #: request ids shed by admission control.
    shed_ids: list[str]
    stats: ServingStats
    service_snapshot: dict = field(default_factory=dict)

    def responses_by_id(self) -> dict[str, ServeResponse]:
        return {r.id: r for r in self.responses}


def replay(
    service: PredictionService | FixedServiceTime,
    trace: Sequence[TimedRequest],
    servers: int = 1,
    queue_limit: int | None = None,
    slo_s: float | None = None,
    max_batch: int = 32,
    max_wait_s: float = 0.0,
) -> ReplayResult:
    """Replay a trace through one service on modelled time.

    One shard; each flush is one ``service.handle_batch`` call, and
    dispatch is FCFS over ``servers`` replicas: a request starts at
    ``max(flush instant, earliest free replica)`` and occupies that
    replica for ``response.seconds``; an errored response finishes the
    instant it starts.
    """
    if servers < 1:
        raise ServeError(f"servers must be >= 1, got {servers}")
    free_at = [0.0] * servers  # a heap of replica free instants
    responses: list[ServeResponse] = []

    def serve(
        batch: list[TimedRequest], at: float
    ) -> list[tuple[ServeResponse, float, float]]:
        out = []
        for response in service.handle_batch([t.request for t in batch]):
            start = max(at, free_at[0])
            finish = start + response.seconds if response.status == "ok" else start
            heapreplace(free_at, finish)
            out.append((response, start, finish))
            responses.append(response)
        return out

    core = BatchCore(serve, None, queue_limit, slo_s, max_batch, max_wait_s)
    shed_ids = _feed(core, trace)
    return ReplayResult(
        responses=responses,
        shed_ids=shed_ids,
        stats=core.ledger.stats(servers=servers),
        service_snapshot=service.snapshot(),
    )


# ---------------------------------------------------------------------- #
# routed replay
# ---------------------------------------------------------------------- #
@dataclass
class RoutedReplayResult:
    """Everything one routed replay produced, in admission order."""

    #: response per admitted request, in admission (flush) order.
    responses: list[ServeResponse]
    #: full routing provenance per admitted request (same order).
    outcomes: list[RoutedOutcome]
    #: request ids shed by admission control.
    shed_ids: list[str]
    stats: ServingStats
    #: the router's classification counters (:class:`RouterStats` dict).
    router_stats: dict = field(default_factory=dict)
    router_snapshot: dict = field(default_factory=dict)

    def responses_by_id(self) -> dict[str, ServeResponse]:
        return {r.id: r for r in self.responses}

    def conserved(self) -> bool:
        """The routed conservation law: every admitted request lands in
        exactly one completion class (see :class:`RouterStats`)."""
        rs = self.router_stats
        admitted = len(self.responses)
        return (
            admitted
            == rs["completed_direct"] + rs["completed_failover"]
            + rs["completed_hedge"] + rs["deadline_misses"] + rs["unrouted"]
        )


def routed_replay(
    router: ReplicaRouter,
    trace: Sequence[TimedRequest],
    queue_limit: int | None = None,
    slo_s: float | None = None,
    max_batch: int = 32,
    max_wait_s: float = 0.0,
) -> RoutedReplayResult:
    """Replay a trace through a replica pool on modelled time.

    Arrivals shard by hardware configuration and each flush is one
    :meth:`~repro.serve.router.ReplicaRouter.route_priced` call, where
    the router's health/retry/hedge machinery and the fault plane's
    ``replica.*`` sites decide which replica serves and when it finishes.
    Replica-side backlog counts toward admission depth, so replica
    outages backpressure the front door.  Everything is driven by seeded
    hashes on modelled time: two processes replaying the same (trace,
    router config, fault plan) produce bit-identical results.
    """
    outcomes: list[RoutedOutcome] = []

    def serve(
        batch: list[TimedRequest], at: float
    ) -> list[tuple[ServeResponse, float, float]]:
        router.run_probes(at)
        routed = router.route_priced(
            [(t.arrival, t.request) for t in batch], at
        )
        outcomes.extend(routed)
        return [(o.response, o.start, o.finish) for o in routed]

    core = BatchCore(
        serve, router.shard_key, queue_limit, slo_s, max_batch, max_wait_s
    )
    shed_ids = _feed(core, trace)
    return RoutedReplayResult(
        responses=[o.response for o in outcomes],
        outcomes=outcomes,
        shed_ids=shed_ids,
        stats=core.ledger.stats(servers=len(router.replicas)),
        router_stats=router.stats.as_dict(),
        router_snapshot=router.snapshot(),
    )
