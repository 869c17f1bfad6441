"""A real async serving layer over the co-design stack.

``repro-serve`` is an asyncio service that answers algorithm-selection
queries (which convolution algorithm should this layer use on this
hardware, and what will it cost?) from the trained predictor, with an
engine-backed fallback through the shared content-addressed memo cache,
micro-batching, and overload middleware — admission control, shedding,
SLO accounting, a circuit breaker.

The endpoint also survives replica failure:
:mod:`repro.serve.router` runs N service replicas behind one
consistent-hash front end (``repro-serve --replicas 4``) with
per-replica health tracking (:mod:`repro.serve.health`), deadline
budgets, retry-on-a-different-replica, optional request hedging and
graceful drain/rejoin — all deterministic under the fault plane's
``replica.*``/``probe.drop`` sites.

Live serving and load testing share one batching core,
:class:`~repro.serve.batcher.BatchCore` (admission, per-shard
micro-batches flushed on size or age, the serving ledger).  The server
drives it from the event loop and prices a flush on the wall clock;
:mod:`repro.serve.loadgen` generates seeded uniform/diurnal/bursty traces
and drives it from their arrival instants against the in-process service
(or a whole replica pool, :func:`routed_replay`), pricing each flush on
modelled time, which is how the integration suite
(``tests/test_serve_integration.py``, ``tests/test_serve_router.py``)
pins response parity, SLO safety under overload and failover behavior
deterministically.  Over a :class:`FixedServiceTime` backend the same
replay is the M/D/c queue behind the serving studies
(``serving-latency``).  See ``docs/SERVING.md``.
"""

from repro.serve.batcher import BatchCore, MicroBatcher, TimedRequest
from repro.serve.health import ReplicaHealth
from repro.serve.loadgen import (
    FixedServiceTime,
    ReplayResult,
    RoutedReplayResult,
    TraceSpec,
    default_workload,
    generate_trace,
    replay,
    routed_replay,
)
from repro.serve.middleware import (
    AdmissionController,
    CircuitBreaker,
    RequestRecord,
    ServingLedger,
    ServingStats,
)
from repro.serve.protocol import (
    ServeRequest,
    ServeResponse,
    error_response,
    shed_response,
)
from repro.serve.router import (
    InProcessReplica,
    ReplicaHandle,
    ReplicaRouter,
    RoutedOutcome,
    RouterStats,
)
from repro.serve.server import AsyncServeServer, ServeApp, main, stats_dict
from repro.serve.service import FALLBACK_POLICIES, PredictionService

__all__ = [
    "AdmissionController",
    "AsyncServeServer",
    "BatchCore",
    "CircuitBreaker",
    "FALLBACK_POLICIES",
    "FixedServiceTime",
    "InProcessReplica",
    "MicroBatcher",
    "PredictionService",
    "ReplayResult",
    "ReplicaHandle",
    "ReplicaHealth",
    "ReplicaRouter",
    "RequestRecord",
    "RoutedOutcome",
    "RoutedReplayResult",
    "RouterStats",
    "ServeApp",
    "ServeRequest",
    "ServeResponse",
    "ServingLedger",
    "ServingStats",
    "TimedRequest",
    "TraceSpec",
    "default_workload",
    "error_response",
    "generate_trace",
    "main",
    "replay",
    "routed_replay",
    "shed_response",
    "stats_dict",
]
