"""Overload policies and run accounting shared by the server and replay.

Free-standing objects: queue-bounded admission control, a
consecutive-failure circuit breaker (consulted by the service), and
:class:`ServingLedger`, which collects per-request timelines and renders
a run as one :class:`ServingStats` aggregate.  Admission and the ledger
are driven by the batching core of :mod:`repro.serve.batcher`, whether
the run is live (``ServeApp``) or a trace replay
(:mod:`repro.serve.loadgen`), so dashboards and invariant checks
(``offered == admitted + shed``) apply to both.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.errors import ServeError


class RequestRecord(NamedTuple):
    """One served request's timeline (seconds)."""

    arrival: float
    start: float
    finish: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        return self.start - self.arrival


@dataclass
class ServingStats:
    """Aggregate results of one serving run.

    ``records`` holds *admitted* requests only; overload accounting lives
    in ``shed_arrivals`` (arrival instants of rejected requests),
    ``fallbacks`` (requests served in degraded mode) and, when an SLO was
    configured, :attr:`slo_breaches`.
    """

    records: list[RequestRecord]
    horizon: float  # last finish time (s)
    servers: int
    service_time: float  # mean busy time per request (s)
    shed_arrivals: list[float] = field(default_factory=list)
    fallbacks: int = 0
    slo_s: float | None = None

    def __post_init__(self) -> None:
        self._latencies = np.array([r.latency for r in self.records])

    @classmethod
    def collect(
        cls,
        records: list[RequestRecord],
        servers: int,
        shed_arrivals: list[float] | None = None,
        fallbacks: int = 0,
        slo_s: float | None = None,
    ) -> "ServingStats":
        """Build stats from collected request timelines."""
        records = list(records)
        horizon = max((r.finish for r in records), default=0.0)
        busy = [r.finish - r.start for r in records]
        service = float(np.mean(busy)) if busy else 0.0
        return cls(
            records=records, horizon=horizon, servers=servers,
            service_time=service,
            shed_arrivals=list(shed_arrivals or []),
            fallbacks=fallbacks, slo_s=slo_s,
        )

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def shed(self) -> int:
        """Requests rejected by admission control (never served)."""
        return len(self.shed_arrivals)

    @property
    def offered(self) -> int:
        """Total offered load: admitted + shed."""
        return self.n_requests + self.shed

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def slo_breaches(self) -> int:
        """Admitted requests whose latency exceeded the configured SLO."""
        if self.slo_s is None or not len(self._latencies):
            return 0
        return int((self._latencies > self.slo_s).sum())

    @property
    def slo_breach_rate(self) -> float:
        return self.slo_breaches / self.n_requests if self.n_requests else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.horizon if self.horizon else 0.0

    def latency_percentile(self, q: float) -> float:
        if not len(self._latencies):
            return 0.0
        return float(np.percentile(self._latencies, q))

    @property
    def mean_latency(self) -> float:
        if not len(self._latencies):
            return 0.0
        return float(self._latencies.mean())

    @property
    def p50(self) -> float:
        return self.latency_percentile(50)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99)

    @property
    def utilization(self) -> float:
        """Fraction of server-seconds spent serving."""
        busy = sum(r.finish - r.start for r in self.records)
        return busy / (self.servers * self.horizon) if self.horizon else 0.0

    def mean_queue_length(self) -> float:
        """Time-averaged number of queued+in-service requests (Little)."""
        return self.throughput_rps * self.mean_latency


class CircuitBreaker:
    """Open after ``max_failures`` *consecutive* failures; manual reset.

    Every success resets the streak, and the open transition is counted
    once under ``serve.circuit_opened``.
    """

    def __init__(self, max_failures: int = 3) -> None:
        if max_failures < 1:
            raise ServeError(
                f"max_failures must be >= 1, got {max_failures}"
            )
        self.max_failures = max_failures
        self._consecutive = 0
        self._open = False

    @property
    def open(self) -> bool:
        return self._open

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive

    def record_success(self) -> None:
        self._consecutive = 0

    def record_failure(self) -> None:
        self._consecutive += 1
        if self._consecutive >= self.max_failures and not self._open:
            self._open = True
            obs.count("serve.circuit_opened")

    def reset(self) -> None:
        self._consecutive = 0
        self._open = False


class AdmissionController:
    """Queue-bounded admission: shed when ``depth >= queue_limit``.

    ``queue_limit=None`` admits everything (accounting still runs).  The
    caller reports depth transitions (:meth:`admit` /
    :meth:`started`); the batching core does so for the live server and
    the replay alike.
    """

    def __init__(self, queue_limit: int | None = None) -> None:
        if queue_limit is not None and queue_limit < 0:
            raise ServeError(f"queue_limit must be >= 0, got {queue_limit}")
        self.queue_limit = queue_limit
        self._depth = 0
        self.admitted = 0
        self.shed = 0

    @property
    def depth(self) -> int:
        return self._depth

    def admit(self, extra_depth: int = 0) -> bool:
        """Decide one arrival; updates admitted/shed accounting.

        ``extra_depth`` is backpressure from beyond the local queue — a
        router adds its replica-side backlog (dispatched-but-waiting
        requests), so a deep downstream queue sheds at the front door.
        """
        if extra_depth < 0:
            raise ServeError(f"extra_depth must be >= 0, got {extra_depth}")
        depth = self._depth + extra_depth
        if self.queue_limit is not None and depth >= self.queue_limit:
            self.shed += 1
            obs.count("serve.shed")
            return False
        self.admitted += 1
        self._depth += 1
        return True

    def started(self, n: int = 1) -> None:
        """``n`` admitted requests left the queue and entered service."""
        if n > self._depth:
            raise ServeError(
                f"cannot start {n} requests with queue depth {self._depth}"
            )
        self._depth -= n


class ServingLedger:
    """Per-request timeline accounting shared by server and replay harness.

    Collects :class:`RequestRecord` timelines for admitted requests and
    arrival instants for shed ones, then renders the run as a
    :class:`ServingStats`, including SLO-breach and fallback accounting.
    """

    def __init__(self, slo_s: float | None = None) -> None:
        if slo_s is not None and slo_s <= 0:
            raise ServeError("slo_s must be positive")
        self.slo_s = slo_s
        self.records: list[RequestRecord] = []
        self.shed_arrivals: list[float] = []
        self.fallbacks = 0
        self._starts: list[float] = []  # sorted start instants

    # ------------------------------------------------------------------ #
    def record(self, arrival: float, start: float, finish: float) -> None:
        if not arrival <= start <= finish:
            raise ServeError(
                f"non-causal request timeline {arrival}/{start}/{finish}"
            )
        self.records.append(RequestRecord(arrival, start, finish))
        insort(self._starts, start)
        obs.observe("serve.latency_s", finish - arrival)
        obs.observe("serve.queue_wait_s", start - arrival)

    def record_shed(self, arrival: float) -> None:
        self.shed_arrivals.append(arrival)

    def record_fallback(self, n: int = 1) -> None:
        self.fallbacks += n
        obs.count("serve.fallbacks", n)

    # ------------------------------------------------------------------ #
    def waiting_at(self, t: float) -> int:
        """Admitted-but-unstarted requests at instant ``t`` (recorded only)."""
        return len(self._starts) - bisect_right(self._starts, t)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    def stats(self, servers: int = 1) -> ServingStats:
        """The run so far as a :class:`ServingStats` aggregate."""
        return ServingStats.collect(
            self.records,
            servers=servers,
            shed_arrivals=self.shed_arrivals,
            fallbacks=self.fallbacks,
            slo_s=self.slo_s,
        )
