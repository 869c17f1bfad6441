"""The replica-pool front end: shard, dispatch, retry, hedge, survive.

:class:`ReplicaRouter` runs a pool of prediction-service replicas behind
one routing call per shard's micro-batch and makes the endpoint survive
replica failure:

* **Sharding** — requests are routed by hardware configuration over a
  consistent-hash ring (each replica holds :data:`RING_WEIGHT` virtual
  nodes), so repeat traffic for one configuration lands on the same
  replica (warm selection caches) and the ring's walk order doubles as
  the deterministic **spillover** order when that replica is down.
* **Health** — every replica carries a
  :class:`~repro.serve.health.ReplicaHealth` tracker fed by passive
  dispatch outcomes and periodic active probes; ejected replicas take no
  traffic until their seeded half-open recovery window readmits them.
* **Deadlines, retries, hedging** — each request carries a deadline
  budget (``arrival + deadline_s``) that is checked at every hop: a
  failed dispatch (replica crash, hang, transport error) is retried with
  exponential backoff on a *different* replica while budget remains, and
  in priced routing a request whose projected queue wait exceeds
  ``hedge_after_s`` is hedged — dispatched a second time on the next
  replica, first finish wins, both replicas pay the capacity.
* **Drain / restart** — :meth:`drain` removes a replica from rotation
  (in-flight work finishes; no new dispatches), :meth:`rejoin` brings it
  back through the half-open gate.

The batching core (:mod:`repro.serve.batcher`) shards on
:meth:`ReplicaRouter.shard_key`, and each shard's flush is one call into
one dispatch/health path.  :meth:`~ReplicaRouter.route_priced` prices it
on modelled queues, where each replica is a single-server queue and every
latency is derived from engine-priced service times (the deterministic
:func:`repro.serve.loadgen.routed_replay`);
:meth:`~ReplicaRouter.route_live` lets wall time elapse instead (the live
:class:`~repro.serve.server.ServeApp`).  The :mod:`repro.faults` sites
``replica.crash``, ``replica.hang``, ``replica.slow`` and ``probe.drop``
fire at dispatch and probe points keyed by per-replica ordinals, so
chaos runs are bit-reproducible.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro import faults, obs
from repro.errors import ServeError
from repro.faults.plan import _hash_unit
from repro.serve.health import DRAINING, HEALTHY, ReplicaHealth
from repro.serve.protocol import ServeRequest, ServeResponse
from repro.serve.service import PredictionService

#: An injected ``replica.slow`` dispatch serves at this multiple of the
#: modeled service time (the passive latency signal the health tracker
#: degrades on).
SLOW_FACTOR = 10.0

#: Seeded virtual nodes each replica holds on the consistent-hash ring.
RING_WEIGHT = 32


class ReplicaError(ServeError):
    """A replica failed to serve a dispatch (crash, hang, transport)."""


class ReplicaHandle:
    """The interface a router replica implements.

    In-process replicas wrap a :class:`PredictionService`; a TCP backend
    would implement the same three methods over a connection.
    """

    name: str = ""

    def dispatch(
        self, requests: list[ServeRequest]
    ) -> list[ServeResponse]:  # pragma: no cover - interface
        raise NotImplementedError

    def probe(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {}


class InProcessReplica(ReplicaHandle):
    """A :class:`PredictionService` as a router replica."""

    def __init__(self, name: str, service: PredictionService) -> None:
        if not name:
            raise ServeError("replica name must be non-empty")
        self.name = name
        self.service = service

    def dispatch(self, requests: list[ServeRequest]) -> list[ServeResponse]:
        return self.service.handle_batch(requests)

    def probe(self) -> bool:
        return self.service.probe()

    def snapshot(self) -> dict:
        return self.service.snapshot()


@dataclass
class RoutedOutcome:
    """One request's final disposition, with full routing provenance."""

    response: ServeResponse
    preferred: str
    replica: str  # "" when no replica could serve it
    attempts: int
    start: float
    finish: float
    hedged: bool = False


@dataclass
class RouterStats:
    """Router-level counters; response classes partition admitted traffic.

    Conservation (asserted by the property suite): every admitted request
    lands in exactly one of ``completed_direct`` (first attempt, preferred
    replica), ``completed_failover`` (served by another replica, via
    retry or spillover), ``completed_hedge`` (the hedge won),
    ``deadline_misses`` or ``unrouted``.
    """

    dispatches: int = 0
    dispatch_failures: int = 0
    retries: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    ejections: int = 0
    degradations: int = 0
    recoveries: int = 0
    probes: int = 0
    probe_drops: int = 0
    replica_crashes: int = 0
    replica_hangs: int = 0
    replica_slows: int = 0
    deadline_misses: int = 0
    unrouted: int = 0
    completed_direct: int = 0
    completed_failover: int = 0
    completed_hedge: int = 0

    def completed(self) -> int:
        return (
            self.completed_direct
            + self.completed_failover
            + self.completed_hedge
        )

    def as_dict(self) -> dict[str, int]:
        out = {
            name: getattr(self, name)
            for name in (
                "dispatches", "dispatch_failures", "retries", "failovers",
                "hedges", "hedge_wins", "ejections", "degradations",
                "recoveries", "probes", "probe_drops", "replica_crashes",
                "replica_hangs", "replica_slows", "deadline_misses",
                "unrouted", "completed_direct", "completed_failover",
                "completed_hedge",
            )
        }
        out["completed"] = self.completed()
        return out


@dataclass
class _Attempt:
    responses: list[ServeResponse] | None
    penalty_s: float
    slow: bool


class ReplicaRouter:
    """Health-aware consistent-hash routing over a replica pool."""

    def __init__(
        self,
        replicas: Sequence[ReplicaHandle],
        seed: int = 0,
        deadline_s: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.005,
        hedge_after_s: float | None = None,
        dispatch_timeout_s: float = 1.0,
        probe_interval_s: float | None = None,
        health_kwargs: dict | None = None,
    ) -> None:
        if not replicas:
            raise ServeError("router needs at least one replica")
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ServeError(f"replica names must be unique, got {names}")
        if max_retries < 0:
            raise ServeError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ServeError("retry_backoff_s must be >= 0")
        if deadline_s is not None and deadline_s <= 0:
            raise ServeError(f"deadline_s must be positive, got {deadline_s}")
        if hedge_after_s is not None and hedge_after_s < 0:
            raise ServeError("hedge_after_s must be >= 0")
        if dispatch_timeout_s <= 0:
            raise ServeError("dispatch_timeout_s must be positive")
        if probe_interval_s is not None and probe_interval_s <= 0:
            raise ServeError("probe_interval_s must be positive")
        self.replicas: dict[str, ReplicaHandle] = {r.name: r for r in replicas}
        self.seed = seed
        self.deadline_s = deadline_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.hedge_after_s = hedge_after_s
        self.dispatch_timeout_s = dispatch_timeout_s
        self.probe_interval_s = probe_interval_s
        self.stats = RouterStats()
        self.health: dict[str, ReplicaHealth] = {
            name: ReplicaHealth(name, seed=seed, **(health_kwargs or {}))
            for name in names
        }
        self._free_at: dict[str, float] = {name: 0.0 for name in names}
        self._inflight: dict[str, list[float]] = {name: [] for name in names}
        self._dispatch_seq: dict[str, int] = {name: 0 for name in names}
        self._probe_seq: dict[str, int] = {name: 0 for name in names}
        first = probe_interval_s if probe_interval_s is not None else 0.0
        self._next_probe: dict[str, float] = {name: first for name in names}
        # the ring: RING_WEIGHT seeded virtual nodes per replica
        points: list[tuple[float, str]] = []
        for name in names:
            for v in range(RING_WEIGHT):
                points.append(
                    (_hash_unit(seed, "router.ring", f"{name}:{v}"), name)
                )
        points.sort()
        self._ring_pos = [p for p, _ in points]
        self._ring_name = [n for _, n in points]
        self._order_cache: dict[str, tuple[str, ...]] = {}

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    @staticmethod
    def shard_key(request: ServeRequest) -> str:
        """The hardware-configuration key a request shards on."""
        hw = request.hw
        return (
            f"{hw.vlen_bits}b:{hw.l2_mib:g}MiB:"
            f"{hw.freq_ghz:g}GHz:{hw.l1_kib}k"
        )

    def ring_order(self, key: str) -> tuple[str, ...]:
        """All replica names in ring-walk order for ``key``.

        The first entry is the preferred replica; the rest are the
        spillover sequence.  Pure function of (seed, replica names), so
        every process routes identically.
        """
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        pos = _hash_unit(self.seed, "router.shard", key)
        start = bisect_right(self._ring_pos, pos) % len(self._ring_pos)
        order: list[str] = []
        seen: set[str] = set()
        for i in range(len(self._ring_name)):
            name = self._ring_name[(start + i) % len(self._ring_name)]
            if name not in seen:
                seen.add(name)
                order.append(name)
            if len(order) == len(self.replicas):
                break
        result = tuple(order)
        self._order_cache[key] = result
        return result

    def preferred(self, request: ServeRequest) -> str:
        return self.ring_order(self.shard_key(request))[0]

    def _candidates(
        self, key: str, now: float, tried: Iterable[str] = ()
    ) -> list[str]:
        """Traffic-eligible replicas: healthy, then degraded, then
        half-open — each group in ring order, minus already-tried ones."""
        order = [n for n in self.ring_order(key) if n not in set(tried)]
        healthy = [n for n in order if self.health[n].state == HEALTHY]
        degraded = [
            n for n in order
            if self.health[n].state == "degraded"
        ]
        halfopen = [
            n for n in order
            if self.health[n].half_open(now) and n not in healthy
        ]
        return healthy + degraded + halfopen

    # ------------------------------------------------------------------ #
    # health plumbing
    # ------------------------------------------------------------------ #
    def _note(self, transition: str | None) -> None:
        if transition in ("ejected", "re-ejected"):
            self.stats.ejections += 1
            obs.count("router.ejections")
        elif transition == "degraded":
            self.stats.degradations += 1
            obs.count("router.degradations")
        elif transition == "recovered":
            self.stats.recoveries += 1
            obs.count("router.recoveries")

    def run_probes(self, now: float) -> None:
        """Fire every active probe scheduled at or before ``now``."""
        if self.probe_interval_s is None:
            return
        for name in self.replicas:
            while self._next_probe[name] <= now:
                at = self._next_probe[name]
                self._next_probe[name] += self.probe_interval_s
                self._probe_one(name, at)

    def _probe_one(self, name: str, at: float) -> None:
        tracker = self.health[name]
        if tracker.state == DRAINING:
            return
        seq = self._probe_seq[name]
        self._probe_seq[name] = seq + 1
        self.stats.probes += 1
        plan = faults.active_plan()
        if plan is not None and plan.drops_probe(name, seq):
            faults.mark_injected("probe.drop")
            self.stats.probe_drops += 1
            obs.count("router.probe_drops")
            ok = False
        else:
            try:
                ok = self.replicas[name].probe()
            except Exception:
                ok = False
        if tracker.state == "ejected" and not tracker.half_open(at):
            return  # still cooling down; the probe cannot readmit it early
        self._note(
            tracker.record_success(at) if ok else tracker.record_failure(at)
        )

    def drain(self, name: str) -> None:
        """Take ``name`` out of rotation; in-flight work finishes."""
        if name not in self.health:
            raise ServeError(f"unknown replica {name!r}")
        self.health[name].drain()
        obs.count("router.drains")

    def rejoin(self, name: str, now: float) -> None:
        """Bring a drained replica back through the half-open gate."""
        if name not in self.health:
            raise ServeError(f"unknown replica {name!r}")
        self.health[name].rejoin(now)

    def backlog(self, now: float) -> int:
        """Priced-mode queue depth: requests dispatched but unfinished."""
        total = 0
        for name, finishes in self._inflight.items():
            kept = [f for f in finishes if f > now]
            self._inflight[name] = kept
            total += len(kept)
        return total

    # ------------------------------------------------------------------ #
    # the dispatch path
    # ------------------------------------------------------------------ #
    def _attempt(
        self, name: str, requests: list[ServeRequest], at: float
    ) -> _Attempt:
        """One dispatch attempt on one replica, fault sites included."""
        seq = self._dispatch_seq[name]
        self._dispatch_seq[name] = seq + 1
        tracker = self.health[name]
        plan = faults.active_plan()
        fault = plan.replica_fault(name, seq) if plan is not None else None
        if fault == "crash":
            faults.mark_injected("replica.crash")
            self.stats.replica_crashes += 1
            self.stats.dispatch_failures += 1
            self._note(tracker.force_eject(at))
            return _Attempt(None, 0.0, False)
        if fault == "hang":
            faults.mark_injected("replica.hang")
            self.stats.replica_hangs += 1
            self.stats.dispatch_failures += 1
            self._note(tracker.record_failure(at))
            penalty = min(plan.hang_seconds, self.dispatch_timeout_s)
            return _Attempt(None, penalty, False)
        try:
            responses = self.replicas[name].dispatch(requests)
            if len(responses) != len(requests):
                raise ReplicaError(
                    f"replica {name!r} returned {len(responses)} responses "
                    f"for {len(requests)} requests"
                )
        except Exception:
            self.stats.dispatch_failures += 1
            self._note(tracker.record_failure(at))
            return _Attempt(None, 0.0, False)
        self.stats.dispatches += 1
        if fault == "slow":
            faults.mark_injected("replica.slow")
            self.stats.replica_slows += 1
            self._note(tracker.record_slow(at))
        else:
            self._note(tracker.record_success(at))
        return _Attempt(responses, 0.0, fault == "slow")

    def _classify(self, outcome: RoutedOutcome) -> None:
        """Fold one final outcome into the partition counters."""
        response = outcome.response
        if response.status == "deadline":
            self.stats.deadline_misses += 1
            obs.count("router.deadline_misses")
        elif outcome.replica == "":
            self.stats.unrouted += 1
            obs.count("router.unrouted")
        elif outcome.hedged:
            self.stats.completed_hedge += 1
        elif outcome.replica != outcome.preferred or outcome.attempts > 1:
            self.stats.completed_failover += 1
            self.stats.failovers += 1
            obs.count("router.failovers")
        else:
            self.stats.completed_direct += 1

    # ------------------------------------------------------------------ #
    # routing one shard's micro-batch
    # ------------------------------------------------------------------ #
    def route_priced(
        self, batch: list[tuple[float, ServeRequest]], at: float
    ) -> list[RoutedOutcome]:
        """Route one shard's micro-batch at virtual instant ``at``.

        Each replica is a single-server FCFS queue (``free_at``); service
        times are the engine-priced ``response.seconds`` (times
        :data:`SLOW_FACTOR` under an injected slow fault).  Returns one
        outcome per request, classification counters updated.
        """
        if not batch:
            return []
        return self._route_group(batch, at, priced=True)

    def route_live(
        self, batch: list[tuple[float, ServeRequest]], now: float
    ) -> list[RoutedOutcome]:
        """Route one shard's micro-batch on the wall clock at ``now``.

        Due probes fire first.  Retries, deadline budgets (from each
        request's arrival) and health signals are :meth:`route_priced`'s;
        queue pricing and hedging are not, since real time just elapses.
        """
        self.run_probes(now)
        return self._route_group(batch, now, priced=False)

    # ------------------------------------------------------------------ #
    def _deadline(self, arrival: float) -> float | None:
        return None if self.deadline_s is None else arrival + self.deadline_s

    def _expire(
        self,
        batch: list[tuple[float, ServeRequest]],
        live: list[int],
        outcomes: list[RoutedOutcome | None],
        preferred: str,
        t: float,
    ) -> list[int]:
        """Resolve live requests whose deadline has passed by instant t."""
        kept: list[int] = []
        for i in live:
            arrival, request = batch[i]
            deadline = self._deadline(arrival)
            if deadline is not None and t > deadline:
                response = ServeResponse(
                    id=request.id, status="deadline",
                    error=f"deadline exceeded after {t - arrival:.6f}s",
                )
                outcomes[i] = RoutedOutcome(
                    response=response, preferred=preferred, replica="",
                    attempts=0, start=t, finish=t,
                )
            else:
                kept.append(i)
        return kept

    def _route_group(
        self,
        batch: list[tuple[float, ServeRequest]],
        at: float,
        priced: bool,
    ) -> list[RoutedOutcome]:
        key = self.shard_key(batch[0][1])
        preferred = self.ring_order(key)[0]
        outcomes: list[RoutedOutcome | None] = [None] * len(batch)
        live = list(range(len(batch)))
        tried: list[str] = []
        t = at
        attempts = 0
        server: str | None = None
        responses: list[ServeResponse] | None = None
        slow = False
        while True:
            live = self._expire(batch, live, outcomes, preferred, t)
            if not live:
                break
            if attempts > self.max_retries:
                break
            cands = self._candidates(key, t, tried)
            if not cands:
                break
            target = cands[0]
            tried.append(target)
            requests = [batch[i][1] for i in live]
            attempt = self._attempt(target, requests, t)
            if attempt.responses is not None:
                server, responses, slow = target, attempt.responses, attempt.slow
                break
            attempts += 1
            if attempts <= self.max_retries:
                self.stats.retries += 1
                obs.count("router.retries")
            backoff = self.retry_backoff_s * (2.0 ** (attempts - 1))
            if priced:
                t = t + attempt.penalty_s + backoff
        if responses is None or server is None:
            for i in live:
                arrival, request = batch[i]
                response = ServeResponse(
                    id=request.id, status="error",
                    error=(
                        "no replica available after "
                        f"{attempts} failed attempt(s)"
                    ),
                )
                outcomes[i] = RoutedOutcome(
                    response=response, preferred=preferred, replica="",
                    attempts=attempts, start=t, finish=t,
                )
        else:
            for i, response in zip(live, responses):
                arrival, request = batch[i]
                outcomes[i] = self._finish_one(
                    arrival, request, response, key, server, preferred,
                    attempts + 1, t, at, slow, priced,
                )
        result = [o for o in outcomes if o is not None]
        assert len(result) == len(batch)
        for outcome in result:
            self._classify(outcome)
        return result

    def _finish_one(
        self,
        arrival: float,
        request: ServeRequest,
        response: ServeResponse,
        key: str,
        server: str,
        preferred: str,
        attempts: int,
        t: float,
        at: float,
        slow: bool,
        priced: bool,
    ) -> RoutedOutcome:
        """Price one served request (queue + optional hedge + deadline)."""
        response = replace(response, replica=server, attempts=attempts)
        if not priced or response.status != "ok":
            finish = t
            obs.observe(f"router.replica.{server}.latency_s", finish - arrival)
            return RoutedOutcome(
                response=response, preferred=preferred, replica=server,
                attempts=attempts, start=t, finish=finish,
            )
        service = response.seconds * (SLOW_FACTOR if slow else 1.0)
        start = max(t, self._free_at[server])
        finish = start + service
        hedged = False
        if (
            self.hedge_after_s is not None
            and start - at > self.hedge_after_s
        ):
            alt_outcome = self._hedge(
                request, key, server, at + self.hedge_after_s
            )
            if alt_outcome is not None:
                alt_name, alt_response, alt_start, alt_finish = alt_outcome
                if alt_finish < finish:
                    self.stats.hedge_wins += 1
                    obs.count("router.hedge_wins")
                    # primary still burns its slot; the hedge's answer wins
                    self._free_at[server] = finish
                    self._inflight[server].append(finish)
                    response = replace(
                        alt_response, replica=alt_name, attempts=attempts
                    )
                    obs.observe(
                        f"router.replica.{alt_name}.latency_s",
                        alt_finish - arrival,
                    )
                    return RoutedOutcome(
                        response=response, preferred=preferred,
                        replica=alt_name, attempts=attempts,
                        start=alt_start, finish=alt_finish, hedged=True,
                    )
        self._free_at[server] = finish
        self._inflight[server].append(finish)
        deadline = self._deadline(arrival)
        if deadline is not None and finish > deadline:
            response = ServeResponse(
                id=request.id, status="deadline", replica=server,
                attempts=attempts,
                error=f"deadline exceeded after {finish - arrival:.6f}s",
            )
            return RoutedOutcome(
                response=response, preferred=preferred, replica="",
                attempts=attempts, start=start, finish=finish,
            )
        obs.observe(f"router.replica.{server}.latency_s", finish - arrival)
        return RoutedOutcome(
            response=response, preferred=preferred, replica=server,
            attempts=attempts, start=start, finish=finish, hedged=hedged,
        )

    def _hedge(
        self, request: ServeRequest, key: str, primary: str, fire_at: float
    ) -> tuple[str, ServeResponse, float, float] | None:
        """Dispatch a hedged copy on the next replica; None if impossible."""
        cands = [
            n for n in self._candidates(key, fire_at, tried=(primary,))
        ]
        if not cands:
            return None
        alt = cands[0]
        self.stats.hedges += 1
        obs.count("router.hedges")
        attempt = self._attempt(alt, [request], fire_at)
        if attempt.responses is None:
            return None
        response = attempt.responses[0]
        if response.status != "ok":
            return None
        service = response.seconds * (SLOW_FACTOR if attempt.slow else 1.0)
        start = max(fire_at, self._free_at[alt])
        finish = start + service
        self._free_at[alt] = finish
        self._inflight[alt].append(finish)
        return alt, response, start, finish

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """Health + counters payload (merged into ``GET /v1/stats``)."""
        return {
            "replicas": {
                name: {
                    **self.health[name].snapshot(),
                    **self.replicas[name].snapshot(),
                }
                for name in self.replicas
            },
            "router": self.stats.as_dict(),
        }

    def health_summary(self) -> dict:
        states = {
            name: tracker.state for name, tracker in self.health.items()
        }
        serving = sum(1 for s in states.values() if s in (HEALTHY, "degraded"))
        return {
            "status": "ok" if serving else "down",
            "replicas": states,
            "serving": serving,
        }
