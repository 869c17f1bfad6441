"""One micro-batching core for the live server and the replay.

:class:`BatchCore` is the serving policy, synchronous and with time passed
in.  An arrival is admitted iff the admission depth (admitted but
unflushed) plus the ledger backlog (flushed but not yet started) is under
``queue_limit``.  Admitted requests join their shard's open micro-batch,
which flushes when it holds ``max_batch`` requests or is ``max_wait_s``
old; age flushes due before an arrival run first, oldest first.  Each
flush is **one** ``serve(batch, at)`` call — one forest pass, one
``evaluate_many`` — whose ``(response, start, finish)`` timelines land in
a :class:`~repro.serve.middleware.ServingLedger`.

Two callers feed the same core and differ only in where time comes from
and how a flush is priced:

* :func:`repro.serve.loadgen.replay` and
  :func:`~repro.serve.loadgen.routed_replay` feed a trace's arrival
  instants and price each flush on modelled service times;
* :class:`MicroBatcher` feeds the event loop's clock, resolves one
  future per request at flush and keeps one ``loop.call_at`` timer at the
  core's next age-flush instant; :class:`~repro.serve.server.ServeApp`
  prices a flush by reading the wall clock around the backend call.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, cast

from repro import obs
from repro.errors import ServeError
from repro.serve.middleware import AdmissionController, ServingLedger
from repro.serve.protocol import ServeRequest, ServeResponse, shed_response


@dataclass(frozen=True)
class TimedRequest:
    """A request and the instant it arrives."""

    arrival: float
    request: ServeRequest


#: A flush's pricing: ``serve(batch, at)`` answers one shard's micro-batch
#: flushed at instant ``at`` with one ``(response, start, finish)`` per
#: request, in batch order.
Serve = Callable[
    [list[TimedRequest], float], Sequence[tuple[ServeResponse, float, float]]
]


def _one_shard(request: ServeRequest) -> str:
    return ""


class BatchCore:
    """Admit, shard, flush on size or age, and account every flush."""

    def __init__(
        self,
        serve: Serve,
        shard_key: Callable[[ServeRequest], str] | None = None,
        queue_limit: int | None = None,
        slo_s: float | None = None,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
    ) -> None:
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_s < 0:
            raise ServeError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self.serve = serve
        self.shard_key = shard_key or _one_shard
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.admission = AdmissionController(queue_limit)
        self.ledger = ServingLedger(slo_s=slo_s)
        self._pending: dict[str, list[TimedRequest]] = {}
        #: shard -> age-flush instant of its open batch, in opening order,
        #: so the first value is always the earliest
        self._due_at: dict[str, float] = {}
        #: the earliest age-flush instant; ``inf`` when no batch is open
        self.next_due = math.inf
        self._last_flush = -math.inf

    # ------------------------------------------------------------------ #
    def arrive(self, timed: TimedRequest) -> bool:
        """Admit ``timed`` at its arrival instant; False when it is shed."""
        arrival = timed.arrival
        while arrival > self.next_due:
            self._flush_earliest()
        if not self.admission.admit(self.ledger.waiting_at(arrival)):
            self.ledger.record_shed(arrival)
            return False
        key = self.shard_key(timed.request)
        batch = self._pending.get(key)
        if batch is None:
            batch = self._pending[key] = []
            self._due_at[key] = arrival + self.max_wait_s
            if len(self._due_at) == 1:  # older open batches are due no later
                self.next_due = self._due_at[key]
        batch.append(timed)
        if len(batch) >= self.max_batch:
            self._flush(key, arrival)
        return True

    def flush_due(self, now: float) -> None:
        """Age-flush every batch due at or before ``now``, each at its due
        instant, earliest first (ties by shard key)."""
        while self._due_at and self.next_due <= now:
            self._flush_earliest()

    def drain(self, now: float) -> None:
        """Flush every open batch at instant ``now`` (the shutdown path)."""
        for _, key in sorted((t, k) for k, t in self._due_at.items()):
            self._flush(key, now)

    # ------------------------------------------------------------------ #
    def _flush_earliest(self) -> None:
        due = self.next_due
        self._flush(min(k for k, t in self._due_at.items() if t == due), due)

    def _flush(self, key: str, at: float) -> None:
        if at < self._last_flush:
            raise ServeError(
                f"flush instant cannot move backwards ({at} < {self._last_flush})"
            )
        self._last_flush = at
        batch = self._pending.pop(key)
        del self._due_at[key]
        self.next_due = next(iter(self._due_at.values()), math.inf)
        self.admission.started(len(batch))
        obs.observe("serve.batch_size", float(len(batch)))
        ledger = self.ledger
        for timed, (response, start, finish) in zip(batch, self.serve(batch, at)):
            ledger.record(timed.arrival, start, finish)
            if response.served_by == "fallback":
                ledger.record_fallback()


# ---------------------------------------------------------------------- #
# the asyncio front end
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Waiter(TimedRequest):
    """A live arrival plus the future its submitter awaits."""

    future: asyncio.Future = field(compare=False)


class MicroBatcher:
    """Drive a :class:`BatchCore` on the event loop's clock.

    ``price(batch, at)`` is the core's ``serve`` callback; its answers (or
    its exception, or a short reply as :class:`ServeError`) reach each
    submitter through a future.
    """

    def __init__(
        self,
        price: Serve,
        shard_key: Callable[[ServeRequest], str] | None = None,
        queue_limit: int | None = None,
        slo_s: float | None = None,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
    ) -> None:
        self.price = price
        self.core = BatchCore(
            self._serve, shard_key, queue_limit, slo_s, max_batch, max_wait_s
        )
        self._timer: asyncio.TimerHandle | None = None

    def submit(self, request: ServeRequest) -> asyncio.Future:
        """Admit one request now; the future resolves at its flush, or at
        once with a shed response."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if not self.core.arrive(_Waiter(loop.time(), request, future)):
            future.set_result(shed_response(request))
        self._arm(loop)
        return future

    async def drain(self) -> None:
        """Flush whatever is pending now (shutdown path)."""
        loop = asyncio.get_running_loop()
        self.core.drain(loop.time())
        self._arm(loop)

    # ------------------------------------------------------------------ #
    def _arm(self, loop: asyncio.AbstractEventLoop) -> None:
        """Keep the one timer at the core's next age-flush instant."""
        due = self.core.next_due
        if self._timer is not None:
            if self._timer.when() == due:
                return
            self._timer.cancel()
            self._timer = None
        if due < math.inf:
            self._timer = loop.call_at(due, self._on_timer, loop)

    def _on_timer(self, loop: asyncio.AbstractEventLoop) -> None:
        self._timer = None
        self.core.flush_due(loop.time())
        self._arm(loop)

    def _serve(
        self, batch: list[TimedRequest], at: float
    ) -> Sequence[tuple[ServeResponse, float, float]]:
        waiters = cast("list[_Waiter]", batch)  # submit() feeds only these
        try:
            priced = self.price(batch, at)
            if len(priced) != len(batch):
                raise ServeError(
                    f"handler returned {len(priced)} responses for "
                    f"{len(batch)} requests"
                )
        except Exception as exc:
            for waiter in waiters:
                if not waiter.future.done():
                    waiter.future.set_exception(exc)
            return []
        for waiter, (response, _, _) in zip(waiters, priced):
            if not waiter.future.done():
                waiter.future.set_result(response)
        return priced
