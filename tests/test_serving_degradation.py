"""Chaos suite: serving under overload, predictor failures and bursts.

The acceptance bar: at 2x saturation throughput, admission control keeps
the p99 latency of *admitted* requests bounded (vs. unbounded queue
growth without it), with every shed request accounted for; predictor
failures degrade to the safe fallback algorithm instead of erroring.

Overload and bursts run on the fixed-service replay (``md_c``, see
``conftest.py``); degraded mode runs the production
:class:`~repro.serve.PredictionService` and its circuit breaker behind
:func:`~repro.serve.replay`, with a stub selector.
"""

from __future__ import annotations

import pytest

from repro import faults, obs
from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm, layer_cycles
from repro.errors import ServeError
from repro.serve import (
    FixedServiceTime,
    PredictionService,
    TraceSpec,
    default_workload,
    generate_trace,
    replay,
)

pytestmark = pytest.mark.chaos  # fault-injection suite: full-suite CI job


@pytest.fixture
def recorder():
    rec = obs.enable()
    yield rec
    obs.disable()


def counters(rec) -> dict[str, float]:
    return rec.snapshot()["counters"]


class TestAdmissionControl:
    def test_overload_p99_bounded_and_shed_accounted(self, recorder, md_c):
        """2x capacity: bounded queue -> bounded latency, all load accounted."""
        service, limit, n = 0.01, 10, 2000
        stats = md_c(1, service, 200.0, n, seed=7, queue_limit=limit).stats
        # worst admitted case: full queue ahead of you, plus your own service
        assert stats.p99 <= (limit + 1) * service + 1e-9
        assert stats.shed > 0
        assert stats.offered == stats.n_requests + stats.shed == n
        assert 0.0 < stats.shed_rate < 1.0

        wild = md_c(1, service, 200.0, n, seed=7).stats
        assert wild.shed == 0
        assert wild.p99 > 10 * stats.p99  # queue grows without bound
        assert counters(recorder)["serve.shed"] == stats.shed

    def test_replay_counts_every_shed(self, recorder, md_c):
        """Replay sheds through the admission controller, so the
        ``serve.shed`` counter sees every shed request."""
        result = md_c(2, 0.01, 400.0, 1000, seed=5, queue_limit=3)
        assert result.shed_ids
        assert counters(recorder)["serve.shed"] == len(result.shed_ids)

    def test_no_shedding_below_capacity(self, md_c):
        stats = md_c(2, 0.01, 100.0, 1000, seed=3, queue_limit=50).stats
        assert stats.shed == 0 and stats.offered == 1000

    def test_queue_limit_zero_admits_only_idle_servers(self, md_c):
        stats = md_c(1, 0.01, 200.0, 500, seed=5, queue_limit=0).stats
        # nobody ever waits: every admitted request starts immediately
        assert all(r.queue_wait == 0.0 for r in stats.records)
        assert stats.shed > 0

    def test_shedding_is_deterministic(self, md_c):
        def run():
            s = md_c(1, 0.01, 200.0, 800, seed=11, queue_limit=5).stats
            return s.shed_arrivals, [r.latency for r in s.records]

        assert run() == run()

    def test_slo_breach_accounting(self, md_c):
        stats = md_c(
            1, 0.01, 150.0, 1000, seed=7, queue_limit=20, slo_s=0.05
        ).stats
        expected = sum(1 for r in stats.records if r.latency > 0.05)
        assert stats.slo_breaches == expected > 0
        assert stats.slo_breach_rate == expected / stats.n_requests

    def test_rejects_bad_knobs(self):
        trace = generate_trace(TraceSpec("uniform", 10, 100.0))
        with pytest.raises(ServeError):
            replay(FixedServiceTime(0.01), trace, queue_limit=-1)
        with pytest.raises(ServeError):
            replay(FixedServiceTime(0.01), trace, slo_s=0.0)


# ---------------------------------------------------------------------- #
# degraded mode: the production service, breaker and fallback
# ---------------------------------------------------------------------- #
class BestSelector:
    """Stub predictor: the cycle-optimal applicable algorithm per layer."""

    def __init__(self) -> None:
        self.calls = 0

    def select_many(self, pairs):
        self.calls += 1
        return [
            min(
                (n for n in ALGORITHM_NAMES if get_algorithm(n).applicable(s)),
                key=lambda n: layer_cycles(n, s, hw, fallback=True).cycles,
            )
            for s, hw in pairs
        ]


class BrokenSelector:
    """Stub predictor that always raises; counts how often it is asked."""

    def __init__(self) -> None:
        self.calls = 0

    def select_many(self, pairs):
        self.calls += 1
        raise RuntimeError("predictor down")


@pytest.fixture(scope="module")
def trace():
    """400 requests at half the safe algorithm's one-replica capacity."""
    pool = default_workload()
    mean_safe = sum(
        layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(hw.freq_ghz)
        for s, hw in pool
    ) / len(pool)
    return generate_trace(
        TraceSpec("uniform", 400, 0.5 / mean_safe, seed=3), pool
    )


def serve(trace, selector, **service_kwargs):
    service = PredictionService(selector=selector, **service_kwargs)
    return service, replay(service, trace, max_batch=1)


class TestDegradedMode:
    def test_selector_drives_service_times(self, trace):
        _, fast = serve(trace, BestSelector())
        assert fast.stats.fallbacks == 0
        _, safe = serve(trace, None)  # every request on im2col_gemm6
        assert fast.stats.mean_latency < safe.stats.mean_latency

    def test_injected_predictor_errors_fall_back(self, recorder, trace):
        with faults.inject("seed=9,serving.predictor_error=0.2"):
            _, result = serve(
                trace, BestSelector(),
                max_selector_failures=1000,  # keep the circuit closed
            )
        stats = result.stats
        assert 0 < stats.fallbacks < len(trace)
        assert all(r.status == "ok" for r in result.responses)
        c = counters(recorder)
        assert c["serve.fallbacks"] == stats.fallbacks
        assert c["faults.injected.serving.predictor_error"] == stats.fallbacks

    def test_degraded_run_is_deterministic(self, trace):
        def run():
            with faults.inject("seed=9,serving.predictor_error=0.2"):
                _, result = serve(trace, BestSelector())
            return (
                result.stats.fallbacks,
                [r.latency for r in result.stats.records],
                [r.to_json() for r in result.responses],
            )

        assert run() == run()

    def test_no_selector_serves_everything_degraded(self, trace):
        _, result = serve(trace, None)
        assert result.stats.fallbacks == len(trace)
        assert {r.algorithm for r in result.responses} == {"im2col_gemm6"}

    def test_circuit_breaker_opens_after_consecutive_failures(
        self, recorder, trace
    ):
        broken = BrokenSelector()
        service, result = serve(trace, broken, max_selector_failures=3)
        assert result.stats.fallbacks == len(trace)
        assert broken.calls == 3  # circuit opened: selector never asked again
        assert service.breaker.open
        assert counters(recorder)["serve.circuit_opened"] == 1

    def test_rejects_bad_knobs(self):
        with pytest.raises(ServeError):
            PredictionService(fallback_policy="nearest")
        with pytest.raises(ServeError):
            PredictionService(max_selector_failures=0)


class TestBurstInjection:
    def test_burst_raises_shedding(self, recorder, md_c):
        def shed_with(spec: str | None) -> int:
            with faults.inject(spec):
                return md_c(1, 0.01, 90.0, 1500, seed=13, queue_limit=10).stats.shed

        calm = shed_with(None)
        bursty = shed_with("seed=13,serving.burst=3")
        assert bursty > calm
        assert counters(recorder)["faults.injected.serving.burst"] == 1

    def test_burst_preserves_request_count(self, md_c):
        with faults.inject("seed=13,serving.burst=2"):
            stats = md_c(1, 0.01, 50.0, 900, seed=13, queue_limit=10).stats
        assert stats.offered == 900
