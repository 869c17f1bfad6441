"""M/D/c queueing over the fixed-service replay, and the latency study.

``md_c`` (see ``conftest.py``) replays a seeded Poisson trace one request
per flush against :class:`~repro.serve.FixedServiceTime` — the queue the
``serving-latency`` study and the design recommender price.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.experiments.cli import run_experiment
from repro.serve import FixedServiceTime, TraceSpec, generate_trace, replay


def md1_mean_wait(arrival_rate_rps: float, service_time_s: float) -> float:
    """Exact mean queue wait of an M/D/1 queue (Pollaczek-Khinchine).

    ``W_q = rho * s / (2 * (1 - rho))`` for deterministic service.
    """
    rho = arrival_rate_rps * service_time_s
    assert 0.0 < rho < 1.0, f"M/D/1 requires 0 < rho < 1, got {rho:.3f}"
    return rho * service_time_s / (2.0 * (1.0 - rho))


class TestSimulatorBasics:
    def test_validation(self):
        with pytest.raises(ServeError):
            FixedServiceTime(0.0)
        trace = generate_trace(TraceSpec("uniform", 10, 1.0))
        with pytest.raises(ServeError):
            replay(FixedServiceTime(0.1), trace, servers=0)
        with pytest.raises(ServeError):
            TraceSpec("uniform", 10, rate_rps=0.0)
        with pytest.raises(ServeError):
            TraceSpec("uniform", n_requests=0)

    def test_capacity(self, md_c):
        """Overloaded, 4 replicas at 0.5 s serve 4 / 0.5 = 8 req/s."""
        stats = md_c(4, 0.5, 16.0, 400).stats
        assert stats.throughput_rps == pytest.approx(8.0, rel=0.01)
        assert stats.utilization == pytest.approx(1.0, abs=0.01)

    def test_deterministic_with_seed(self, md_c):
        a = md_c(1, 0.1, 5.0, 200, seed=3).stats
        b = md_c(1, 0.1, 5.0, 200, seed=3).stats
        assert a.records == b.records
        assert a.mean_latency == b.mean_latency

    def test_latency_at_least_service_time(self, md_c):
        stats = md_c(2, 0.2, 5.0, 300).stats
        assert stats.latency_percentile(0) >= 0.2 - 1e-12

    def test_fcfs_no_server_overlap(self, md_c):
        """One replica: FCFS services follow each other, never overlap."""
        records = md_c(1, 0.1, 8.0, 300, seed=1).stats.records
        for prev, nxt in zip(records, records[1:]):
            assert nxt.arrival >= prev.arrival
            assert nxt.start >= prev.finish
        busy = sum(r.finish - r.start for r in records)
        assert busy <= records[-1].finish + 1e-9

    def test_low_load_no_queueing(self, md_c):
        """At 10% load, queue waits are (almost) always zero."""
        stats = md_c(4, 0.1, 0.1 * 40, 500, seed=2).stats
        waits = [r.queue_wait for r in stats.records]
        assert np.mean(waits) < 0.1 * 0.1

    def test_high_load_queues(self, md_c):
        """Near saturation, waits dominate latency."""
        low = md_c(2, 0.1, 0.3 * 20, 800, seed=2).stats
        high = md_c(2, 0.1, 0.95 * 20, 800, seed=2).stats
        assert high.p99 > 2 * low.p99

    def test_utilization_tracks_load(self, md_c):
        for frac in (0.3, 0.6, 0.9):
            stats = md_c(4, 0.05, frac * 80, 2000, seed=5).stats
            assert stats.utilization == pytest.approx(frac, abs=0.08)

    def test_littles_law(self, md_c):
        """L = lambda * W within sampling error."""
        stats = md_c(4, 0.05, 0.7 * 80, 4000, seed=8).stats
        assert stats.mean_queue_length() == pytest.approx(
            stats.throughput_rps * stats.mean_latency, rel=1e-9
        )

    @given(servers=st.integers(1, 8), frac=st.floats(0.1, 0.9),
           seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_invariants(self, md_c, servers, frac, seed):
        """Arrivals ordered, starts >= arrivals, throughput <= capacity."""
        capacity = servers / 0.02
        stats = md_c(servers, 0.02, frac * capacity, 300, seed=seed).stats
        for r in stats.records:
            assert r.start >= r.arrival - 1e-12
            assert r.finish == pytest.approx(r.start + 0.02)
        assert stats.throughput_rps <= capacity * 1.3

    def test_load_sweep(self, md_c):
        p99 = [md_c(2, 0.1, f * 20, 300).stats.p99 for f in (0.2, 0.8)]
        assert p99[1] >= p99[0]

    def test_from_colocation(self, md_c):
        """A co-location result prices one replica's per-image time."""
        from repro.nn.models import vgg16_conv_specs
        from repro.serving.colocation import ColocationScenario, evaluate_colocation

        result = evaluate_colocation(
            ColocationScenario(cores=2, vlen_bits=512, shared_l2_mib=4.0,
                               instances=2),
            vgg16_conv_specs(),
        )
        service = result.cycles_per_image / 2e9
        stats = md_c(2, service, 0.1 * 2 / service, 200).stats
        assert stats.servers == 2
        assert stats.latency_percentile(0) == pytest.approx(service)


class TestServingLatencyStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("serving-latency")

    def test_selection_raises_capacity(self, result):
        assert result.data["capacity_gain"] > 1.1

    def test_selection_cuts_tail_latency(self, result):
        """At every offered load, the optimal policy's p99 is lower."""
        pts = result.data["points"]
        loads = sorted({k[0] for k in pts})
        for frac in loads:
            assert (
                pts[(frac, "optimal")]["p99_ms"]
                < pts[(frac, "im2col_gemm6")]["p99_ms"]
            )

    def test_tail_grows_with_load(self, result):
        pts = result.data["points"]
        p99 = [pts[(f, "im2col_gemm6")]["p99_ms"] for f in (0.3, 0.6, 0.8, 0.95)]
        assert p99 == sorted(p99)


class TestQueueingTheory:
    """The fixed-service replay must converge to the M/D/1 closed form."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_md1_mean_wait_matches_pollaczek_khinchine(self, md_c, rho):
        service = 0.01
        rate = rho / service
        stats = md_c(1, service, rate, 60_000, seed=42).stats
        waits = np.mean([r.queue_wait for r in stats.records])
        assert waits == pytest.approx(md1_mean_wait(rate, service), rel=0.15)

    def test_md1_formula_validation(self, md_c):
        """The closed form holds only for rho < 1: past saturation
        (rho = 2) the replay has no steady state, and the mean wait keeps
        growing with the run length."""
        def mean_wait(n):
            stats = md_c(1, 0.01, 200.0, n, seed=3).stats
            return np.mean([r.queue_wait for r in stats.records])

        assert mean_wait(2000) > 3 * mean_wait(500)

    def test_md1_wait_diverges_near_saturation(self, md_c):
        def mean_wait(rho):
            stats = md_c(1, 0.01, rho / 0.01, 20_000, seed=42).stats
            return np.mean([r.queue_wait for r in stats.records])

        assert mean_wait(0.95) > 10 * mean_wait(0.5)
        assert md1_mean_wait(99.0, 0.01) > 10 * md1_mean_wait(50.0, 0.01)
