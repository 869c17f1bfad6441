"""Unit tests for the ``repro.serve`` building blocks.

Protocol parsing, middleware (breaker / admission / ledger), the
batching core and its asyncio front end, trace generation and the SQLite
cache tier — each piece in isolation, so the integration suite can focus
on the assembled service.
"""

from __future__ import annotations

import asyncio
import json
import os
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from repro import faults
from repro.algorithms.registry import layer_cycles
from repro.engine.cache import MemoCache, SQLiteTier
from repro.engine.keys import cache_key
from repro.errors import NotFittedError, ProtocolError, ServeError
from repro.nn.layer import ConvSpec
from repro.serve import (
    AdmissionController,
    AsyncServeServer,
    BatchCore,
    CircuitBreaker,
    FixedServiceTime,
    MicroBatcher,
    PredictionService,
    RequestRecord,
    ServeApp,
    ServeRequest,
    ServeResponse,
    ServingLedger,
    ServingStats,
    TimedRequest,
    TraceSpec,
    error_response,
    generate_trace,
    replay,
    shed_response,
)
from repro.simulator.hwconfig import HardwareConfig

SPEC = ConvSpec(ic=64, oc=64, ih=56, iw=56, kh=3, kw=3, stride=1)
HW = HardwareConfig.paper2_rvv(512, 1.0)


# ---------------------------------------------------------------------- #
# protocol
# ---------------------------------------------------------------------- #
class TestProtocol:
    PAYLOAD = {
        "id": "r-9",
        "layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                  "kh": 3, "kw": 3, "stride": 1},
        "hw": {"vlen_bits": 1024, "l2_mib": 2.0},
    }

    def test_round_trip(self):
        request = ServeRequest.from_dict(self.PAYLOAD)
        assert request.id == "r-9"
        assert request.spec.ic == 64 and request.spec.kh == 3
        assert request.hw.vlen_bits == 1024 and request.hw.l2_mib == 2.0
        again = ServeRequest.from_json(request.to_json())
        assert again.spec == request.spec
        assert again.hw == request.hw
        assert again.id == request.id

    def test_hw_overrides_beyond_the_preset(self):
        payload = dict(self.PAYLOAD, hw={"vlen_bits": 512, "l2_mib": 1.0,
                                         "freq_ghz": 2.5})
        request = ServeRequest.from_dict(payload)
        assert request.hw.freq_ghz == 2.5
        base = HardwareConfig.paper2_rvv(512, 1.0)
        assert request.hw.l1_kib == base.l1_kib  # untouched fields survive

    @pytest.mark.parametrize("mutate", [
        lambda p: p.update(bogus=1),                       # unknown top-level
        lambda p: p.pop("layer"),                          # no layer
        lambda p: p.update(layer="not-an-object"),
        lambda p: p["layer"].update(banana=3),             # unknown layer key
        lambda p: p.update(hw="not-an-object"),
        lambda p: p["hw"].update(cores=8),                 # unknown hw key
        lambda p: p.update(id=7),                          # non-string id
        lambda p: p["layer"].update(ic=-1),                # ConvSpec rejects
    ])
    def test_invalid_requests_raise_protocol_error(self, mutate):
        payload = json.loads(json.dumps(self.PAYLOAD))  # deep copy
        mutate(payload)
        with pytest.raises(ProtocolError):
            ServeRequest.from_dict(payload)

    def test_bad_json_raises_protocol_error(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            ServeRequest.from_json("{nope")
        with pytest.raises(ProtocolError, match="not valid JSON"):
            ServeResponse.from_json("{nope")

    def test_response_round_trip_preserves_float_bits(self):
        response = ServeResponse(
            id="x", status="ok", algorithm="winograd",
            served_by="predictor", cycles=1.1e8 / 3.0,
            seconds=6.17e-05, dram_bytes=98304.0,
        )
        again = ServeResponse.from_json(response.to_json())
        assert again == response  # == on floats: bit-identical round trip

    def test_helpers(self):
        request = ServeRequest(spec=SPEC, hw=HW, id="h")
        assert shed_response(request).status == "shed"
        assert shed_response(request).id == "h"
        err = error_response("e", "boom")
        assert err.status == "error" and err.error == "boom"


# ---------------------------------------------------------------------- #
# middleware
# ---------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(max_failures=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        assert not breaker.open
        for _ in range(3):
            breaker.record_failure()
        assert breaker.open
        breaker.record_success()  # success does not close an open breaker
        assert breaker.open
        breaker.reset()
        assert not breaker.open and breaker.consecutive_failures == 0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ServeError):
            CircuitBreaker(max_failures=0)


class TestAdmissionController:
    def test_sheds_at_queue_limit(self):
        ctl = AdmissionController(queue_limit=2)
        assert ctl.admit() and ctl.admit()
        assert not ctl.admit()  # depth == limit: shed
        assert (ctl.admitted, ctl.shed, ctl.depth) == (2, 1, 2)
        ctl.started(2)
        assert ctl.admit()

    def test_unlimited_admits_everything(self):
        ctl = AdmissionController(queue_limit=None)
        assert all(ctl.admit() for _ in range(100))
        assert ctl.shed == 0

    def test_started_underflow_is_an_error(self):
        ctl = AdmissionController(queue_limit=4)
        ctl.admit()
        with pytest.raises(ServeError):
            ctl.started(2)

    def test_negative_limit_rejected(self):
        with pytest.raises(ServeError):
            AdmissionController(queue_limit=-1)

    def test_extra_depth_backpressure_sheds_early(self):
        """Downstream (router) backlog counts against the queue limit."""
        ctl = AdmissionController(queue_limit=4)
        assert ctl.admit(extra_depth=2)
        assert ctl.admit(extra_depth=2)  # depth 1 + 2 extra = 3 < 4
        assert not ctl.admit(extra_depth=2)  # 2 + 2 = 4: shed
        assert ctl.admit(extra_depth=0)  # local depth alone is fine
        assert (ctl.admitted, ctl.shed, ctl.depth) == (3, 1, 3)
        with pytest.raises(ServeError):
            ctl.admit(extra_depth=-1)


class TestServingLedger:
    def test_stats_conservation_and_slo(self):
        ledger = ServingLedger(slo_s=0.5)
        ledger.record(0.0, 0.1, 0.3)   # latency 0.3: within SLO
        ledger.record(0.2, 0.4, 1.0)   # latency 0.8: breach
        ledger.record_shed(0.25)
        ledger.record_fallback()
        stats = ledger.stats(servers=2)
        assert stats.offered == 3
        assert stats.n_requests == 2 and stats.shed == 1
        assert stats.slo_breaches == 1
        assert stats.fallbacks == 1
        assert stats.servers == 2

    def test_non_causal_timeline_is_an_error(self):
        ledger = ServingLedger()
        with pytest.raises(ServeError, match="non-causal"):
            ledger.record(1.0, 0.5, 2.0)  # start before arrival
        with pytest.raises(ServeError, match="non-causal"):
            ledger.record(0.0, 1.0, 0.5)  # finish before start

    def test_waiting_at_counts_admitted_unstarted(self):
        ledger = ServingLedger()
        ledger.record(0.0, 1.0, 2.0)
        ledger.record(0.0, 3.0, 4.0)
        assert ledger.waiting_at(0.5) == 2   # neither started yet
        assert ledger.waiting_at(1.0) == 1   # first started exactly at 1.0
        assert ledger.waiting_at(3.5) == 0

    def test_rejects_nonpositive_slo(self):
        with pytest.raises(ServeError):
            ServingLedger(slo_s=0.0)


def test_serving_stats_collect_empty_run():
    stats = ServingStats.collect([], servers=4)
    assert stats.n_requests == 0 and stats.offered == 0
    assert stats.p99 == 0.0 and stats.throughput_rps == 0.0


def test_serving_stats_collect_matches_manual_aggregate():
    records = [RequestRecord(0.0, 0.0, 1.0), RequestRecord(0.5, 1.0, 3.0)]
    stats = ServingStats.collect(records, servers=1, shed_arrivals=[0.7],
                                 fallbacks=2, slo_s=2.0)
    assert stats.horizon == 3.0
    assert stats.service_time == pytest.approx(1.5)
    assert stats.offered == 3 and stats.fallbacks == 2
    assert stats.slo_breaches == 1  # the 2.5 s latency


# ---------------------------------------------------------------------- #
# the batching core and its asyncio front end
# ---------------------------------------------------------------------- #
def _priced(handler):
    """A request handler as a flush pricer: served instantly at ``at``."""
    def price(batch, at):
        return [(r, at, at) for r in handler([t.request for t in batch])]
    return price


class TestBatchCore:
    REQ = ServeRequest(spec=SPEC, hw=HW, id="c")

    def test_flush_instant_refuses_to_rewind(self):
        flushed: list[float] = []

        def price(batch, at):
            flushed.append(at)
            return [(ServeResponse(id=t.request.id), at, at) for t in batch]

        core = BatchCore(price, max_batch=1, max_wait_s=0.0)
        assert core.arrive(TimedRequest(1.5, self.REQ))
        assert core.arrive(TimedRequest(1.5, self.REQ))  # standing still
        assert flushed == [1.5, 1.5]
        with pytest.raises(ServeError, match="backwards"):
            core.arrive(TimedRequest(1.0, self.REQ))
        with pytest.raises(ServeError, match="backwards"):
            core.drain(0.5)

    def test_age_flush_runs_before_a_later_arrival(self):
        flushes: list[tuple[float, int]] = []

        def price(batch, at):
            flushes.append((at, len(batch)))
            return [(ServeResponse(id=t.request.id), at, at) for t in batch]

        core = BatchCore(price, max_batch=8, max_wait_s=0.5)
        core.arrive(TimedRequest(0.0, self.REQ))
        core.arrive(TimedRequest(0.5, self.REQ))  # due at 0.5: joins
        assert core.next_due == 0.5 and flushes == []
        core.arrive(TimedRequest(0.75, self.REQ))
        assert flushes == [(0.5, 2)] and core.next_due == 1.25
        core.flush_due(1.25)
        assert flushes == [(0.5, 2), (1.25, 1)]
        assert core.ledger.n_requests == 3 and core.admission.depth == 0


class TestMicroBatcher:
    REQ = ServeRequest(spec=SPEC, hw=HW, id="b")

    def _echo_handler(self, calls):
        def handler(requests):
            calls.append(len(requests))
            return [ServeResponse(id=r.id) for r in requests]
        return _priced(handler)

    def test_size_flush_coalesces_one_handler_call(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=3, max_wait_s=60.0)
            futures = [batcher.submit(self.REQ) for _ in range(3)]
            return await asyncio.gather(*futures)

        responses = asyncio.run(scenario())
        assert calls == [3]  # one flush, no timer needed
        assert all(r.id == "b" for r in responses)

    def test_age_flush_fires_without_filling_the_batch(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=100, max_wait_s=0.005)
            future = batcher.submit(self.REQ)
            return await asyncio.wait_for(future, timeout=2.0)

        response = asyncio.run(scenario())
        assert calls == [1] and response.id == "b"

    def test_handler_failure_propagates_to_every_future(self):
        async def scenario():
            def boom(requests):
                raise RuntimeError("handler exploded")
            batcher = MicroBatcher(_priced(boom), max_batch=2,
                                   max_wait_s=60.0)
            f1 = batcher.submit(self.REQ)
            f2 = batcher.submit(self.REQ)
            results = await asyncio.gather(f1, f2, return_exceptions=True)
            return results, batcher.core.admission.depth

        results, depth = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert depth == 0  # the failed batch still left the queue

    def test_short_handler_reply_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(_priced(lambda reqs: []), max_batch=1,
                                   max_wait_s=60.0)
            return await asyncio.gather(batcher.submit(self.REQ),
                                        return_exceptions=True)

        (result,) = asyncio.run(scenario())
        assert isinstance(result, ServeError)

    def test_drain_flushes_pending(self):
        calls: list[int] = []

        async def scenario():
            batcher = MicroBatcher(self._echo_handler(calls),
                                   max_batch=100, max_wait_s=60.0)
            future = batcher.submit(self.REQ)
            await batcher.drain()
            return await future

        assert asyncio.run(scenario()).id == "b"
        assert calls == [1]

    def test_invalid_params_rejected(self):
        with pytest.raises(ServeError):
            MicroBatcher(_priced(lambda reqs: []), max_batch=0)
        with pytest.raises(ServeError):
            MicroBatcher(_priced(lambda reqs: []), max_wait_s=-1.0)


class _CountingService(FixedServiceTime):
    """A fixed-service backend that records each batch's size."""

    def __init__(self, seconds: float) -> None:
        super().__init__(seconds)
        self.calls: list[int] = []

    def handle_batch(self, requests):
        self.calls.append(len(requests))
        return super().handle_batch(requests)


class TestLiveReplayParity:
    """The live server and the replay run one batching core."""

    def test_same_burst_same_batches_and_ledger(self):
        n, max_batch, max_wait_s = 10, 4, 0.01
        requests = [ServeRequest(spec=SPEC, hw=HW, id=f"p-{i}")
                    for i in range(n)]
        replayed = _CountingService(0.001)
        result = replay(
            replayed, [TimedRequest(0.0, r) for r in requests],
            queue_limit=None, max_batch=max_batch, max_wait_s=max_wait_s,
        )

        live = _CountingService(0.001)

        async def scenario():
            app = ServeApp(live, queue_limit=None, max_batch=max_batch,
                           max_wait_s=max_wait_s)
            # one loop tick: every request is submitted before any awaits
            futures = [app.batcher.submit(r) for r in requests]
            await asyncio.gather(*futures)
            return app.stats()

        stats = asyncio.run(scenario())
        assert replayed.calls == live.calls == [4, 4, 2]
        for got in (result.stats, stats):
            assert (got.n_requests, got.shed, got.fallbacks) == (n, 0, 0)


class TestHttpSelect:
    def test_list_body_is_one_batch(self, tmp_path):
        service = _CountingService(0.001)
        sock = tmp_path / "serve.sock"
        item = {"layer": {"ic": 64, "oc": 64, "ih": 56, "iw": 56,
                          "kh": 3, "kw": 3, "stride": 1},
                "hw": {"vlen_bits": 512, "l2_mib": 1.0}}
        body = json.dumps([dict(item, id=f"h-{i}") for i in range(3)])

        async def scenario():
            server = AsyncServeServer(
                ServeApp(service, max_batch=8, max_wait_s=0.05),
                unix_path=sock,
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(str(sock))
                writer.write(
                    b"POST /v1/select HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(body), body.encode())
                )
                await writer.drain()
                data = await reader.read()
                writer.close()
                return json.loads(data.decode().split("\r\n\r\n", 1)[1])
            finally:
                await server.stop()

        answers = asyncio.run(scenario())
        assert [a["id"] for a in answers] == ["h-0", "h-1", "h-2"]
        assert all(a["status"] == "ok" for a in answers)
        assert service.calls == [3]


# ---------------------------------------------------------------------- #
# load generation
# ---------------------------------------------------------------------- #
class TestLoadGen:
    def test_same_seed_same_trace(self):
        spec = TraceSpec(pattern="bursty", n_requests=200, rate_rps=50.0,
                         seed=11)
        a = generate_trace(spec)
        b = generate_trace(spec)
        assert [(t.arrival, t.request.to_json()) for t in a] == [
            (t.arrival, t.request.to_json()) for t in b
        ]

    def test_different_seeds_differ(self):
        a = generate_trace(TraceSpec(n_requests=50, seed=1))
        b = generate_trace(TraceSpec(n_requests=50, seed=2))
        assert [t.arrival for t in a] != [t.arrival for t in b]

    @pytest.mark.parametrize("pattern", ["uniform", "diurnal", "bursty"])
    def test_patterns_produce_increasing_arrivals(self, pattern):
        trace = generate_trace(
            TraceSpec(pattern=pattern, n_requests=100, rate_rps=200.0, seed=5)
        )
        arrivals = [t.arrival for t in trace]
        assert len(trace) == 100
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)
        assert [t.request.id for t in trace] == [f"r-{i}" for i in range(100)]

    def test_burst_compresses_the_middle_third(self):
        slow = generate_trace(
            TraceSpec(pattern="uniform", n_requests=300, rate_rps=100.0,
                      seed=4)
        )
        fast = generate_trace(
            TraceSpec(pattern="bursty", n_requests=300, rate_rps=100.0,
                      seed=4, burst_factor=10.0)
        )
        def span(trace, lo, hi):
            return trace[hi].arrival - trace[lo].arrival
        # identical gaps outside the window, 10x tighter inside it
        assert span(fast, 100, 199) == pytest.approx(
            span(slow, 100, 199) / 10.0
        )
        assert span(fast, 0, 99) == pytest.approx(span(slow, 0, 99))

    @pytest.mark.parametrize("bad", [
        dict(pattern="sinusoid"),
        dict(n_requests=0),
        dict(rate_rps=0.0),
        dict(burst_factor=0.5),
        dict(diurnal_amplitude=1.0),
        dict(diurnal_period_s=0.0),
    ])
    def test_spec_validation(self, bad):
        with pytest.raises(ServeError):
            TraceSpec(**bad)

    def test_empty_workload_rejected(self):
        with pytest.raises(ServeError, match="workload"):
            generate_trace(TraceSpec(n_requests=1), workload=[])

    def test_replay_validates_parameters(self):
        service = PredictionService()
        trace = generate_trace(TraceSpec(n_requests=1))
        with pytest.raises(ServeError):
            replay(service, trace, servers=0)
        with pytest.raises(ServeError):
            replay(service, trace, max_batch=0)


# ---------------------------------------------------------------------- #
# HTTP error paths: bad bodies get an HTTP answer, never a hang-up
# ---------------------------------------------------------------------- #
class TestHttpErrorPaths:
    """Satellite fix (ISSUE 10): malformed JSON → 400, oversized → 413."""

    def _boot(self, tmp_path):
        from repro.engine.executor import EvaluationEngine
        service = PredictionService(engine=EvaluationEngine())
        app = ServeApp(service, queue_limit=64, max_batch=8, max_wait_s=0.002)
        return AsyncServeServer(app, unix_path=tmp_path / "serve.sock")

    def _roundtrip(self, tmp_path, raw: bytes) -> tuple[int, dict]:
        async def scenario():
            server = self._boot(tmp_path)
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    str(tmp_path / "serve.sock")
                )
                writer.write(raw)
                if hasattr(writer, "write_eof"):
                    writer.write_eof()
                await writer.drain()
                data = await asyncio.wait_for(reader.read(), timeout=10.0)
                writer.close()
                return data
            finally:
                await server.stop()

        data = asyncio.run(scenario())
        assert data, "the server must answer, not drop the connection"
        head, body = data.decode().split("\r\n\r\n", 1)
        return int(head.split()[1]), json.loads(body)

    def test_malformed_json_body_is_400(self, tmp_path):
        body = b"{this is not json"
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400
        assert "bad JSON" in payload["error"]

    def test_truncated_body_is_400_not_a_dropped_connection(self, tmp_path):
        # Content-Length promises 1000 bytes; the client sends 4 and EOFs
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 1000\r\n\r\noops"
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400
        assert "truncated" in payload["error"]

    def test_negative_content_length_is_400(self, tmp_path):
        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: -5\r\n\r\n"
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 400

    def test_oversized_body_is_413(self, tmp_path):
        from repro.serve.server import MAX_BODY_BYTES

        raw = (
            b"POST /v1/select HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        )
        status, payload = self._roundtrip(tmp_path, raw)
        assert status == 413
        assert "too large" in payload["error"]


# ---------------------------------------------------------------------- #
# prediction service core
# ---------------------------------------------------------------------- #
class TestPredictionService:
    def test_no_selector_serves_from_safe_fallback(self):
        service = PredictionService()
        response = service.handle(ServeRequest(spec=SPEC, hw=HW, id="f"))
        assert response.status == "ok"
        assert response.served_by == "fallback"
        assert response.algorithm == "im2col_gemm6"
        direct = layer_cycles("im2col_gemm6", SPEC, HW, fallback=True)
        assert response.cycles == direct.cycles

    def test_selection_is_memoized_per_pair(self, trained_selector):
        service = PredictionService(selector=trained_selector)
        r1 = service.handle(ServeRequest(spec=SPEC, hw=HW, id="m1"))
        assert service.snapshot()["selection_cache_entries"] == 1
        r2 = service.handle(ServeRequest(spec=SPEC, hw=HW, id="m2"))
        assert r1.algorithm == r2.algorithm
        assert r2.served_by == "predictor"

    def test_broken_selector_trips_breaker_then_bypasses_it(self):
        class Exploding:
            def select_many(self, pairs):
                raise RuntimeError("forest on fire")

        service = PredictionService(
            selector=Exploding(), max_selector_failures=2
        )
        requests = [ServeRequest(spec=SPEC, hw=HW, id=f"x{i}")
                    for i in range(3)]
        responses = service.handle_batch(requests)
        assert service.breaker.open
        assert all(r.status == "ok" for r in responses)
        assert all(r.served_by == "fallback" for r in responses)

    def test_probe_is_a_cached_canary(self):
        service = PredictionService()
        assert service.probe() is True
        hits_before = service.engine.cache.stats.hits
        assert service.probe() is True  # second probe: memo-cache hit
        assert service.engine.cache.stats.hits > hits_before

    def test_probe_reports_false_on_broken_engine(self):
        service = PredictionService()

        class Broken:
            def evaluate_many(self, tasks, **kwargs):
                raise RuntimeError("engine down")

        service.engine = Broken()
        assert service.probe() is False

    def test_validates_configuration(self):
        with pytest.raises(ServeError):
            PredictionService(fallback_policy="panic")
        with pytest.raises(Exception):
            PredictionService(safe_algorithm="quantum")
        with pytest.raises(ServeError):
            PredictionService(selection_cache_size=-1)


# ---------------------------------------------------------------------- #
# selector batch API
# ---------------------------------------------------------------------- #
class TestSelectorBatchAPI:
    def test_select_many_matches_select(self, trained_selector):
        pairs = [(SPEC, HW),
                 (ConvSpec(ic=3, oc=64, ih=224, iw=224, kh=3, kw=3, stride=1),
                  HardwareConfig.paper2_rvv(1024, 2.0))]
        batched = trained_selector.select_many(pairs)
        assert batched == [trained_selector.select(s, hw) for s, hw in pairs]

    def test_select_many_empty(self, trained_selector):
        assert trained_selector.select_many([]) == []

    def test_unfitted_selector_raises(self):
        from repro.selection.predictor import AlgorithmSelector

        with pytest.raises(NotFittedError):
            AlgorithmSelector().select_many([(SPEC, HW)])

    def test_features_many_stacks_feature_rows(self, trained_selector):
        pairs = [(SPEC, HW), (SPEC, HardwareConfig.paper2_rvv(256, 0.5))]
        X = trained_selector.features_many(pairs)
        assert X.shape == (2, 12)
        assert X[0].tolist() == [float(HW.vlen_bits), float(HW.l2_mib)] + SPEC.features()


# ---------------------------------------------------------------------- #
# SQLite cache tier
# ---------------------------------------------------------------------- #
class TestSQLiteTier:
    def _record(self):
        return layer_cycles("im2col_gemm6", SPEC, HW)

    def _key(self):
        return cache_key("im2col_gemm6", SPEC, HW)

    def test_survives_across_cache_instances(self, tmp_path):
        db = tmp_path / "memo.db"
        record = self._record()
        first = MemoCache(sqlite_path=db)
        first.put(self._key(), record)
        # a brand-new cache (fresh memory tier) hits the SQLite tier
        second = MemoCache(sqlite_path=db)
        got = second.get(self._key())
        assert got is not None and got.cycles == record.cycles
        assert second.stats.sqlite_hits == 1
        assert second.stats.disk_hits == 1  # sqlite hits count as disk hits
        # and the hit was promoted into memory
        second.get(self._key())
        assert second.stats.hits == 1

    def test_corrupt_payload_is_deleted_and_counted(self, tmp_path):
        db = tmp_path / "memo.db"
        cache = MemoCache(sqlite_path=db)
        cache.put(self._key(), self._record())
        with sqlite3.connect(db) as conn:  # garble the row out-of-band
            conn.execute("UPDATE memo SET payload = ?", ('{"trunc',))
        fresh = MemoCache(sqlite_path=db)
        assert fresh.get(self._key()) is None
        assert fresh.stats.corrupt_entries == 1
        assert fresh.stats.misses == 1
        with sqlite3.connect(db) as conn:  # the bad row is gone
            assert conn.execute("SELECT COUNT(*) FROM memo").fetchone()[0] == 0

    def test_stale_schema_rows_read_as_misses(self, tmp_path):
        db = tmp_path / "memo.db"
        cache = MemoCache(sqlite_path=db)
        cache.put(self._key(), self._record())
        with sqlite3.connect(db) as conn:
            conn.execute("UPDATE memo SET schema = schema + 1")
        fresh = MemoCache(sqlite_path=db)
        assert fresh.get(self._key()) is None
        assert fresh.stats.corrupt_entries == 0  # stale, not corrupt

    @pytest.mark.chaos
    def test_injected_write_error_degrades_visibly(self, tmp_path):
        cache = MemoCache(sqlite_path=tmp_path / "memo.db")
        with faults.inject("seed=3,cache.write_error=1.0"):
            cache.put(self._key(), self._record())
        assert cache.stats.write_errors == 1
        assert cache.get(self._key()) is not None  # memory tier still has it
        fresh = MemoCache(sqlite_path=tmp_path / "memo.db")
        assert fresh.get(self._key()) is None  # but nothing was persisted

    @pytest.mark.chaos
    def test_injected_corruption_recovers_on_read(self, tmp_path):
        db = tmp_path / "memo.db"
        cache = MemoCache(sqlite_path=db)
        with faults.inject("seed=3,cache.corrupt=1.0"):
            cache.put(self._key(), self._record())
        fresh = MemoCache(sqlite_path=db)
        assert fresh.get(self._key()) is None
        assert fresh.stats.corrupt_entries == 1

    def test_clear_disk_empties_the_sqlite_tier(self, tmp_path):
        db = tmp_path / "memo.db"
        cache = MemoCache(sqlite_path=db)
        cache.put(self._key(), self._record())
        cache.clear(disk=True)
        assert cache.get(self._key()) is None

    def test_tier_len_contains_and_close(self, tmp_path):
        tier = SQLiteTier(tmp_path / "t.db")
        assert len(tier) == 0 and "k" not in tier
        tier.put("k", json.dumps(
            {"algorithm": "im2col_gemm6", "phases": []}
        ))
        assert len(tier) == 1 and "k" in tier
        tier.delete("k")
        assert len(tier) == 0
        tier.close()
        assert len(tier) == 0  # reconnects lazily after close

    def test_cross_process_sharing(self, tmp_path):
        """A child process warms the cache; the parent reads the entry."""
        db = tmp_path / "memo.db"
        key = self._key()
        child = textwrap.dedent(f"""
            from repro.engine.cache import MemoCache
            from repro.algorithms.registry import layer_cycles
            from repro.nn.layer import ConvSpec
            from repro.simulator.hwconfig import HardwareConfig

            spec = ConvSpec(ic=64, oc=64, ih=56, iw=56, kh=3, kw=3, stride=1)
            hw = HardwareConfig.paper2_rvv(512, 1.0)
            cache = MemoCache(sqlite_path={str(db)!r})
            cache.put({key!r}, layer_cycles("im2col_gemm6", spec, hw))
        """)
        env = dict(os.environ, PYTHONPATH="src")
        subprocess.run([sys.executable, "-c", child], check=True, env=env,
                       cwd="/root/repo", timeout=120)
        cache = MemoCache(sqlite_path=db)
        got = cache.get(key)
        assert got is not None
        assert got.cycles == self._record().cycles
        assert cache.stats.sqlite_hits == 1
