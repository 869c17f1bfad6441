"""Tests of the observability subsystem (``repro.obs``).

Covers span nesting/aggregation, counter/gauge/histogram math, the
disabled-mode no-op path (shared singleton, no recording), cross-process
snapshot/merge, the Chrome ``trace_event`` export schema, and the
``repro-experiments --profile`` CLI flow end to end.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.obs.export import aggregate_spans, chrome_trace, to_dict
from repro.obs.metrics import (
    CounterStore,
    GaugeStore,
    Histogram,
    HistogramStore,
    percentile,
)
from repro.obs.recorder import NOOP_SPAN, NULL_RECORDER, Recorder


@pytest.fixture(autouse=True)
def _clean_global_recorder():
    """Every test starts and ends with profiling disabled."""
    obs.disable()
    yield
    obs.disable()


# --------------------------------------------------------------------- #
# disabled mode
# --------------------------------------------------------------------- #
class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.get_recorder() is NULL_RECORDER

    def test_span_returns_shared_singleton(self):
        # the no-op path must not allocate a new object per span
        assert obs.span("a") is obs.span("b", cat="kernel", attr=1)
        assert obs.span("a") is NOOP_SPAN

    def test_noop_span_is_a_context_manager(self):
        with obs.span("anything") as s:
            assert s is NOOP_SPAN

    def test_metric_calls_are_noops(self):
        obs.count("c", 3)
        obs.gauge("g", 1.0)
        obs.observe("h", 0.5)  # nothing raised, nothing stored

    def test_enable_disable_roundtrip(self):
        rec = obs.enable()
        assert obs.enabled() and obs.get_recorder() is rec
        obs.disable()
        assert not obs.enabled()
        assert obs.get_recorder() is NULL_RECORDER


# --------------------------------------------------------------------- #
# spans: nesting, threading, aggregation
# --------------------------------------------------------------------- #
class TestSpans:
    def test_nesting_sets_parent_ids(self):
        rec = obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = {(" / ".join(self._path(s, rec))) for s in rec.spans}
        assert spans == {"outer", "outer / inner"}
        inner = [s for s in rec.spans if s.name == "inner"]
        outer = next(s for s in rec.spans if s.name == "outer")
        assert len(inner) == 2
        assert all(s.parent_id == outer.span_id for s in inner)
        assert outer.parent_id == -1

    @staticmethod
    def _path(span, rec):
        by_id = {s.span_id: s for s in rec.spans}
        names = []
        cur = span
        while cur is not None:
            names.append(cur.name)
            cur = by_id.get(cur.parent_id)
        return list(reversed(names))

    def test_span_durations_are_positive_and_nested(self):
        rec = obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.002)
        inner = next(s for s in rec.spans if s.name == "inner")
        outer = next(s for s in rec.spans if s.name == "outer")
        assert inner.dur_ns > 0
        assert outer.dur_ns >= inner.dur_ns
        assert outer.start_ns <= inner.start_ns

    def test_threads_nest_independently(self):
        rec = obs.enable()

        def worker():
            with obs.span("thread_root"):
                with obs.span("thread_child"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(4)]
        with obs.span("main_root"):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        roots = [s for s in rec.spans if s.name == "thread_root"]
        # thread spans must root at -1, not under the main thread's span
        assert len(roots) == 4
        assert all(s.parent_id == -1 for s in roots)
        children = [s for s in rec.spans if s.name == "thread_child"]
        assert {c.parent_id for c in children} == {r.span_id for r in roots}

    def test_instrument_decorator(self):
        rec = obs.enable()

        @obs.instrument(cat="test")
        def timed_fn(x):
            return x + 1

        assert timed_fn(1) == 2
        assert timed_fn(2) == 3
        assert len(rec.spans) == 2
        assert all(s.cat == "test" for s in rec.spans)
        assert rec.spans[0].name.endswith("timed_fn")

    def test_aggregate_spans_totals_and_self_time(self):
        rec = obs.enable()
        for _ in range(3):
            with obs.span("parent"):
                with obs.span("child"):
                    pass
        nodes = aggregate_spans(list(rec.spans))
        parent = nodes[("parent",)]
        child = nodes[("parent", "child")]
        assert parent["count"] == 3 and child["count"] == 3
        # self = total minus direct-children time
        assert parent["self_ns"] == parent["total_ns"] - child["total_ns"]
        assert child["self_ns"] == child["total_ns"]


# --------------------------------------------------------------------- #
# metric math
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_math(self):
        c = CounterStore()
        c.add("x")
        c.add("x", 2.5)
        c.add("y", -1)
        assert c.get("x") == 3.5
        assert c.get("y") == -1
        assert c.get("missing") == 0.0
        c.merge({"x": 0.5, "z": 7})
        assert c.as_dict() == {"x": 4.0, "y": -1, "z": 7}

    def test_gauge_math(self):
        g = GaugeStore()
        for v in (3.0, 1.0, 2.0):
            g.set("depth", v)
        gv = g.get("depth")
        assert gv is not None
        assert (gv.last, gv.min, gv.max, gv.n) == (2.0, 1.0, 3.0, 3)
        assert gv.mean == pytest.approx(2.0)

    def test_gauge_merge(self):
        a, b = GaugeStore(), GaugeStore()
        a.set("q", 1.0)
        b.set("q", 5.0)
        b.set("q", 3.0)
        a.merge(b.snapshot())
        gv = a.get("q")
        assert gv is not None
        assert (gv.min, gv.max, gv.n, gv.last) == (1.0, 5.0, 3, 3.0)
        assert gv.mean == pytest.approx(3.0)

    def test_percentile_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = sorted(rng.standard_normal(257).tolist())
        for q in (0, 25, 50, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), rel=1e-12
            )

    def test_percentile_edges(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        assert percentile([4.0], 99) == 4.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        s = h.summary()
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert (s.min, s.max) == (1.0, 100.0)
        assert s.p50 == pytest.approx(float(np.percentile(range(1, 101), 50)))
        assert s.p95 == pytest.approx(float(np.percentile(range(1, 101), 95)))
        assert s.p99 == pytest.approx(float(np.percentile(range(1, 101), 99)))

    def test_empty_histogram_summary_is_zero(self):
        s = Histogram().summary()
        assert s.count == 0 and s.mean == 0.0 and s.p99 == 0.0

    def test_histogram_store_merge(self):
        a, b = HistogramStore(), HistogramStore()
        a.observe("lat", 1.0)
        b.observe("lat", 3.0)
        a.merge(b.snapshot())
        hist = a.get("lat")
        assert hist is not None and sorted(hist.values) == [1.0, 3.0]


# --------------------------------------------------------------------- #
# snapshot / merge (cross-process aggregation)
# --------------------------------------------------------------------- #
class TestSnapshotMerge:
    def test_merge_remaps_ids_and_reparents_roots(self):
        worker = Recorder()
        with worker.span("w_root"):
            with worker.span("w_child"):
                pass
        worker.count("points", 5)
        worker.observe("lat", 0.25)

        parent = Recorder()
        with parent.span("dispatch") as dispatch:
            pass
        parent.count("points", 2)
        parent.merge(worker.snapshot(), parent_id=dispatch.span_id)

        names = {s.name: s for s in parent.spans}
        assert names["w_root"].parent_id == dispatch.span_id
        assert names["w_child"].parent_id == names["w_root"].span_id
        # remapped ids must not collide with the parent's own
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))
        assert parent.counters.get("points") == 7
        hist = parent.histograms.get("lat")
        assert hist is not None and hist.values == [0.25]

    def test_snapshot_is_json_serializable(self):
        rec = Recorder()
        with rec.span("s", "c", {"answer": 42}):
            pass
        json.dumps(rec.snapshot())  # tuples serialize as lists; no error


# --------------------------------------------------------------------- #
# exports
# --------------------------------------------------------------------- #
class TestExport:
    def _populated_recorder(self) -> Recorder:
        rec = Recorder()
        with rec.span("root", "engine", {"layer": 3}):
            with rec.span("leaf", "kernel"):
                pass
        rec.count("hits", 10)
        rec.gauge("depth", 2.0)
        rec.observe("lat", 0.5)
        return rec

    def test_chrome_trace_schema(self):
        trace = chrome_trace(self._populated_recorder())
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        c_events = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in x_events} == {"root", "leaf"}
        for e in x_events:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(e)
            assert e["ts"] >= 0 and e["dur"] >= 0
        assert {e["name"] for e in c_events} == {"hits", "depth"}
        root = next(e for e in x_events if e["name"] == "root")
        assert root["args"] == {"layer": 3}
        json.dumps(trace)  # must be pure-JSON serializable

    def test_write_chrome_trace_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(self._populated_recorder(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"], "trace file has no events"

    def test_to_dict_shape(self):
        dump = to_dict(self._populated_recorder())
        assert {s["name"] for s in dump["spans"]} == {"root", "leaf"}
        assert dump["counters"] == {"hits": 10}
        assert dump["histograms"]["lat"]["count"] == 1.0

    def test_render_table_mentions_everything(self):
        text = obs.render_table(self._populated_recorder())
        for needle in ("root", "leaf", "hits", "depth", "lat", "%wall"):
            assert needle in text


# --------------------------------------------------------------------- #
# instrumented subsystems
# --------------------------------------------------------------------- #
class TestInstrumentation:
    def test_engine_records_spans_and_cache_counters(self):
        from repro.engine import EvaluationEngine
        from repro.nn.models import vgg16_conv_specs
        from repro.simulator.hwconfig import HardwareConfig

        rec = obs.enable()
        engine = EvaluationEngine()
        specs = vgg16_conv_specs()[:2]
        hw = HardwareConfig.paper2_rvv(512, 1.0)
        engine.sweep(specs, [hw], ("direct", "winograd"))
        engine.sweep(specs, [hw], ("direct", "winograd"))  # warm pass
        names = {s.name for s in rec.spans}
        assert "engine.evaluate_many" in names
        assert "engine.point" in names
        assert rec.counters.get("engine.cache.misses") == 4
        assert rec.counters.get("engine.cache.memory_hits") == 4

    def test_timing_replay_records_phases(self):
        from repro.isa import VectorMachine
        from repro.nn.layer import ConvSpec
        from repro.simulator.hwconfig import HardwareConfig
        from repro.simulator.timing import TraceTimingModel

        spec = ConvSpec(ic=4, oc=4, ih=10, iw=10, kh=3, kw=3, index=1)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 10, 10)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        machine = VectorMachine(512)
        from repro.algorithms.direct import DirectConv

        DirectConv().run_vectorized(spec, x, w, machine)

        rec = obs.enable()
        model = TraceTimingModel(HardwareConfig.paper2_rvv(512, 1.0))
        res = model.run(machine.trace, flush=True, engine="batched")
        names = {s.name for s in rec.spans}
        assert {"timing.run", "timing.vector", "timing.memory",
                "timing.cache_replay"} <= names
        assert rec.counters.get("timing.l1_misses") == res.l1_misses
        assert rec.counters.get("cache.l1.misses") == res.l1_misses

    def test_serving_records_latency_histogram(self, md_c):
        rec = obs.enable()
        result = md_c(2, 0.01, 100.0, 200, seed=7, queue_limit=1)
        stats = result.stats
        lat = rec.histograms.get("serve.latency_s")
        wait = rec.histograms.get("serve.queue_wait_s")
        assert lat is not None and len(lat.values) == stats.n_requests
        assert wait is not None and len(wait.values) == stats.n_requests
        assert max(lat.values) == pytest.approx(
            max(r.latency for r in stats.records)
        )
        assert stats.shed > 0
        assert rec.counters.get("serve.shed") == stats.shed
        assert stats.offered == 200

    def test_kernel_phase_spans(self):
        from repro.algorithms.direct import DirectConv
        from repro.isa import VectorMachine
        from repro.nn.layer import ConvSpec

        spec = ConvSpec(ic=4, oc=4, ih=10, iw=10, kh=3, kw=3, index=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 10, 10)).astype(np.float32)
        w = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        rec = obs.enable()
        DirectConv().run_vectorized(spec, x, w, VectorMachine(512, trace="counts"))
        names = {s.name for s in rec.spans}
        assert {"direct.pack", "direct.gemm", "direct.unpack"} <= names


# --------------------------------------------------------------------- #
# CLI --profile flow
# --------------------------------------------------------------------- #
class TestProfileCLI:
    def test_profile_writes_loadable_trace(self, tmp_path, capsys):
        from repro.experiments.cli import main

        trace_path = tmp_path / "trace.json"
        assert main(["table1", f"--profile={trace_path}"]) == 0
        out = capsys.readouterr().out
        assert "== spans" in out
        assert "experiment.table1" in out
        trace = json.loads(trace_path.read_text())
        assert any(
            e["name"] == "experiment.table1" for e in trace["traceEvents"]
        )
        # the CLI must disable profiling again on exit
        assert not obs.enabled()

    def test_no_profile_flag_stays_disabled(self, capsys):
        from repro.experiments.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "== spans" not in out
        assert not obs.enabled()
