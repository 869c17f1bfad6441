"""Span wrappers around the program's public functions, by layer.

Each installer patches classes and module functions of ``repro`` in the
current process so that every call records a span on the given tracer.
They run only in the benchmark's traced child processes.
:func:`put_layers` turns the resulting span table into the per-layer
metrics that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import time

from spans import Tracer
from stats import Outcome


def _rows(args, result) -> dict:
    return {"rows": len(result)}


def trace_selection_and_engine(tracer: Tracer) -> None:
    """Dataset build, forest fit/predict, batched selection, grid evaluation."""
    from repro.engine.executor import EvaluationEngine
    from repro.selection import dataset
    from repro.selection.forest import RandomForestClassifier
    from repro.selection.predictor import AlgorithmSelector

    tracer.patch_method(AlgorithmSelector, "train", "selection.train")
    tracer.patch_method(
        RandomForestClassifier, "fit", "selection.forest_fit",
        counts=lambda args, result: {"rows": len(args[1])},
    )
    # predict() goes through predict_proba(), so this sees every prediction
    tracer.patch_method(
        RandomForestClassifier, "predict_proba", "selection.forest_predict",
        counts=_rows,
    )
    tracer.patch_method(
        AlgorithmSelector, "select_many", "selection.select_many", counts=_rows
    )
    tracer.patch_method(
        EvaluationEngine, "evaluate_many", "engine.evaluate_many",
        counts=lambda args, result: {"cells": len(result)},
    )
    tracer.patch_function(dataset.build_dataset, "selection.build_dataset")


def trace_schedule(tracer: Tracer) -> None:
    """The seeded schedule search behind ``schedule-search``."""
    from repro.schedule import search

    tracer.patch_function(search.search_schedules, "schedule.search")


def trace_serve(tracer: Tracer) -> None:
    """Parse, batch wait, batch handling and encode inside ``repro-serve``.

    ``serve.batch_wait`` runs from ``MicroBatcher.submit`` to the start
    of the ``handle_batch`` call that takes the request; the batch span
    carries the ids of the requests it answered.
    """
    from repro.serve.batcher import MicroBatcher
    from repro.serve.protocol import ServeRequest, ServeResponse
    from repro.serve.service import PredictionService

    tracer.patch_method(
        ServeRequest, "from_json", "serve.parse",
        rid=lambda args, result: result.id,
    )
    tracer.patch_method(
        ServeResponse, "to_json", "serve.encode",
        rid=lambda args, result: args[0].id,
    )

    submitted: dict[int, int] = {}
    submit = MicroBatcher.submit
    handle = PredictionService.handle_batch

    def traced_submit(self, request):
        submitted[id(request)] = time.perf_counter_ns()
        return submit(self, request)

    def handle_batch(self, requests):
        now = time.perf_counter_ns()
        for request in requests:
            start = submitted.pop(id(request), None)
            if start is not None:
                tracer.record("serve.batch_wait", start, now, rid=request.id)
        return handle(self, requests)

    MicroBatcher.submit = traced_submit
    PredictionService.handle_batch = tracer.wrap(
        handle_batch, "serve.handle_batch",
        counts=lambda args, result: {"requests": len(result)},
        rid=lambda args, result: " ".join(r.id for r in args[1]),
    )


#: Harnesses of ``paper2`` whose self time is reported.
SELF_TIMED = ("selection", "selection-features", "fig09", "fig10",
              "schedule-search", "fig12")
#: The Paper II algorithm menu, whose kernels ``trace`` runs.
KERNELS = ("direct", "im2col_gemm3", "im2col_gemm6", "winograd")


def put_layers(out: Outcome, layers: dict[str, dict[str, float]]) -> None:
    """Per-layer metrics from a traced run's span table.

    A layer the workload never calls reads 0, so every workload reports
    the same names.
    """
    out.layers = layers

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def put_mean(metric: str, name: str, key: str, scale: float, unit: str):
        calls = get(name, "calls")
        out.put(metric, get(name, key) / calls * scale if calls else 0.0,
                unit, int(calls))

    for name in SELF_TIMED:
        span = f"experiments.{name}"
        out.put(f"{span}.self_s", get(span, "self_s"), "s", int(get(span, "calls")))
    out.put("selection.train.calls", get("selection.train", "calls"), "count", 1)
    for name, extra in (
        ("selection.build_dataset", None),
        ("selection.forest_fit", None),
        ("selection.forest_predict", "rows"),
        ("selection.select_many", "rows"),
        ("engine.evaluate_many", "cells"),
    ):
        out.put(f"{name}.calls", get(name, "calls"), "count", 1)
        out.put(f"{name}.s", get(name, "total_s"), "s", int(get(name, "calls")))
        if extra:
            out.put(f"{name}.{extra}", get(name, extra), "count", 1)
    out.put("schedule.search_s", get("schedule.search", "total_s"), "s",
            int(get("schedule.search", "calls")))
    put_mean("serve.parse_us", "serve.parse", "total_s", 1e6, "us")
    put_mean("serve.encode_us", "serve.encode", "total_s", 1e6, "us")
    put_mean("serve.batch_wait_ms", "serve.batch_wait", "total_s", 1e3, "ms")
    put_mean("serve.handle_batch_ms", "serve.handle_batch", "total_s", 1e3, "ms")
    put_mean("serve.batch_size_mean", "serve.handle_batch", "requests", 1.0,
             "count")
    for algo in KERNELS:
        span = f"kernels.{algo}.emit"
        out.put(f"{span}_s", get(span, "total_s"), "s", int(get(span, "calls")))
        out.put(f"kernels.{algo}.events", get(span, "events"), "count", 1)
    out.put("timing.replay_s", get("timing.replay", "total_s"), "s",
            int(get("timing.replay", "calls")))
    out.put("analytical.layer_cycles_s", get("analytical.layer_cycles", "total_s"),
            "s", int(get("analytical.layer_cycles", "calls")))
