"""Golden sha256 digests of the serving studies' exact outputs.

Five outputs are pinned bit for bit, so a refactor of the virtual-clock
serving loop (or of the studies built on it) cannot move a number
silently:

* the 10k-request bursty single-service replay (the ``TestBursty10k``
  configuration): responses, request timelines, shed ids, stats;
* the routed kill-1-of-4 chaos replay (the ``TestChaosKillOneOfFour``
  configuration);
* the ``serving-latency`` and ``ablation-blocks`` experiment tables;
* the stdout of ``examples/design_recommender.py``.

After an intentional change to one of them, regenerate with::

    PYTHONPATH=src python -c "import tests.test_serving_digests as g; g.regenerate()"

and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests" / "golden" / "serving_digests.json"


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _timelines(stats) -> str:
    return json.dumps([[r.arrival, r.start, r.finish] for r in stats.records])


def _replay_digest(result) -> str:
    from repro.serve import stats_dict

    return _sha(
        "\n".join(r.to_json() for r in result.responses),
        _timelines(result.stats),
        json.dumps(result.shed_ids),
        json.dumps(stats_dict(result.stats), sort_keys=True),
    )


def _bursty10k(selector) -> str:
    """The ``TestBursty10k`` replay: 8 servers, 2x capacity, batched."""
    from repro.algorithms.registry import ALGORITHM_NAMES, layer_cycles
    from repro.engine.cache import MemoCache
    from repro.engine.executor import EvaluationEngine
    from repro.serve import (
        PredictionService,
        TraceSpec,
        default_workload,
        generate_trace,
        replay,
    )

    servers, queue_limit, max_batch, max_wait_s = 8, 8, 64, 0.002
    pool = default_workload()
    safe = [
        layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(
            hw.freq_ghz
        )
        for s, hw in pool
    ]
    worst = max(
        layer_cycles(name, s, hw, fallback=True).seconds(hw.freq_ghz)
        for s, hw in pool
        for name in ALGORITHM_NAMES
    )
    trace = generate_trace(
        TraceSpec(
            pattern="bursty", n_requests=10_000,
            rate_rps=2.0 * servers / (sum(safe) / len(safe)),
            seed=20240812, burst_factor=4.0,
        ),
        pool,
    )
    service = PredictionService(
        engine=EvaluationEngine(cache=MemoCache()), selector=selector
    )
    result = replay(
        service, trace, servers=servers, queue_limit=queue_limit,
        slo_s=max_wait_s + (queue_limit + 1) * worst,
        max_batch=max_batch, max_wait_s=max_wait_s,
    )
    return _replay_digest(result)


def _routed_chaos() -> str:
    """The routed 1-of-4 replica kill (``TestChaosKillOneOfFour``)."""
    from repro import faults
    from repro.algorithms.registry import layer_cycles
    from repro.engine.executor import EvaluationEngine
    from repro.nn.models.vgg16 import vgg16_conv_specs
    from repro.serve import (
        InProcessReplica,
        PredictionService,
        ReplicaRouter,
        TraceSpec,
        generate_trace,
        routed_replay,
    )
    from repro.simulator.hwconfig import HardwareConfig

    hws = [
        HardwareConfig.paper2_rvv(v, l2) for v in (256, 512) for l2 in (1.0, 2.0)
    ]
    pool = [(s, hw) for hw in hws for s in vgg16_conv_specs()]
    safe = [
        layer_cycles("im2col_gemm6", s, hw, fallback=True).seconds(
            hw.freq_ghz
        )
        for s, hw in pool
    ]
    trace = generate_trace(
        TraceSpec(
            pattern="bursty", n_requests=10_000,
            rate_rps=2.0 * 4 / (sum(safe) / len(safe)),
            seed=20240812, burst_factor=4.0,
        ),
        pool,
    )
    engine = EvaluationEngine()
    router = ReplicaRouter(
        [
            InProcessReplica(
                f"replica-{i}", PredictionService(engine=engine, selector=None)
            )
            for i in range(4)
        ],
        seed=7, max_retries=3, retry_backoff_s=0.001, probe_interval_s=0.5,
        health_kwargs={"eject_for_s": 1e6},
    )
    with faults.inject("seed=4,replica.crash=0.0005"):
        result = routed_replay(
            router, trace, queue_limit=16, slo_s=10.0,
            max_batch=64, max_wait_s=0.002,
        )
    return _sha(
        _replay_digest(result),
        json.dumps(result.router_stats, sort_keys=True),
    )


def _plain(value):
    """JSON-able form of an experiment's ``data`` (exact float values)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int) or hasattr(value, "__index__"):
        return int(value)
    return float(value)


def _experiment(name: str) -> str:
    from repro.experiments.cli import run_experiment

    result = run_experiment(name)
    return _sha(
        result.table.render(),
        json.dumps(_plain(result.data), sort_keys=True),
    )


def _design_recommender() -> str:
    path = REPO / "examples" / "design_recommender.py"
    spec = importlib.util.spec_from_file_location("example_recommender", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    return _sha(out.getvalue())


def _current(selector) -> dict[str, str]:
    return {
        "bursty10k_replay": _bursty10k(selector),
        "routed_kill_one_of_four": _routed_chaos(),
        "serving_latency_table": _experiment("serving-latency"),
        "ablation_blocks_table": _experiment("ablation-blocks"),
        "design_recommender_stdout": _design_recommender(),
    }


def regenerate() -> None:  # pragma: no cover - maintenance helper
    """Rewrite the golden file from the current code (see module docstring)."""
    from repro.selection import AlgorithmSelector, build_dataset

    selector = AlgorithmSelector(n_estimators=60)
    selector.train(build_dataset())
    GOLDEN_PATH.write_text(
        json.dumps(_current(selector), indent=2, sort_keys=True) + "\n"
    )


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.slow
def test_bursty10k_replay_digest(golden, trained_selector):
    assert _bursty10k(trained_selector) == golden["bursty10k_replay"]


@pytest.mark.slow
@pytest.mark.chaos
def test_routed_kill_one_of_four_digest(golden):
    assert _routed_chaos() == golden["routed_kill_one_of_four"]


@pytest.mark.parametrize(
    "name, key",
    [
        ("serving-latency", "serving_latency_table"),
        ("ablation-blocks", "ablation_blocks_table"),
    ],
)
def test_experiment_table_digest(golden, name, key):
    assert _experiment(name) == golden[key]


def test_design_recommender_stdout_digest(golden):
    assert _design_recommender() == golden["design_recommender_stdout"]
