"""Figs. 9-10 — network time: single algorithm vs Optimal vs Predicted.

For every point of the 16-config grid, the total conv time of the network
when one algorithm serves all layers (Winograd* falls back to im2col+GEMM
where inapplicable), when the cycle-optimal algorithm is chosen per layer,
and when the trained random forest predicts the per-layer algorithm.
"""

from __future__ import annotations

from repro.algorithms.registry import ALGORITHM_NAMES, get_algorithm
from repro.experiments.configs import FREQ_GHZ, grid, workload
from repro.experiments.report import ExperimentResult
from repro.selection import AlgorithmSelector, build_dataset
from repro.serving.throughput import network_cycles
from repro.utils.ascii_chart import bar_chart
from repro.utils.tables import Table

POLICIES: tuple[str, ...] = ALGORITHM_NAMES + ("optimal", "predicted")


def selection_figure(
    model: str, experiment: str, fig_no: int, selector: AlgorithmSelector | None = None
) -> ExperimentResult:
    """Network execution time per policy across the 16-config grid."""
    specs = workload(model)
    if selector is None:
        selector = AlgorithmSelector().fit(build_dataset())
    labels = {n: get_algorithm(n).label for n in ALGORITHM_NAMES}
    labels["winograd"] = "Winograd*"  # the network policy falls back
    labels["optimal"] = "Optimal"
    labels["predicted"] = "Predicted Optimal"

    seconds: dict[str, list[float]] = {p: [] for p in POLICIES}
    configs = grid()
    for hw in configs:
        for policy in POLICIES:
            t = network_cycles(specs, hw, policy=policy, selector=selector)
            seconds[policy].append(t.total_cycles / (FREQ_GHZ * 1e9))

    table = Table(
        ["config"] + [labels[p] for p in POLICIES],
        title=f"Fig. {fig_no}: {model} network time (s) per policy",
    )
    for i, hw in enumerate(configs):
        table.add_row([hw.label()] + [seconds[p][i] for p in POLICIES])

    chart = bar_chart(
        {labels[p]: seconds[p] for p in POLICIES},
        categories=[hw.label() for hw in configs],
        title="network time (s) per policy, shared scale:",
        width=36,
    )

    # headline ratios: best single-algorithm improvement of Optimal
    ratios = {
        p: max(s / o for s, o in zip(seconds[p], seconds["optimal"]))
        for p in ALGORITHM_NAMES
    }
    pred_err = max(
        p / o - 1.0 for p, o in zip(seconds["predicted"], seconds["optimal"])
    )
    return ExperimentResult(
        experiment=experiment,
        description=f"Single-algorithm vs Optimal vs Predicted, {model}",
        table=table,
        chart=chart,
        data={
            "seconds": seconds,
            "configs": [hw.label() for hw in configs],
            "max_speedup_vs_single": ratios,
            "max_predicted_error": pred_err,
        },
    )
