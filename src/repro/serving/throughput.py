"""Full-network execution time under per-layer algorithm policies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.algorithms.registry import ALGORITHM_NAMES, best_algorithm, layer_cycles
from repro.errors import ExperimentError
from repro.nn.layer import ConvSpec
from repro.simulator.hwconfig import HardwareConfig


@dataclass
class NetworkTime:
    """Per-layer and total cycles of a network under a policy."""

    policy: str
    per_layer: dict[int, float]  # conv ordinal -> cycles
    chosen: dict[int, str]  # conv ordinal -> algorithm used

    @property
    def total_cycles(self) -> float:
        return sum(self.per_layer.values())

    def seconds(self, freq_ghz: float = 2.0) -> float:
        return self.total_cycles / (freq_ghz * 1e9)


def network_cycles(
    specs: list[ConvSpec],
    hw: HardwareConfig,
    policy: str = "optimal",
    selector=None,
) -> NetworkTime:
    """Total conv cycles of a network under an algorithm policy.

    Policies: one of the four algorithm names (single algorithm everywhere,
    with the Winograd* fallback), ``"optimal"`` (cycle-best per layer), or
    ``"predicted"`` (the trained :class:`AlgorithmSelector` decides; layers
    the predicted algorithm cannot run fall back like Winograd*).
    """
    if policy == "predicted":
        if selector is None:
            raise ExperimentError("policy 'predicted' needs a trained selector")
        names = selector.select_many([(spec, hw) for spec in specs])
    elif policy in ALGORITHM_NAMES:
        names = [policy] * len(specs)
    elif policy != "optimal":
        raise ExperimentError(
            f"unknown policy {policy!r}; use an algorithm name, "
            f"'optimal' or 'predicted'"
        )
    per_layer: dict[int, float] = {}
    chosen: dict[int, str] = {}
    for i, spec in enumerate(specs):
        if policy == "optimal":
            name, cycles = best_algorithm(spec, hw)
            per_layer[spec.index] = cycles[name]
            chosen[spec.index] = name
        else:
            result = layer_cycles(names[i], spec, hw, fallback=True)
            per_layer[spec.index] = result.cycles
            chosen[spec.index] = result.algorithm
    return NetworkTime(policy=policy, per_layer=per_layer, chosen=chosen)
