"""Network graph construction and functional inference.

A :class:`Network` is an ordered list of layer specs (mini-Darknet).  The
executor runs single-image inference in NCHW with NumPy, dispatching each
convolutional layer to a pluggable convolution algorithm — exactly the hook
the paper's per-layer algorithm selection uses.  Weights are synthetic and
deterministic (the study depends on layer dimensions, not trained values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import NetworkError, ShapeError
from repro.nn import reference as ref
from repro.nn.layer import (
    AvgPoolSpec,
    ConnectedSpec,
    ConvSpec,
    LayerSpec,
    MaxPoolSpec,
    RouteSpec,
    ShortcutSpec,
    SoftmaxSpec,
    UpsampleSpec,
)
from repro.utils.prng import synthetic_tensor

#: Signature of a convolution implementation: (spec, input CHW, weights OIHW)
#: -> output CHW.  The registry in :mod:`repro.algorithms` provides these.
ConvFn = Callable[[ConvSpec, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class Network:
    """An ordered layer graph with synthetic weights."""

    name: str
    layers: list[LayerSpec]
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.layers:
            raise NetworkError(f"network {self.name!r} has no layers")
        self._weights: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #
    def conv_specs(self) -> list[ConvSpec]:
        """The convolutional layers, in network order."""
        return [l for l in self.layers if isinstance(l, ConvSpec)]

    def num_conv_layers(self) -> int:
        return len(self.conv_specs())

    def weight_for(self, layer_index: int) -> np.ndarray:
        """Deterministic synthetic weights for layer ``layer_index``."""
        if layer_index not in self._weights:
            spec = self.layers[layer_index]
            if isinstance(spec, ConvSpec):
                shape: tuple[int, ...] = (spec.oc, spec.ic, spec.kh, spec.kw)
                scale = 1.0 / np.sqrt(spec.ic * spec.kh * spec.kw)
            elif isinstance(spec, ConnectedSpec):
                shape = (spec.outputs, spec.inputs)
                scale = 1.0 / np.sqrt(spec.inputs)
            else:
                raise NetworkError(f"layer {layer_index} ({spec!r}) has no weights")
            self._weights[layer_index] = synthetic_tensor(
                shape, seed=self.seed + layer_index, scale=scale
            )
        return self._weights[layer_index]

    # ------------------------------------------------------------------ #
    # functional inference
    # ------------------------------------------------------------------ #
    def forward(
        self,
        x: np.ndarray,
        conv_fn: ConvFn | None = None,
        conv_fns: Mapping[int, ConvFn] | None = None,
        keep_outputs: bool = False,
    ):
        """Run single-image inference.

        ``conv_fn`` is used for every convolution unless ``conv_fns`` maps a
        *conv-layer ordinal* (1-based, matching ``ConvSpec.index``) to a
        specific implementation — the per-layer algorithm-selection hook.
        Returns the final output, or all per-layer outputs when
        ``keep_outputs`` is True.
        """
        if conv_fn is None:
            conv_fn = ref.conv2d_reference
        outputs: list[np.ndarray] = []
        conv_ordinal = 0
        value = np.asarray(x, dtype=np.float32)
        for i, spec in enumerate(self.layers):
            if isinstance(spec, ConvSpec):
                conv_ordinal += 1
                fn = conv_fn
                if conv_fns and conv_ordinal in conv_fns:
                    fn = conv_fns[conv_ordinal]
                spec.validate_input(value.shape)
                value = fn(spec, value, self.weight_for(i))
                if spec.batch_normalize:
                    value = self._apply_batchnorm(i, spec, value)
                value = ref.apply_activation(spec.activation, value)
            elif isinstance(spec, MaxPoolSpec):
                value = ref.maxpool_reference(spec, value)
            elif isinstance(spec, AvgPoolSpec):
                value = ref.avgpool_reference(spec, value)
            elif isinstance(spec, ConnectedSpec):
                value = ref.connected_reference(spec, value, self.weight_for(i))
                value = ref.apply_activation(spec.activation, value)
            elif isinstance(spec, ShortcutSpec):
                src = self._resolve(i, spec.from_index, outputs)
                if src.shape != value.shape:
                    raise ShapeError(
                        f"shortcut at layer {i}: {src.shape} vs {value.shape}"
                    )
                value = value + src
            elif isinstance(spec, RouteSpec):
                parts = [self._resolve(i, j, outputs) for j in spec.layers]
                value = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)
            elif isinstance(spec, UpsampleSpec):
                value = ref.upsample_reference(spec, value)
            elif isinstance(spec, SoftmaxSpec):
                value = ref.softmax_reference(value)
            else:  # pragma: no cover - defensive
                raise NetworkError(f"unsupported layer {spec!r}")
            outputs.append(value)
        return outputs if keep_outputs else value

    def batchnorm_params(self, layer_index: int) -> tuple:
        """(mean, variance, scales, bias) for a conv layer.

        Deterministic synthetic values by default; loading a weights archive
        (:mod:`repro.nn.serialization`) can override them per layer.
        """
        spec = self.layers[layer_index]
        if not isinstance(spec, ConvSpec):
            raise NetworkError(f"layer {layer_index} is not convolutional")
        overrides = getattr(self, "_bn_overrides", None)
        if overrides and layer_index in overrides:
            return overrides[layer_index]
        base = self.seed + 7919 * (layer_index + 1)
        mean = 0.1 * synthetic_tensor((spec.oc,), seed=base)
        variance = 1.0 + 0.5 * synthetic_tensor((spec.oc,), seed=base + 1)
        scales = 1.0 + 0.2 * synthetic_tensor((spec.oc,), seed=base + 2)
        bias = 0.1 * synthetic_tensor((spec.oc,), seed=base + 3)
        return (
            mean.astype(np.float32), variance.astype(np.float32),
            scales.astype(np.float32), bias.astype(np.float32),
        )

    def _apply_batchnorm(self, layer_index: int, spec: ConvSpec,
                         value: np.ndarray) -> np.ndarray:
        from repro.nn.aux_kernels import batchnorm_forward

        return batchnorm_forward(value, *self.batchnorm_params(layer_index))

    def _resolve(self, at: int, ref_index: int, outputs: Sequence[np.ndarray]) -> np.ndarray:
        idx = at + ref_index if ref_index < 0 else ref_index
        if not 0 <= idx < at:
            raise NetworkError(
                f"layer {at} references layer {ref_index} (resolved {idx}) "
                f"which is not an earlier layer"
            )
        return outputs[idx]

    def forward_with_selector(self, x: np.ndarray, selector, hw):
        """Inference with the trained selector choosing each conv's algorithm.

        ``selector`` is a trained
        :class:`repro.selection.predictor.AlgorithmSelector`; ``hw`` the
        target :class:`repro.simulator.hwconfig.HardwareConfig`.  Predicted
        algorithms that cannot run a layer fall back to the 6-loop
        im2col+GEMM (the Winograd* rule).  Returns
        ``(output, {conv ordinal: algorithm name})``.
        """
        from repro.algorithms.registry import get_algorithm

        conv_fns = {}
        chosen: dict[int, str] = {}
        specs = self.conv_specs()
        for spec, name in zip(specs, selector.select_many([(s, hw) for s in specs])):
            algo = get_algorithm(name)
            if not algo.applicable(spec):
                algo = get_algorithm("im2col_gemm6")
            chosen[spec.index] = algo.name
            conv_fns[spec.index] = algo.conv_fn()
        return self.forward(x, conv_fns=conv_fns), chosen

    def total_conv_macs(self) -> int:
        return sum(s.macs for s in self.conv_specs())

    def describe(self) -> str:
        lines = [f"network {self.name}: {len(self.layers)} layers, "
                 f"{self.num_conv_layers()} convolutional"]
        for i, spec in enumerate(self.layers):
            lines.append(f"  [{i:3d}] {spec.describe() if isinstance(spec, ConvSpec) else spec}")
        return "\n".join(lines)
