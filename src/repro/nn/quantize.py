"""DECENT-like post-training quantization.

DNNDK's DECENT tool converts a floating-point CNN to fixed point with at
most INT8 precision by calibrating per-tensor power-of-two scales on sample
data (Section 3.1).  The paper's baseline is INT8; Section 6.1 additionally
evaluates INT7..INT4 and finds INT3 and below unusable even at nominal
voltage (we reject those in :mod:`repro.nn.tensor`).

``quantize_model`` rewrites a float graph in place-free fashion: weights and
biases of each compute layer are round-tripped through the requested
fixed-point format, and the returned :class:`QuantizationSpec` records the
activation format the executor applies at layer boundaries.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError
from repro.nn.graph import Graph
from repro.nn.layers import BatchNorm, Conv2D, Dense
from repro.nn.tensor import (
    SUPPORTED_BITS,
    QuantFormat,
    QuantizedTensor,
    choose_frac_bits,
)


@dataclass(frozen=True)
class QuantizationSpec:
    """Quantization configuration attached to a model."""

    weight_bits: int
    activation_bits: int

    def __post_init__(self):
        if self.weight_bits not in SUPPORTED_BITS:
            raise QuantizationError(f"INT{self.weight_bits} weights unsupported")
        if self.activation_bits not in SUPPORTED_BITS:
            raise QuantizationError(f"INT{self.activation_bits} activations unsupported")

    @property
    def label(self) -> str:
        return f"INT{self.weight_bits}"


def _quantize_weight(array: np.ndarray, bits: int) -> np.ndarray:
    """Round-trip a weight tensor through its calibrated fixed-point format."""
    qt = QuantizedTensor.from_real(array, bits=bits)
    return qt.real.astype(np.float32)


def quantize_model(graph: Graph, spec: QuantizationSpec) -> Graph:
    """Return a copy of ``graph`` with quantized weights.

    The copy shares no weight storage with the original, so campaigns can
    hold multiple precision variants side by side (as Figure 7 does).
    """
    out = copy.deepcopy(graph)
    for node in out.nodes.values():
        layer = node.layer
        if isinstance(layer, (Conv2D, Dense)):
            layer.weights = _quantize_weight(layer.weights, spec.weight_bits)
            layer.bias = _quantize_weight(layer.bias, spec.weight_bits)
        elif isinstance(layer, BatchNorm):
            layer.scale = _quantize_weight(layer.scale, spec.weight_bits)
            layer.shift = _quantize_weight(layer.shift, spec.weight_bits)
    out.name = f"{graph.name}-{spec.label.lower()}"
    return out

