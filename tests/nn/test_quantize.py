"""DECENT-like quantizer tests."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.nn.graph import Graph
from repro.nn.layers import Conv2D, Dense, Input, ReLU
from repro.nn.quantize import QuantizationSpec, quantize_model

RNG = np.random.default_rng(5)


def rms_weight_error(graph: Graph, quantized: Graph) -> float:
    """RMS perturbation quantization adds to the conv/dense weights."""
    diffs = [
        node.layer.weights - graph.nodes[name].layer.weights
        for name, node in quantized.nodes.items()
        if isinstance(node.layer, (Conv2D, Dense))
    ]
    return float(np.sqrt(np.mean(np.concatenate([d.ravel() for d in diffs]) ** 2)))


def small_graph() -> Graph:
    g = Graph("q")
    g.add(Input("input", (4, 4, 2)))
    g.add(Conv2D("conv", RNG.normal(size=(3, 3, 2, 4)).astype(np.float32)), ["input"])
    g.add(ReLU("relu"), ["conv"])
    g.add(Dense("fc", RNG.normal(size=(64, 3)).astype(np.float32)), ["relu"])
    return g


class TestSpec:
    def test_label(self):
        assert QuantizationSpec(8, 8).label == "INT8"

    @pytest.mark.parametrize("bits", [3, 2, 1, 9])
    def test_unsupported_precisions_rejected(self, bits):
        with pytest.raises(QuantizationError):
            QuantizationSpec(bits, 8)
        with pytest.raises(QuantizationError):
            QuantizationSpec(8, bits)


class TestQuantizeModel:
    def test_returns_independent_copy(self):
        g = small_graph()
        q = quantize_model(g, QuantizationSpec(8, 8))
        original = g.nodes["conv"].layer.weights
        q.nodes["conv"].layer.weights[...] = 0.0
        assert not np.allclose(original, 0.0)

    def test_weights_are_representable_in_format(self):
        g = small_graph()
        q = quantize_model(g, QuantizationSpec(4, 4))
        w = q.nodes["conv"].layer.weights
        # INT4 leaves at most 16 distinct values per tensor (incl. zero).
        assert len(np.unique(w)) <= 16

    def test_error_shrinks_with_more_bits(self):
        g = small_graph()
        errors = [rms_weight_error(g, quantize_model(g, QuantizationSpec(b, b))) for b in (4, 6, 8)]
        assert errors[0] > errors[1] > errors[2]

    def test_int8_error_is_small(self):
        g = small_graph()
        q = quantize_model(g, QuantizationSpec(8, 8))
        assert rms_weight_error(g, q) < 0.02

    def test_name_carries_precision(self):
        q = quantize_model(small_graph(), QuantizationSpec(5, 5))
        assert q.name.endswith("int5")

    def test_forward_still_works(self):
        q = quantize_model(small_graph(), QuantizationSpec(6, 6))
        out = q.forward(RNG.normal(size=(2, 4, 4, 2)).astype(np.float32), activation_bits=6)
        assert out.shape == (2, 3)
