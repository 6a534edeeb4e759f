"""Model graph tests: construction rules, topology, execution."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphError
from repro.models.builders import build_executable, graph_from_manifest, graph_manifest
from repro.models.zoo import get_spec, list_benchmarks
from repro.nn.graph import Graph
from repro.nn.layers import Add, Conv2D, Dense, Input, ReLU, Softmax
from repro.nn.prune import PruningSpec, prune_model
from repro.nn.quantize import QuantizationSpec, quantize_model
from repro.nn.tensor import QuantizedTensor
from repro.runtime.blobs import BlobStore

RNG = np.random.default_rng(3)


def tiny_chain() -> Graph:
    g = Graph("tiny")
    g.add(Input("input", (4, 4, 2)))
    g.add(Conv2D("conv", RNG.normal(size=(3, 3, 2, 4)).astype(np.float32)), ["input"])
    g.add(ReLU("relu"), ["conv"])
    g.add(Dense("fc", RNG.normal(size=(64, 3)).astype(np.float32)), ["relu"])
    g.add(Softmax("softmax"), ["fc"])
    return g


def residual_graph() -> Graph:
    g = Graph("residual")
    g.add(Input("input", (4, 4, 2)))
    g.add(Conv2D("a", RNG.normal(size=(3, 3, 2, 2)).astype(np.float32)), ["input"])
    g.add(Conv2D("b", RNG.normal(size=(3, 3, 2, 2)).astype(np.float32)), ["a"])
    g.add(Add("add"), ["a", "b"])
    g.add(Dense("fc", RNG.normal(size=(32, 3)).astype(np.float32)), ["add"])
    return g


class TestConstruction:
    def test_duplicate_names_rejected(self):
        g = Graph("g")
        g.add(Input("input", (2, 2, 1)))
        with pytest.raises(GraphError):
            g.add(Input("input", (2, 2, 1)))

    def test_unknown_input_reference_rejected(self):
        g = Graph("g")
        g.add(Input("input", (2, 2, 1)))
        with pytest.raises(GraphError):
            g.add(ReLU("r"), ["nope"])

    def test_non_input_needs_inputs(self):
        g = Graph("g")
        g.add(Input("input", (2, 2, 1)))
        with pytest.raises(GraphError):
            g.add(ReLU("r"), [])

    def test_input_cannot_have_inputs(self):
        g = Graph("g")
        g.add(Input("a", (2, 2, 1)))
        with pytest.raises(GraphError):
            g.add(Input("b", (2, 2, 1)), ["a"])

    def test_set_output_validates(self):
        g = tiny_chain()
        with pytest.raises(GraphError):
            g.set_output("nope")

    def test_empty_graph_has_no_output(self):
        with pytest.raises(GraphError):
            Graph("g").output_name


class TestTopology:
    def test_topological_order_respects_edges(self):
        g = residual_graph()
        order = g.topological_order()
        assert order.index("a") < order.index("add")
        assert order.index("b") < order.index("add")
        assert order.index("input") == 0

    def test_order_is_deterministic(self):
        assert residual_graph().topological_order() == residual_graph().topological_order()

    def test_order_matches_networkx_lexicographical_sort(self, tmp_path):
        """Insertion order is the lexicographical topological sort keyed by
        insertion index, on every zoo graph and on the graphs derived from
        them by pruning, quantization and the model-plane round trip."""
        def oracle(graph: Graph) -> list[str]:
            dag = nx.DiGraph()
            dag.add_nodes_from(graph.nodes)
            for node in graph.nodes.values():
                dag.add_edges_from((src, node.name) for src in node.inputs)
            index = {name: i for i, name in enumerate(graph.nodes)}
            return list(nx.lexicographical_topological_sort(dag, key=index.__getitem__))

        zoo_graphs = {name: build_executable(get_spec(name)) for name in list_benchmarks()}
        graphs = dict(zoo_graphs)
        graphs["resnet50-pruned"] = prune_model(zoo_graphs["resnet50"], PruningSpec(0.5))
        graphs["googlenet-int4"] = quantize_model(
            zoo_graphs["googlenet"], QuantizationSpec(4, 8)
        )
        store = BlobStore(tmp_path)
        rebuilt = graph_from_manifest(graph_manifest(zoo_graphs["inception"], store), store)
        assert rebuilt is not None
        graphs["inception-manifest"] = rebuilt
        for label, graph in graphs.items():
            assert graph.topological_order() == oracle(graph), label
        assert rebuilt.topological_order() == zoo_graphs["inception"].topological_order()


class TestShapeInference:
    def test_chain_shapes(self):
        shapes = tiny_chain().infer_shapes(batch=3)
        assert shapes["conv"] == (3, 4, 4, 4)
        assert shapes["fc"] == (3, 3)

    def test_residual_shapes(self):
        shapes = residual_graph().infer_shapes(batch=2)
        assert shapes["add"] == (2, 4, 4, 2)


class TestStatistics:
    def test_total_params(self):
        g = tiny_chain()
        expected = (3 * 3 * 2 * 4 + 4) + (64 * 3 + 3)
        assert g.total_params() == expected

    def test_total_ops_is_twice_macs(self):
        g = tiny_chain()
        assert g.total_ops() == 2 * g.total_mac_ops()

    def test_compute_nodes(self):
        names = [n.name for n in tiny_chain().compute_nodes()]
        assert names == ["conv", "fc"]

    def test_param_bytes_fp32(self):
        g = tiny_chain()
        assert g.param_bytes() == g.total_params() * 4.0


class TestExecution:
    def test_forward_shapes_and_probabilities(self):
        g = tiny_chain()
        out = g.forward(RNG.normal(size=(5, 4, 4, 2)).astype(np.float32))
        assert out.shape == (5, 3)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=1e-4)

    def test_float_mode_matches_numpy_pipeline(self):
        g = tiny_chain()
        x = RNG.normal(size=(2, 4, 4, 2)).astype(np.float32)
        quantized = g.forward(x, activation_bits=8)
        float_mode = g.forward(x, activation_bits=None)
        # INT8 activations stay close to the float pipeline.
        assert np.max(np.abs(quantized - float_mode)) < 0.1

    def test_wrong_input_shape_rejected(self):
        with pytest.raises(GraphError):
            tiny_chain().forward(np.zeros((1, 5, 5, 2), dtype=np.float32))

    def test_hook_sees_compute_layers_only(self):
        g = tiny_chain()
        seen = []

        def hook(node, tensor):
            seen.append(node.name)
            assert isinstance(tensor, QuantizedTensor)

        g.forward(RNG.normal(size=(1, 4, 4, 2)).astype(np.float32), activation_hook=hook)
        assert seen == ["conv", "fc"]

    def test_hook_mutations_propagate(self):
        g = tiny_chain()
        x = RNG.normal(size=(3, 4, 4, 2)).astype(np.float32)
        clean = g.forward(x)

        def zero_hook(node, tensor):
            tensor.stored[...] = 0

        corrupted = g.forward(x, activation_hook=zero_hook)
        assert not np.allclose(clean, corrupted)
        # Zeroing the classifier logits makes the softmax uniform.
        np.testing.assert_allclose(corrupted, np.full_like(corrupted, 1 / 3), atol=1e-6)

    def test_hook_disabled_in_float_mode(self):
        g = tiny_chain()
        calls = []
        g.forward(
            RNG.normal(size=(1, 4, 4, 2)).astype(np.float32),
            activation_bits=None,
            activation_hook=lambda n, t: calls.append(n.name),
        )
        assert calls == []

    def test_residual_graph_executes(self):
        g = residual_graph()
        out = g.forward(RNG.normal(size=(2, 4, 4, 2)).astype(np.float32))
        assert out.shape == (2, 3)

    def test_forward_is_deterministic(self):
        g = tiny_chain()
        x = RNG.normal(size=(2, 4, 4, 2)).astype(np.float32)
        np.testing.assert_array_equal(g.forward(x), g.forward(x))
