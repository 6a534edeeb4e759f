"""Model graph: a DAG of layers with topological execution.

ResNet's residual connections and GoogleNet/Inception's parallel branches
make the benchmark set genuinely graph-shaped, so the executor schedules
nodes in topological order rather than as a simple chain.  Because
:meth:`Graph.add` only accepts edges from nodes already in the graph,
insertion order is itself a topological order.

The executor exposes one hook used by the rest of the system: after every
*compute* layer (conv/dense) the output is re-quantized to the model's
activation format — mirroring the DPU's fixed-point datapath — and
``activation_hook(node, quantized_tensor)`` may mutate the stored integer
words in place.  The fault injector uses this to flip bits exactly where a
timing upset would land: in the quantized accumulator results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro.errors import GraphError
from repro.nn.layers import Input, Layer
from repro.nn.tensor import QuantFormat, QuantizedTensor, choose_frac_bits

#: Signature of the per-layer activation hook: mutates the tensor in place.
ActivationHook = Callable[["Node", QuantizedTensor], None]


@dataclass
class Node:
    """One graph vertex: a layer plus its input edges (by node name)."""

    layer: Layer
    inputs: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.layer.name


class Graph:
    """A directed acyclic model graph.

    Build with :meth:`add`; the insertion API rejects duplicate names and
    references to nodes not yet added, so a graph can never hold a cycle.
    """

    def __init__(self, name: str):
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._output: str | None = None

    # ---- construction ----------------------------------------------------

    def add(self, layer: Layer, inputs: Iterable[str] = ()) -> str:
        """Insert ``layer`` fed by the named predecessor nodes."""
        inputs = tuple(inputs)
        if layer.name in self._nodes:
            raise GraphError(f"duplicate node name: {layer.name!r}")
        if isinstance(layer, Input) and inputs:
            raise GraphError(f"Input node {layer.name!r} cannot have inputs")
        if not isinstance(layer, Input) and not inputs:
            raise GraphError(f"node {layer.name!r} has no inputs")
        for src in inputs:
            if src not in self._nodes:
                raise GraphError(f"node {layer.name!r} references unknown input {src!r}")
        self._nodes[layer.name] = Node(layer=layer, inputs=inputs)
        self._output = layer.name  # last added is the default output
        return layer.name

    def set_output(self, name: str) -> None:
        if name not in self._nodes:
            raise GraphError(f"unknown output node: {name!r}")
        self._output = name

    # ---- structure --------------------------------------------------------

    @property
    def nodes(self) -> dict[str, Node]:
        return dict(self._nodes)

    @property
    def output_name(self) -> str:
        if self._output is None:
            raise GraphError("empty graph has no output")
        return self._output

    def input_nodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if isinstance(n.layer, Input)]

    def topological_order(self) -> list[str]:
        """Node names in topological order: the insertion order.

        Every node's inputs were added before it, so the smallest-index
        ready node is always the next one inserted — this is the
        lexicographical topological sort keyed by insertion index.
        """
        return list(self._nodes)

    # ---- shape inference ----------------------------------------------------

    def infer_shapes(self, batch: int = 1) -> dict[str, tuple[int, ...]]:
        """Propagate shapes through the graph for a given batch size."""
        shapes: dict[str, tuple[int, ...]] = {}
        for name in self.topological_order():
            node = self._nodes[name]
            if isinstance(node.layer, Input):
                shapes[name] = (batch,) + node.layer.shape
            else:
                in_shapes = [shapes[src] for src in node.inputs]
                shapes[name] = node.layer.output_shape(in_shapes)
        return shapes

    # ---- statistics ----------------------------------------------------------

    def total_mac_ops(self, batch: int = 1) -> int:
        """MAC operations for one batch (the paper's op counts use MACs*2
        as 'operations'; see :meth:`total_ops`)."""
        shapes = self.infer_shapes(batch)
        total = 0
        for name in self.topological_order():
            node = self._nodes[name]
            if isinstance(node.layer, Input):
                continue
            in_shapes = [shapes[src] for src in node.inputs]
            total += node.layer.mac_ops(in_shapes)
        return total

    def total_ops(self, batch: int = 1) -> int:
        """GOPs-style operation count: one MAC = 2 ops (mul + add)."""
        return 2 * self.total_mac_ops(batch)

    def total_params(self) -> int:
        return sum(n.layer.param_count() for n in self._nodes.values())

    def param_bytes(self, bytes_per_param: float = 4.0) -> float:
        """Model size in bytes (default fp32, matching Table 1's sizes)."""
        return self.total_params() * bytes_per_param

    def compute_nodes(self) -> list[Node]:
        """Nodes that run on the MAC engine (conv/dense)."""
        return [
            self._nodes[name]
            for name in self.topological_order()
            if self._nodes[name].layer.mac_ops_hint > 0
        ]

    # ---- execution ---------------------------------------------------------

    def forward(
        self,
        batch: np.ndarray,
        activation_bits: int | None = 8,
        activation_hook: Optional[ActivationHook] = None,
    ) -> np.ndarray:
        """Run the graph on an NHWC ``batch``.

        ``activation_bits`` selects the fixed-point activation format
        (``None`` runs pure float32, used for calibration).  The hook sees
        each compute layer's output as a mutable :class:`QuantizedTensor`
        (fault injection flips bits of the stored words).
        """
        inputs = self.input_nodes()
        if len(inputs) != 1:
            raise GraphError(f"graph must have exactly one Input, has {len(inputs)}")
        batch = np.asarray(batch, dtype=np.float32)
        expected = inputs[0].layer.shape
        if tuple(batch.shape[1:]) != expected:
            raise GraphError(
                f"input shape {tuple(batch.shape[1:])} != graph input {expected}"
            )

        values: dict[str, np.ndarray] = {}
        alive: dict[str, int] = {}  # remaining consumers, for memory release
        consumers: dict[str, int] = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            for src in node.inputs:
                consumers[src] += 1
        output_name = self.output_name
        consumers[output_name] += 1  # keep the output alive

        for name in self.topological_order():
            node = self._nodes[name]
            if isinstance(node.layer, Input):
                out = batch
            else:
                ins = [values[src] for src in node.inputs]
                out = node.layer.forward(ins)
                if node.layer.mac_ops_hint > 0 and activation_bits is not None:
                    qt = QuantizedTensor.from_real(out, bits=activation_bits)
                    if activation_hook is not None:
                        activation_hook(node, qt)
                    out = qt.real
            values[name] = out
            alive[name] = consumers[name]
            for src in node.inputs:
                alive[src] -= 1
                if alive[src] == 0:
                    del values[src]
        return values[output_name]
