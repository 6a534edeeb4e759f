"""Bit-flip injection into the quantized activation stream.

Timing faults manifest as "bit-flips in memories or logic timing violations
in data paths" (Section 2.2 of the paper).  In the accelerator's datapath
the architecturally-visible effect of a missed setup time is a corrupted
accumulator result, so the injector flips bits of the *quantized layer
outputs* as they leave each compute layer:

* the expected fault count per layer is ``p_op * exposure_ops[layer]``
  where the exposure uses the **full-size** model's op counts — this is
  what makes parameter-heavy models (ResNet, Inception) absorb more faults
  per inference, reproducing Figure 6's vulnerability ordering;
* fault sites (element, bit position) are uniform; a flipped MSB/sign bit
  produces the large excursions that flip classifications;
* fault counts are Poisson-drawn per layer per batch, clamped to the
  tensor's element count (beyond that the output is already noise).

The injector is re-armed per repeat with a distinct RNG stream, mirroring
the paper's averaging of 10 runs per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.graph import Node
from repro.nn.tensor import QuantizedTensor


@dataclass
class InjectionStats:
    """Bookkeeping for one armed injection pass."""

    faults_planned: float = 0.0
    faults_injected: int = 0
    layers_hit: int = 0

    def reset(self) -> None:
        self.faults_planned = 0.0
        self.faults_injected = 0
        self.layers_hit = 0


def poisson_fault_count(
    rng: np.random.Generator, lam: float, size: int
) -> int:
    """Poisson fault count for one layer/realization, saturation-clamped.

    Poisson draws overflow for astronomically large lambdas (deep in the
    crash region); anything past full saturation behaves the same, and the
    short-circuit also skips the RNG draw so saturated and non-saturated
    paths consume the stream identically across batching modes.
    """
    if lam >= 8.0 * size:
        return size
    return int(rng.poisson(lam))


def draw_fault_sites(
    rng: np.random.Generator,
    size: int,
    count: int,
    width: int,
    bit_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``count`` uniform fault sites: (flat indices, bit positions).

    One vectorized pair of draws per layer per realization — the exact
    stream consumption of the historical per-repeat loop, shared by the
    datapath injectors and the BRAM weight-fault model.
    """
    indices = rng.integers(0, size, size=count)
    if bit_weights is None:
        bits = rng.integers(0, width, size=count)
    else:
        weights = np.asarray(bit_weights, dtype=float)
        if weights.shape != (width,):
            raise ValueError(
                f"bit_weights must have shape ({width},), got {weights.shape}"
            )
        weights = weights / weights.sum()
        bits = rng.choice(width, size=count, p=weights)
    return indices, bits


class FaultInjector:
    """A graph activation hook that flips bits at a given per-op rate.

    Parameters
    ----------
    exposure_ops:
        Full-size ops per compute-layer name (one inference).
    p_per_op:
        Fault probability per op at the present operating point.
    rng:
        Stream for this fault realization (one per repeat).
    vulnerability:
        Multiplier from quantization/pruning (Figures 7/8).
    batch_size:
        Number of inferences the forward pass batches together; exposure
        scales linearly with it.
    """

    def __init__(
        self,
        exposure_ops: dict[str, float],
        p_per_op: float,
        rng: np.random.Generator,
        vulnerability: float = 1.0,
        batch_size: int = 1,
        bit_weights: np.ndarray | None = None,
        control_collapse: bool = False,
    ):
        if p_per_op < 0:
            raise ValueError(f"p_per_op must be non-negative, got {p_per_op}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.exposure_ops = exposure_ops
        self.p_per_op = p_per_op
        self.rng = rng
        self.vulnerability = vulnerability
        self.batch_size = batch_size
        self.bit_weights = bit_weights
        self.control_collapse = control_collapse
        self.stats = InjectionStats()

    @property
    def enabled(self) -> bool:
        return self.p_per_op > 0.0 or self.control_collapse

    def _randomize(self, tensor: QuantizedTensor) -> None:
        fmt = tensor.fmt
        tensor.stored[...] = self.rng.integers(
            fmt.qmin, fmt.qmax + 1, size=tensor.stored.shape, dtype=np.int64
        ).astype(tensor.stored.dtype)
        self.stats.faults_injected += tensor.stored.size
        self.stats.layers_hit += 1

    def __call__(self, node: Node, tensor: QuantizedTensor) -> None:
        """Graph hook: flip bits of this layer's quantized output."""
        if not self.enabled:
            return
        if self.control_collapse:
            # At the crash edge, timing failure reaches the control FSMs:
            # the datapath output is garbage regardless of fault statistics.
            self._randomize(tensor)
            return
        exposure = self.exposure_ops.get(node.name, 0)
        if exposure == 0:
            return
        lam = self.p_per_op * exposure * self.vulnerability * self.batch_size
        self.stats.faults_planned += lam
        size = tensor.stored.size
        count = poisson_fault_count(self.rng, lam, size)
        if count == 0:
            return
        if count >= size:
            # Saturated: every word is upset at least once on average — the
            # output is indistinguishable from noise (single-bit flips
            # would leave 7/8 of each word intact and keep argmax
            # correlated with the clean output).
            self._randomize(tensor)
            return
        indices, bits = draw_fault_sites(
            self.rng, size, count, tensor.fmt.bits, self.bit_weights
        )
        tensor.flip_bits(indices, bits)
        self.stats.faults_injected += count
        self.stats.layers_hit += 1


@dataclass(frozen=True)
class RealizationFaultPlan:
    """Planned faults for one layer of one realization.

    ``kind`` is ``"none"`` (nothing to inject), ``"flips"`` (``indices``/
    ``bit_positions`` over the realization's flat tensor), or
    ``"randomize"`` (``noise`` is a full-tensor replacement of the stored
    words — the saturated / control-collapse case).
    """

    kind: str
    indices: np.ndarray | None = None
    bit_positions: np.ndarray | None = None
    noise: np.ndarray | None = None


_PLAN_NONE = RealizationFaultPlan(kind="none")


class BatchedFaultInjector:
    """Plans R independent fault realizations for a repeat-batched pass.

    The batched measurement path advances all R fault realizations of an
    operating point through the network together (see
    :mod:`repro.nn.differential`).  At each compute layer this planner
    draws, for every realization at once, exactly what the serial
    :class:`FaultInjector` would draw — realization ``r`` consumes only
    its own ``rngs[r]`` stream, in the same per-layer order: Poisson
    count, then fault sites (or the full-tensor noise draw when
    saturated/collapsed).  Each realization is therefore bit-identical to
    a serial repeat, no matter how the executor batches the work.

    Per-realization fault counts are kept separately so the session can
    report the same per-repeat statistics as the serial loop.
    """

    def __init__(
        self,
        exposure_ops: dict[str, float],
        p_per_op: float,
        rngs: list[np.random.Generator],
        vulnerability: float = 1.0,
        batch_size: int = 1,
        bit_weights: np.ndarray | None = None,
        control_collapse: bool = False,
    ):
        if p_per_op < 0:
            raise ValueError(f"p_per_op must be non-negative, got {p_per_op}")
        if not rngs:
            raise ValueError("need at least one realization RNG stream")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.exposure_ops = exposure_ops
        self.p_per_op = p_per_op
        self.rngs = list(rngs)
        self.vulnerability = vulnerability
        #: Inferences per realization (NOT summed over realizations).
        self.batch_size = batch_size
        self.bit_weights = bit_weights
        self.control_collapse = control_collapse
        self.stats = InjectionStats()
        #: Per-realization injected-fault counts (serial loop parity).
        self.faults_per_repeat: list[int] = [0] * len(self.rngs)

    @property
    def repeats(self) -> int:
        return len(self.rngs)

    @property
    def enabled(self) -> bool:
        return self.p_per_op > 0.0 or self.control_collapse

    def _randomize_plan(
        self, r: int, rng: np.random.Generator, shape: tuple[int, ...],
        qmin: int, qmax: int,
    ) -> RealizationFaultPlan:
        # Same full-tensor draw (shape, bounds, dtype) as the serial
        # injector's _randomize, so stream consumption and the noise
        # itself are bit-identical.
        noise = rng.integers(qmin, qmax + 1, size=shape, dtype=np.int64)
        size = int(np.prod(shape))
        self.faults_per_repeat[r] += size
        self.stats.faults_injected += size
        return RealizationFaultPlan(kind="randomize", noise=noise)

    def plan_node(
        self,
        node_name: str,
        shape: tuple[int, ...],
        width: int,
        qmin: int,
        qmax: int,
    ) -> list[RealizationFaultPlan] | None:
        """Draw all R realizations' fault plans for one compute layer.

        ``shape`` is one realization's full quantized-output shape.
        Returns ``None`` when no realization can be hit at this layer
        (injection disabled, or zero exposure) — consuming no RNG, exactly
        like the serial early-outs.
        """
        if not self.enabled:
            return None
        size = int(np.prod(shape))
        if self.control_collapse:
            plans = [
                self._randomize_plan(r, rng, shape, qmin, qmax)
                for r, rng in enumerate(self.rngs)
            ]
            self.stats.layers_hit += 1
            return plans
        exposure = self.exposure_ops.get(node_name, 0)
        if exposure == 0:
            return None
        lam = self.p_per_op * exposure * self.vulnerability * self.batch_size
        plans: list[RealizationFaultPlan] = []
        hit = False
        for r, rng in enumerate(self.rngs):
            self.stats.faults_planned += lam
            count = poisson_fault_count(rng, lam, size)
            if count == 0:
                plans.append(_PLAN_NONE)
                continue
            if count >= size:
                # Saturated: every word upset at least once on average —
                # the realization's output is indistinguishable from noise.
                plans.append(self._randomize_plan(r, rng, shape, qmin, qmax))
                hit = True
                continue
            indices, bits = draw_fault_sites(
                rng, size, count, width, self.bit_weights
            )
            plans.append(
                RealizationFaultPlan(
                    kind="flips", indices=indices, bit_positions=bits
                )
            )
            self.faults_per_repeat[r] += count
            self.stats.faults_injected += count
            hit = True
        if hit:
            self.stats.layers_hit += 1
        return plans
