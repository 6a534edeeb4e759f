"""CNN layer implementations.

All layers operate on NHWC float32 activations.  Quantization is applied at
layer boundaries (activations re-quantized to the model's activation format
after every compute layer) to mirror a fixed-point DPU datapath, and the
fault injector flips bits of those quantized words.

Compute layers (Conv2D, Dense) carry the weight tensors and know how to
report their MAC-op and parameter counts; both numbers feed the DPU
performance model and the fault-exposure model.

Every layer's ``forward`` is **batch-invariant**: evaluating any sub-batch
produces rows bit-identical to the same samples inside a larger batch.
Conv2D and Dense achieve this with one fixed-shape GEMM per sample
(numpy's stacked matmul) — mirroring the DPU, which runs inferences one at
a time — and every other layer is per-sample elementwise or windowed math.
The copy-on-divergence repeat executor (:mod:`repro.nn.differential`)
depends on this property to recompute only fault-affected samples.

Windowed layers read their input through a strided sliding-window view.
Padding writes the input into one preallocated buffer of the fill value
(:func:`_pad_hw`; no copy when there is none), Conv2D lowers the window
view to an im2col matrix, and MaxPool folds the window offsets with
elementwise ``np.maximum`` in row-major order.  No layer writes to its
inputs: the executor hands a lane's overlay (or the retained clean pass)
to ``forward`` without copying it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError


class Layer:
    """Base class: a named operation over NHWC activations."""

    def __init__(self, name: str):
        self.name = name

    # -- shape/stat protocol ------------------------------------------------

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        raise NotImplementedError

    def mac_ops(self, input_shapes: list[tuple[int, ...]]) -> int:
        """Multiply-accumulate operations per sample (0 for non-compute)."""
        return 0

    def param_count(self) -> int:
        """Trainable parameter count (weights + biases)."""
        return 0

    @property
    def is_compute(self) -> bool:
        """Compute layers run on the DPU's MAC engine and absorb faults."""
        return self.mac_ops_hint > 0

    #: Subclasses with MACs set this for cheap is_compute checks.
    mac_ops_hint: int = 0

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def _require_single(inputs: list, layer: Layer) -> np.ndarray:
    if len(inputs) != 1:
        raise GraphError(f"{layer!r} expects exactly one input, got {len(inputs)}")
    return inputs[0]


def _pad_hw(
    x: np.ndarray, top: int, bottom: int, left: int, right: int, fill: float
) -> np.ndarray:
    """``x`` with ``fill`` borders on its H and W axes (``x`` itself if none).

    The same bytes as ``np.pad(..., constant_values=fill)``: one buffer
    filled once, with the input written into its interior.
    """
    if not (top or bottom or left or right):
        return x
    n, h, w, c = x.shape
    out = np.full((n, h + top + bottom, w + left + right, c), fill, dtype=x.dtype)
    out[:, top : top + h, left : left + w, :] = x
    return out


class Conv2D(Layer):
    """2-D convolution (NHWC, HWIO weights) via im2col + GEMM.

    The im2col lowering is exactly how the DPU's matrix engine consumes
    convolutions (Section 2.1.2: "computations of different layers are
    translated to matrix multiplication").
    """

    def __init__(
        self,
        name: str,
        weights: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: str = "same",
    ):
        super().__init__(name)
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 4:
            raise GraphError(f"{name}: conv weights must be HWIO 4-D, got {weights.shape}")
        self.weights = weights
        self.bias = (
            np.zeros(weights.shape[-1], dtype=np.float32)
            if bias is None
            else np.asarray(bias, dtype=np.float32)
        )
        if self.bias.shape != (weights.shape[-1],):
            raise GraphError(f"{name}: bias shape {self.bias.shape} mismatches weights")
        if stride < 1:
            raise GraphError(f"{name}: stride must be >= 1")
        if padding not in ("same", "valid"):
            raise GraphError(f"{name}: padding must be 'same' or 'valid'")
        self.stride = stride
        self.padding = padding
        self.mac_ops_hint = 1

    # -- geometry -----------------------------------------------------------

    def _pad_amount(self, size: int, k: int) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        out = -(-size // self.stride)  # ceil division
        total = max((out - 1) * self.stride + k - size, 0)
        return total // 2, total - total // 2

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        (n, h, w, c) = input_shapes[0]
        kh, kw, ci, co = self.weights.shape
        if c != ci:
            raise GraphError(
                f"{self.name}: input channels {c} != weight channels {ci}"
            )
        ph = sum(self._pad_amount(h, kh))
        pw = sum(self._pad_amount(w, kw))
        oh = (h + ph - kh) // self.stride + 1
        ow = (w + pw - kw) // self.stride + 1
        return (n, oh, ow, co)

    def mac_ops(self, input_shapes: list[tuple[int, ...]]) -> int:
        (_, oh, ow, co) = self.output_shape(input_shapes)
        kh, kw, ci, _ = self.weights.shape
        return oh * ow * co * kh * kw * ci

    def param_count(self) -> int:
        return int(self.weights.size + self.bias.size)

    # -- compute --------------------------------------------------------------

    def _im2col(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
        n, h, w, c = x.shape
        kh, kw, _, _ = self.weights.shape
        pt, pb = self._pad_amount(h, kh)
        pl, pr = self._pad_amount(w, kw)
        xp = _pad_hw(x, pt, pb, pl, pr, 0.0)
        hp, wp = xp.shape[1], xp.shape[2]
        oh = (hp - kh) // self.stride + 1
        ow = (wp - kw) // self.stride + 1
        # Strided sliding-window view -> (n, oh, ow, kh, kw, c)
        s = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp,
            shape=(n, oh, ow, kh, kw, c),
            strides=(s[0], s[1] * self.stride, s[2] * self.stride, s[1], s[2], s[3]),
            writeable=False,
        )
        return windows.reshape(n * oh * ow, kh * kw * c), (oh, ow)

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        cols, (oh, ow) = self._im2col(x)
        kernel = self.weights.reshape(-1, self.weights.shape[-1])
        # One fixed-shape GEMM per sample (stacked matmul) instead of a
        # single batch-wide GEMM: the DPU runs inferences one at a time,
        # and per-sample calls make the result independent of which other
        # samples share the batch (batch invariance; see module docstring).
        per_sample = cols.reshape(x.shape[0], oh * ow, kernel.shape[0])
        out = per_sample @ kernel + self.bias
        return out.reshape(x.shape[0], oh, ow, self.weights.shape[-1])


class Dense(Layer):
    """Fully-connected layer over flattened features."""

    def __init__(self, name: str, weights: np.ndarray, bias: Optional[np.ndarray] = None):
        super().__init__(name)
        weights = np.asarray(weights, dtype=np.float32)
        if weights.ndim != 2:
            raise GraphError(f"{name}: dense weights must be 2-D, got {weights.shape}")
        self.weights = weights
        self.bias = (
            np.zeros(weights.shape[1], dtype=np.float32)
            if bias is None
            else np.asarray(bias, dtype=np.float32)
        )
        if self.bias.shape != (weights.shape[1],):
            raise GraphError(f"{name}: bias shape {self.bias.shape} mismatches weights")
        self.mac_ops_hint = 1

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        shape = input_shapes[0]
        features = int(np.prod(shape[1:]))
        if features != self.weights.shape[0]:
            raise GraphError(
                f"{self.name}: input features {features} != weight rows "
                f"{self.weights.shape[0]}"
            )
        return (shape[0], self.weights.shape[1])

    def mac_ops(self, input_shapes: list[tuple[int, ...]]) -> int:
        return int(self.weights.size)

    def param_count(self) -> int:
        return int(self.weights.size + self.bias.size)

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        flat = x.reshape(x.shape[0], -1)
        # Per-sample stacked matmul for batch invariance (see Conv2D).
        out = flat[:, None, :] @ self.weights + self.bias
        return out.reshape(x.shape[0], self.weights.shape[1])


class _Pool(Layer):
    """Shared geometry for max/avg pooling with 'valid' or 'same' padding."""

    #: Fill value used when padding ('same' mode); set per subclass.
    pad_value: float = 0.0

    def __init__(
        self,
        name: str,
        pool: int = 2,
        stride: int | None = None,
        padding: str = "valid",
    ):
        super().__init__(name)
        if pool < 1:
            raise GraphError(f"{name}: pool size must be >= 1")
        if padding not in ("valid", "same"):
            raise GraphError(f"{name}: padding must be 'valid' or 'same'")
        self.pool = pool
        self.stride = pool if stride is None else stride
        self.padding = padding

    def _out_size(self, size: int) -> int:
        if self.padding == "same":
            return -(-size // self.stride)  # ceil division
        return (size - self.pool) // self.stride + 1

    def _pad_amount(self, size: int) -> tuple[int, int]:
        if self.padding == "valid":
            return 0, 0
        out = self._out_size(size)
        total = max((out - 1) * self.stride + self.pool - size, 0)
        return total // 2, total - total // 2

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        n, h, w, c = input_shapes[0]
        oh, ow = self._out_size(h), self._out_size(w)
        if oh < 1 or ow < 1:
            raise GraphError(f"{self.name}: pool {self.pool} too large for {h}x{w}")
        return (n, oh, ow, c)

    def _windows(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        pt, pb = self._pad_amount(h)
        pl, pr = self._pad_amount(w)
        x = _pad_hw(x, pt, pb, pl, pr, self.pad_value)
        h, w = x.shape[1], x.shape[2]
        oh = (h - self.pool) // self.stride + 1
        ow = (w - self.pool) // self.stride + 1
        s = x.strides
        return np.lib.stride_tricks.as_strided(
            x,
            shape=(n, oh, ow, self.pool, self.pool, c),
            strides=(s[0], s[1] * self.stride, s[2] * self.stride, s[1], s[2], s[3]),
            writeable=False,
        )


class MaxPool(_Pool):
    """Max pooling (Section 2.1.2).  'same' padding fills with -inf."""

    pad_value = -np.inf

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        # Elementwise maxima over the pool x pool window offsets in
        # row-major order: the same bytes as reducing the 6-D window view
        # with ``.max(axis=(3, 4))`` (ties, ±0 included, resolve the same
        # way), without the strided reduce.
        windows = self._windows(_require_single(inputs, self))
        out = np.array(windows[:, :, :, 0, 0])
        for i in range(self.pool):
            for j in range(self.pool):
                if i or j:
                    np.maximum(out, windows[:, :, :, i, j], out=out)
        return out


class AvgPool(_Pool):
    """Average pooling.  'same' padding uses zero fill (count-include-pad)."""

    pad_value = 0.0

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        return self._windows(x).mean(axis=(3, 4))


class GlobalAvgPool(Layer):
    """Spatial global average (ResNet/Inception heads)."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        n, _, _, c = input_shapes[0]
        return (n, c)

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        return x.mean(axis=(1, 2))


class ReLU(Layer):
    """Rectified linear activation (the benchmarks' default, Section 3.2)."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        return input_shapes[0]

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        return np.maximum(_require_single(inputs, self), 0.0)


class BatchNorm(Layer):
    """Inference-time batch normalization: per-channel affine transform."""

    def __init__(self, name: str, scale: np.ndarray, shift: np.ndarray):
        super().__init__(name)
        self.scale = np.asarray(scale, dtype=np.float32)
        self.shift = np.asarray(shift, dtype=np.float32)
        if self.scale.shape != self.shift.shape or self.scale.ndim != 1:
            raise GraphError(f"{name}: scale/shift must be matching 1-D arrays")

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        shape = input_shapes[0]
        if shape[-1] != self.scale.shape[0]:
            raise GraphError(
                f"{self.name}: channels {shape[-1]} != {self.scale.shape[0]}"
            )
        return shape

    def param_count(self) -> int:
        return int(self.scale.size + self.shift.size)

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        out = _require_single(inputs, self) * self.scale
        out += self.shift
        return out


class Softmax(Layer):
    """Class-probability head (Section 2.1.2)."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        return input_shapes[0]

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)


class Flatten(Layer):
    """Collapse spatial dimensions before a Dense head."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        shape = input_shapes[0]
        return (shape[0], int(np.prod(shape[1:])))

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        x = _require_single(inputs, self)
        return x.reshape(x.shape[0], -1)


class Add(Layer):
    """Elementwise sum (ResNet residual connections)."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        first = input_shapes[0]
        for shape in input_shapes[1:]:
            if shape != first:
                raise GraphError(f"{self.name}: Add shape mismatch {input_shapes}")
        return first

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        if len(inputs) < 2:
            raise GraphError(f"{self.name}: Add needs >= 2 inputs")
        out = inputs[0].copy()
        for x in inputs[1:]:
            out += x
        return out


class Concat(Layer):
    """Channel concatenation (GoogleNet/Inception branch merge)."""

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        first = input_shapes[0]
        channels = 0
        for shape in input_shapes:
            if shape[:-1] != first[:-1]:
                raise GraphError(f"{self.name}: Concat spatial mismatch {input_shapes}")
            channels += shape[-1]
        return first[:-1] + (channels,)

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        if len(inputs) < 2:
            raise GraphError(f"{self.name}: Concat needs >= 2 inputs")
        return np.concatenate(inputs, axis=-1)


class Input(Layer):
    """Graph entry placeholder carrying the input shape (without batch)."""

    def __init__(self, name: str, shape: tuple[int, ...]):
        super().__init__(name)
        self.shape = tuple(shape)

    def output_shape(self, input_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        if input_shapes:
            raise GraphError(f"{self.name}: Input takes no inputs")
        return (-1,) + self.shape  # -1 marks the batch dimension

    def forward(self, inputs: list[np.ndarray]) -> np.ndarray:
        raise GraphError("Input layers are fed by the executor, not forward()")
