"""Layer tests: numeric references and shape/geometry rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import GraphError
from repro.nn.layers import (
    Add,
    AvgPool,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    Input,
    MaxPool,
    ReLU,
    Softmax,
)

RNG = np.random.default_rng(11)


def naive_conv2d(x, w, b, stride, pad):
    """Straightforward (slow) conv reference for the im2col implementation."""
    n, h, wdt, c = x.shape
    kh, kw, ci, co = w.shape
    x = np.pad(x, ((0, 0), (pad[0], pad[1]), (pad[2], pad[3]), (0, 0)))
    hp, wp = x.shape[1], x.shape[2]
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros((n, oh, ow, co), dtype=np.float32)
    for i in range(oh):
        for j in range(ow):
            patch = x[:, i * stride : i * stride + kh, j * stride : j * stride + kw, :]
            out[:, i, j, :] = np.tensordot(patch, w, axes=([1, 2, 3], [0, 1, 2]))
    return out + b


class TestConv2D:
    @pytest.mark.parametrize("stride,padding", [(1, "same"), (2, "same"), (1, "valid"), (2, "valid")])
    def test_matches_naive_reference(self, stride, padding):
        x = RNG.normal(size=(2, 9, 9, 3)).astype(np.float32)
        w = RNG.normal(size=(3, 3, 3, 5)).astype(np.float32)
        b = RNG.normal(size=5).astype(np.float32)
        layer = Conv2D("c", w, b, stride=stride, padding=padding)
        got = layer.forward([x])
        if padding == "same":
            pt, pb = layer._pad_amount(9, 3)
            pads = (pt, pb, pt, pb)
        else:
            pads = (0, 0, 0, 0)
        expected = naive_conv2d(x, w, b, stride, pads)
        np.testing.assert_allclose(got, expected, rtol=1e-4, atol=1e-4)

    def test_same_padding_preserves_spatial_dims(self):
        layer = Conv2D("c", RNG.normal(size=(3, 3, 4, 8)))
        assert layer.output_shape([(1, 16, 16, 4)]) == (1, 16, 16, 8)

    def test_strided_same_uses_ceil(self):
        layer = Conv2D("c", RNG.normal(size=(3, 3, 4, 8)), stride=2)
        assert layer.output_shape([(1, 15, 15, 4)]) == (1, 8, 8, 8)

    def test_channel_mismatch_rejected(self):
        layer = Conv2D("c", RNG.normal(size=(3, 3, 4, 8)))
        with pytest.raises(GraphError):
            layer.output_shape([(1, 16, 16, 3)])

    def test_mac_count(self):
        layer = Conv2D("c", RNG.normal(size=(3, 3, 4, 8)))
        assert layer.mac_ops([(1, 16, 16, 4)]) == 16 * 16 * 8 * 3 * 3 * 4

    def test_param_count_includes_bias(self):
        layer = Conv2D("c", RNG.normal(size=(3, 3, 4, 8)))
        assert layer.param_count() == 3 * 3 * 4 * 8 + 8

    def test_bad_weights_rejected(self):
        with pytest.raises(GraphError):
            Conv2D("c", RNG.normal(size=(3, 3, 4)))
        with pytest.raises(GraphError):
            Conv2D("c", RNG.normal(size=(3, 3, 4, 8)), stride=0)
        with pytest.raises(GraphError):
            Conv2D("c", RNG.normal(size=(3, 3, 4, 8)), padding="reflect")

    def test_bias_shape_checked(self):
        with pytest.raises(GraphError):
            Conv2D("c", RNG.normal(size=(3, 3, 4, 8)), bias=np.zeros(4))


def _padded_windows(x, pads, fill, k, stride):
    """Reference sliding windows: ``np.pad``, then an (n, oh, ow, k, k, c) view."""
    (pt, pb), (pl, pr) = pads
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)), constant_values=fill)
    view = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return view.transpose(0, 1, 2, 4, 5, 3)


#: Activation-like values, signed zeros included: the byte oracles below
#: must agree on which zero a tie keeps.
_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -3.0, 0.25, 7.5]
).map(np.float32)

_GEOMETRY = dict(
    n=st.integers(1, 3),
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    c=st.integers(1, 4),
    k=st.integers(1, 3),
    stride=st.integers(1, 3),
    padding=st.sampled_from(["same", "valid"]),
)


class TestWindowedLayerOracles:
    """The rewritten windowed layers give the bytes of their ``np.pad``
    and strided-reduce references: the executor's byte-identity with the
    serial loop rests on them."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), **_GEOMETRY)
    def test_conv2d_matches_np_pad_reference(self, data, n, h, w, c, k, stride, padding):
        co = data.draw(st.integers(1, 4), label="co")
        x = data.draw(arrays(np.float32, (n, h, w, c), elements=_VALUES), label="x")
        weights = data.draw(arrays(np.float32, (k, k, c, co), elements=_VALUES), label="w")
        bias = data.draw(arrays(np.float32, (co,), elements=_VALUES), label="b")
        layer = Conv2D("c", weights, bias, stride=stride, padding=padding)
        pads = (layer._pad_amount(h, k), layer._pad_amount(w, k))
        windows = _padded_windows(x, pads, 0.0, k, stride)
        oh, ow = windows.shape[1:3]
        cols = windows.reshape(n, oh * ow, k * k * c)
        want = (cols @ weights.reshape(-1, co) + bias).reshape(n, oh, ow, co)
        got = layer.forward([x])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), **_GEOMETRY)
    def test_maxpool_matches_strided_reduce(self, data, n, h, w, c, k, stride, padding):
        x = data.draw(arrays(np.float32, (n, h, w, c), elements=_VALUES), label="x")
        layer = MaxPool("p", pool=k, stride=stride, padding=padding)
        pads = (layer._pad_amount(h), layer._pad_amount(w))
        want = _padded_windows(x, pads, -np.inf, k, stride).max(axis=(3, 4))
        assert np.array_equal(layer._windows(x), _padded_windows(x, pads, -np.inf, k, stride))
        got = layer.forward([x])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), **_GEOMETRY)
    def test_avgpool_matches_np_pad_reference(self, data, n, h, w, c, k, stride, padding):
        x = data.draw(arrays(np.float32, (n, h, w, c), elements=_VALUES), label="x")
        layer = AvgPool("p", pool=k, stride=stride, padding=padding)
        pads = (layer._pad_amount(h), layer._pad_amount(w))
        want = _padded_windows(x, pads, 0.0, k, stride).mean(axis=(3, 4))
        assert layer.forward([x]).tobytes() == want.tobytes()

    def test_maxpool_keeps_the_last_zero_of_a_tie_like_the_reduce(self):
        x = np.array([0.0, -0.0, -0.0, -0.0], dtype=np.float32).reshape(1, 2, 2, 1)
        for pool_input in (x, -x):
            layer = MaxPool("p", pool=2)
            want = _padded_windows(pool_input, ((0, 0), (0, 0)), -np.inf, 2, 2).max(axis=(3, 4))
            assert layer.forward([pool_input]).tobytes() == want.tobytes()


class TestDense:
    def test_matches_matmul(self):
        x = RNG.normal(size=(4, 10)).astype(np.float32)
        w = RNG.normal(size=(10, 3)).astype(np.float32)
        b = RNG.normal(size=3).astype(np.float32)
        got = Dense("d", w, b).forward([x])
        np.testing.assert_allclose(got, x @ w + b, rtol=1e-5)

    def test_flattens_spatial_inputs(self):
        x = RNG.normal(size=(2, 4, 4, 3)).astype(np.float32)
        w = RNG.normal(size=(48, 7)).astype(np.float32)
        assert Dense("d", w).forward([x]).shape == (2, 7)

    def test_feature_mismatch_rejected(self):
        layer = Dense("d", RNG.normal(size=(48, 7)))
        with pytest.raises(GraphError):
            layer.output_shape([(1, 4, 4, 2)])

    def test_mac_count_is_weight_size(self):
        layer = Dense("d", RNG.normal(size=(48, 7)))
        assert layer.mac_ops([(1, 48)]) == 48 * 7


class TestPooling:
    def test_maxpool_picks_maxima(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = MaxPool("p", pool=2).forward([x])
        np.testing.assert_array_equal(
            out[0, :, :, 0], np.array([[5.0, 7.0], [13.0, 15.0]])
        )

    def test_avgpool_averages(self):
        x = np.ones((1, 4, 4, 2), dtype=np.float32)
        out = AvgPool("p", pool=2).forward([x])
        np.testing.assert_allclose(out, np.ones((1, 2, 2, 2)))

    def test_same_padding_keeps_ceil_size(self):
        x = RNG.normal(size=(1, 5, 5, 2)).astype(np.float32)
        out = MaxPool("p", pool=3, stride=2, padding="same").forward([x])
        assert out.shape == (1, 3, 3, 2)

    def test_same_maxpool_padding_never_wins(self):
        # -inf fill means padded cells never become the max.
        x = -np.ones((1, 5, 5, 1), dtype=np.float32)
        out = MaxPool("p", pool=3, stride=2, padding="same").forward([x])
        assert out.max() == -1.0

    def test_stride1_same_preserves_shape(self):
        layer = MaxPool("p", pool=3, stride=1, padding="same")
        assert layer.output_shape([(1, 8, 8, 4)]) == (1, 8, 8, 4)

    def test_oversized_valid_pool_rejected(self):
        with pytest.raises(GraphError):
            MaxPool("p", pool=5).output_shape([(1, 4, 4, 1)])

    def test_bad_padding_rejected(self):
        with pytest.raises(GraphError):
            MaxPool("p", pool=2, padding="full")


class TestActivationsAndShape:
    def test_relu_clamps_negatives(self):
        out = ReLU("r").forward([np.array([[-1.0, 2.0]], dtype=np.float32)])
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 10)).astype(np.float32)
        out = Softmax("s").forward([x])
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), rtol=1e-5)

    def test_softmax_is_shift_invariant(self):
        x = RNG.normal(size=(2, 4)).astype(np.float32)
        s = Softmax("s")
        np.testing.assert_allclose(
            s.forward([x]), s.forward([x + 100.0]), rtol=1e-4
        )

    def test_batchnorm_affine(self):
        x = np.ones((1, 2, 2, 3), dtype=np.float32)
        bn = BatchNorm("b", scale=np.array([2.0, 3.0, 4.0]), shift=np.array([1.0, 1.0, 1.0]))
        out = bn.forward([x])
        np.testing.assert_allclose(out[0, 0, 0], [3.0, 4.0, 5.0])

    def test_batchnorm_channel_mismatch(self):
        bn = BatchNorm("b", scale=np.ones(3), shift=np.zeros(3))
        with pytest.raises(GraphError):
            bn.output_shape([(1, 2, 2, 4)])

    def test_flatten(self):
        x = RNG.normal(size=(2, 3, 3, 4)).astype(np.float32)
        assert Flatten("f").forward([x]).shape == (2, 36)

    def test_global_avg_pool(self):
        x = RNG.normal(size=(2, 4, 4, 8)).astype(np.float32)
        out = GlobalAvgPool("g").forward([x])
        np.testing.assert_allclose(out, x.mean(axis=(1, 2)), rtol=1e-5)


class TestMergeLayers:
    def test_add_sums_inputs(self):
        a = np.ones((1, 2, 2, 3), dtype=np.float32)
        out = Add("a").forward([a, a * 2.0, a * 3.0])
        np.testing.assert_allclose(out, a * 6.0)

    def test_add_does_not_mutate_inputs(self):
        a = np.ones((1, 2), dtype=np.float32)
        b = np.ones((1, 2), dtype=np.float32)
        Add("a").forward([a, b])
        np.testing.assert_array_equal(a, np.ones((1, 2)))

    def test_add_shape_mismatch(self):
        with pytest.raises(GraphError):
            Add("a").output_shape([(1, 2, 2, 3), (1, 2, 2, 4)])

    def test_add_requires_two_inputs(self):
        with pytest.raises(GraphError):
            Add("a").forward([np.ones((1, 2))])

    def test_concat_stacks_channels(self):
        a = np.ones((1, 2, 2, 3), dtype=np.float32)
        b = np.zeros((1, 2, 2, 5), dtype=np.float32)
        out = Concat("c").forward([a, b])
        assert out.shape == (1, 2, 2, 8)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(GraphError):
            Concat("c").output_shape([(1, 2, 2, 3), (1, 3, 3, 3)])


class TestInput:
    def test_input_shape_has_batch_placeholder(self):
        layer = Input("in", (32, 32, 3))
        assert layer.output_shape([]) == (-1, 32, 32, 3)

    def test_input_rejects_predecessors(self):
        with pytest.raises(GraphError):
            Input("in", (4, 4, 1)).output_shape([(1, 2)])

    def test_input_forward_is_executor_only(self):
        with pytest.raises(GraphError):
            Input("in", (4, 4, 1)).forward([])
