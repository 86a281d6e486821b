"""Unit tests for every layer kind: geometry, typed forward, gradients."""

import numpy as np
import pytest

from repro.dtypes import FLOAT16, FXP_16B_RB10
from repro.nn import (
    LRN,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
    ReLU,
    Softmax,
)


def numeric_grad(fn, x, dy, eps=1e-6):
    """Central-difference gradient of sum(fn(x) * dy) w.r.t. x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        grad[idx] = ((fn(xp) * dy).sum() - (fn(xm) * dy).sum()) / (2 * eps)
        it.iternext()
    return grad


class TestConv2D:
    def test_out_shape(self):
        conv = Conv2D("c", 3, 8, 5, stride=2, pad=2)
        assert conv.out_shape((3, 32, 32)) == (8, 16, 16)

    def test_channel_mismatch_raises(self):
        conv = Conv2D("c", 3, 8, 3)
        with pytest.raises(ValueError):
            conv.out_shape((4, 8, 8))

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            Conv2D("c", 0, 8, 3)
        with pytest.raises(ValueError):
            Conv2D("c", 3, 8, 3, pad=-1)

    def test_forward_quantizes_output(self, rng):
        conv = Conv2D("c", 2, 3, 3, pad=1)
        conv.weight[:] = rng.normal(0, 1, conv.weight.shape)
        x = FLOAT16.quantize(rng.normal(0, 1, (1, 2, 5, 5)))
        y = conv.forward(x, FLOAT16)
        assert np.array_equal(y, FLOAT16.quantize(y))

    def test_quantized_weight_cache_invalidation(self, rng):
        conv = Conv2D("c", 2, 3, 3)
        conv.weight[:] = rng.normal(0, 1, conv.weight.shape)
        w1, _ = conv.quantized_weights(FLOAT16)
        conv.weight *= 2.0
        assert np.array_equal(conv.quantized_weights(FLOAT16)[0], w1)  # stale cache
        conv.invalidate_weight_cache()
        assert not np.array_equal(conv.quantized_weights(FLOAT16)[0], w1)

    def test_quantized_weight_cache_is_read_only(self, rng):
        conv = Conv2D("c", 2, 3, 3)
        conv.weight[:] = rng.normal(0, 1, conv.weight.shape)
        for arr in conv.quantized_weights(FLOAT16):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        conv.weight *= 2.0  # the layer's own parameters stay writable

    def test_gradients(self, rng):
        conv = Conv2D("c", 2, 3, 3, stride=2, pad=1)
        conv.weight[:] = rng.normal(0, 0.5, conv.weight.shape)
        conv.bias[:] = rng.normal(0, 0.1, 3)
        x = rng.normal(0, 1, (2, 2, 5, 5))
        y, cache = conv.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, grads = conv.backward(cache, dy)
        assert np.allclose(dx, numeric_grad(lambda v: conv.forward_train(v)[0], x, dy), atol=1e-5)

        def with_w(w):
            saved = conv.weight.copy()
            conv.weight[:] = w
            out = conv.forward_train(x)[0]
            conv.weight[:] = saved
            return out

        assert np.allclose(grads["weight"], numeric_grad(with_w, conv.weight.copy(), dy), atol=1e-4)
        assert np.allclose(grads["bias"], dy.sum(axis=(0, 2, 3)))

    def test_mac_count(self):
        conv = Conv2D("c", 3, 8, 5, pad=2)
        assert conv.mac_count((3, 16, 16)) == 8 * 16 * 16 * 3 * 25

    def test_mac_operands_reproduce_output(self, rng):
        conv = Conv2D("c", 2, 3, 3, stride=1, pad=1)
        conv.weight[:] = rng.normal(0, 1, conv.weight.shape)
        conv.bias[:] = rng.normal(0, 0.1, 3)
        x = rng.normal(0, 1, (2, 6, 6))
        y = conv.forward(x[None], None)[0]
        for idx in [(0, 0, 0), (1, 3, 2), (2, 5, 5)]:
            chain = conv.mac_operands(x, idx, None)
            val = (chain.weights * chain.inputs).sum() + chain.bias
            assert np.isclose(val, y[idx])


class TestDense:
    def test_out_shape_and_flattening(self):
        fc = Dense("fc", 24, 10)
        assert fc.out_shape((24,)) == (10,)
        assert fc.out_shape((2, 3, 4)) == (10,)
        with pytest.raises(ValueError):
            fc.out_shape((25,))

    def test_gradients(self, rng):
        fc = Dense("fc", 6, 4)
        fc.weight[:] = rng.normal(0, 0.5, fc.weight.shape)
        fc.bias[:] = rng.normal(0, 0.1, 4)
        x = rng.normal(0, 1, (3, 6))
        y, cache = fc.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, grads = fc.backward(cache, dy)
        assert np.allclose(dx, numeric_grad(lambda v: fc.forward_train(v)[0], x, dy), atol=1e-6)
        assert np.allclose(grads["bias"], dy.sum(axis=0))

    def test_mac_operands(self, rng):
        fc = Dense("fc", 6, 4)
        fc.weight[:] = rng.normal(0, 1, fc.weight.shape)
        x = rng.normal(0, 1, (6,))
        y = fc.forward(x[None], None)[0]
        chain = fc.mac_operands(x, (2,), None)
        assert np.isclose((chain.weights * chain.inputs).sum() + chain.bias, y[2])
        assert chain.length == 6

    def test_forward_fxp_saturation(self, rng):
        fc = Dense("fc", 4, 2)
        fc.weight[:] = 100.0
        x = np.full((1, 4), 10.0)
        y = fc.forward(x, FXP_16B_RB10)
        assert (y == FXP_16B_RB10.max_value).all()


class TestReLU:
    def test_masks_negatives(self):
        r = ReLU("r")
        x = np.array([[-1.0, 0.0, 2.5]])
        assert np.array_equal(r.forward(x), [[0.0, 0.0, 2.5]])

    def test_nan_passthrough(self):
        r = ReLU("r")
        assert np.isnan(r.forward(np.array([[np.nan]]))[0, 0])

    def test_gradient(self, rng):
        r = ReLU("r")
        x = rng.normal(0, 1, (2, 5))
        y, cache = r.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, _ = r.backward(cache, dy)
        assert np.array_equal(dx, dy * (x > 0))


class TestSoftmax:
    def test_normalizes(self, rng):
        sm = Softmax("s")
        y = sm.forward(rng.normal(0, 5, (2, 7)))
        assert np.allclose(y.sum(axis=1), 1.0)
        assert (y >= 0).all()

    def test_shift_invariance(self, rng):
        sm = Softmax("s")
        x = rng.normal(0, 1, (1, 5))
        assert np.allclose(sm.forward(x), sm.forward(x + 100.0))

    def test_nan_poisons(self):
        sm = Softmax("s")
        y = sm.forward(np.array([[1.0, np.nan, 2.0]]))
        assert np.isnan(y).all()

    def test_inf_poisons(self):
        sm = Softmax("s")
        y = sm.forward(np.array([[1.0, np.inf, 2.0]]))
        assert np.isnan(y).any()

    def test_gradient(self, rng):
        sm = Softmax("s")
        x = rng.normal(0, 1, (2, 4))
        y, cache = sm.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, _ = sm.backward(cache, dy)
        num = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num[idx] = ((sm.forward_train(xp)[0] - sm.forward_train(xm)[0]) * dy).sum() / (2 * eps)
        assert np.allclose(dx, num, atol=1e-5)


class TestMaxPool:
    def test_out_shape(self):
        p = MaxPool2D("p", 3, stride=2)
        assert p.out_shape((4, 15, 15)) == (4, 7, 7)

    def test_selects_maximum(self):
        p = MaxPool2D("p", 2)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        y = p.forward(x)
        assert np.array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_padded_pooling_uses_neg_inf(self):
        p = MaxPool2D("p", 3, stride=2, pad=1)
        x = np.full((1, 1, 4, 4), -5.0)
        y = p.forward(x)
        assert (y == -5.0).all()  # zero padding must not win

    def test_forward_train_matches_inference(self, rng):
        """Training pads with -inf too, so a padded pool trains on the
        function it infers and routes no gradient into the padding."""
        p = MaxPool2D("p", 3, stride=2, pad=1)
        x = -1.0 - rng.uniform(0, 4, (2, 3, 7, 7))  # all negative
        x[0, 0, 0, 0] = -1.0
        y, cache = p.forward_train(x)
        assert y.tobytes() == p.forward(x).tobytes()
        assert y[0, 0, 0, 0] == -1.0
        dx, _ = p.backward(cache, np.ones_like(y))
        assert dx.sum() == y.size

    def test_gradient_routes_to_argmax(self, rng):
        p = MaxPool2D("p", 2)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        y, cache = p.forward_train(x)
        dy = np.ones_like(y)
        dx, _ = p.backward(cache, dy)
        assert dx.sum() == y.size  # each output routed one gradient unit
        assert ((dx == 0) | (dx == 1)).all()

    def test_masks_errors_in_discarded_positions(self):
        p = MaxPool2D("p", 2)
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = 10.0
        y_ref = p.forward(x).copy()
        x[0, 0, 1, 1] = 5.0  # corrupted but still below the max
        assert np.array_equal(p.forward(x), y_ref)


class TestGlobalAvgPool:
    def test_reduces_to_channel_means(self, rng):
        g = GlobalAvgPool("g")
        x = rng.normal(0, 1, (2, 3, 4, 4))
        assert np.allclose(g.forward(x), x.mean(axis=(2, 3)))
        assert g.out_shape((3, 4, 4)) == (3,)

    def test_gradient(self, rng):
        g = GlobalAvgPool("g")
        x = rng.normal(0, 1, (1, 2, 3, 3))
        y, cache = g.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, _ = g.backward(cache, dy)
        assert np.allclose(dx, np.broadcast_to(dy[:, :, None, None] / 9, x.shape))


class TestFlatten:
    def test_roundtrip(self, rng):
        fl = Flatten("f")
        x = rng.normal(0, 1, (2, 3, 4, 4))
        y, cache = fl.forward_train(x)
        assert y.shape == (2, 48)
        dx, _ = fl.backward(cache, y)
        assert np.array_equal(dx, x)


class TestLRN:
    def test_identity_near_zero(self, rng):
        lrn = LRN("n", n=5, alpha=1e-4, beta=0.75, k=2.0)
        x = rng.normal(0, 0.01, (1, 8, 3, 3))
        y = lrn.forward(x)
        # Tiny activations: denominator ~ k^beta, a fixed gain.
        assert np.allclose(y, x / 2.0**0.75, rtol=1e-3)

    def test_suppresses_huge_values(self):
        lrn = LRN("n")
        x = np.zeros((1, 8, 2, 2))
        x[0, 3, 0, 0] = 1e8
        y = lrn.forward(x)
        assert abs(y[0, 3, 0, 0]) < 1e6  # orders of magnitude attenuation

    def test_window_is_local_across_channels(self):
        lrn = LRN("n", n=3)
        x = np.zeros((1, 9, 1, 1))
        x[0, 0] = 100.0
        y = lrn.forward(x)
        # A huge channel-0 value must not affect channel 5 (outside window).
        x2 = x.copy()
        x2[0, 5] = 1.0
        y2 = lrn.forward(x2)
        assert np.isclose(y2[0, 5, 0, 0], lrn.forward(np.eye(1)[None, None] * 0 + x2 * 0 + x2)[0, 5, 0, 0])
        assert y[0, 1, 0, 0] == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LRN("n", n=0)
        with pytest.raises(ValueError):
            LRN("n", alpha=-1)

    def test_matches_naive_reference(self, rng):
        lrn = LRN("n", n=5, alpha=1e-4, beta=0.75, k=2.0)
        x = rng.normal(0, 2, (1, 12, 3, 3))
        y = lrn.forward(x)
        c = 12
        for ch in range(c):
            lo, hi = max(0, ch - 2), min(c - 1, ch + 2)
            denom = (2.0 + (1e-4 / 5) * (x[0, lo : hi + 1] ** 2).sum(axis=0)) ** 0.75
            assert np.allclose(y[0, ch], x[0, ch] / denom)

    def test_nan_passthrough(self):
        lrn = LRN("n")
        x = np.zeros((1, 5, 1, 1))
        x[0, 2] = np.nan
        assert np.isnan(lrn.forward(x)[0, 2, 0, 0])


class TestLRNTraining:
    def test_gradient_numeric(self, rng):
        lrn = LRN("n", n=5, alpha=0.05, beta=0.75, k=2.0)
        x = rng.normal(0, 2, (2, 8, 3, 3))
        y, cache = lrn.forward_train(x)
        dy = rng.normal(0, 1, y.shape)
        dx, grads = lrn.backward(cache, dy)
        assert grads == {}
        eps = 1e-6
        num = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += eps
            xm[idx] -= eps
            num[idx] = (
                (lrn.forward_train(xp)[0] - lrn.forward_train(xm)[0]) * dy
            ).sum() / (2 * eps)
        assert np.allclose(dx, num, atol=1e-6)

    def test_forward_train_matches_inference(self, rng):
        lrn = LRN("n")
        x = rng.normal(0, 2, (1, 6, 4, 4))
        y_train, _ = lrn.forward_train(x)
        assert np.allclose(y_train, lrn.forward(x))


class TestLRNRobustPath:
    def test_no_nan_contagion_from_huge_values(self):
        # Regression: the O(c) cumsum window once produced inf - inf = NaN
        # for every channel after a value whose square overflows.
        lrn = LRN("n")
        x = np.zeros((1, 12, 2, 2))
        x[0, 3, 0, 0] = 1e200
        y = lrn.forward(x)
        assert np.isfinite(y).all()
        assert y[0, 3, 0, 0] == 0.0  # the huge value itself is squashed

    def test_channels_outside_window_untouched(self, rng):
        lrn = LRN("n", n=5)
        x = rng.normal(0, 2, (1, 12, 3, 3))
        ref = lrn.forward(x)
        corrupted = x.copy()
        corrupted[0, 2, 1, 1] = 1e180
        y = lrn.forward(corrupted)
        # channels 5.. are outside channel 2's 5-wide window
        assert np.allclose(y[0, 6:], ref[0, 6:])

    def test_robust_path_matches_fast_path(self, rng):
        # Force the robust path with a large-but-finite trigger value on
        # one tensor and compare against the fast path on clean data.
        lrn = LRN("n", n=5)
        x = rng.normal(0, 2, (1, 10, 2, 2))
        fast = lrn._denominator(x)
        trigger = x.copy()
        trigger[0, 0, 0, 0] = 1e290  # robust path engages
        robust = lrn._denominator(trigger)
        # all entries whose window excludes (0,0,0,0) must agree exactly
        assert np.allclose(robust[0, 3:, :, :], fast[0, 3:, :, :])
        assert np.allclose(robust[0, :, 1, :], fast[0, :, 1, :])
