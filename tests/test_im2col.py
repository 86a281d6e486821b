"""im2col/col2im against naive reference implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import strategies as st

from repro.nn.im2col import (
    col2im,
    col_indices,
    conv_out_size,
    im2col,
    pad_fmap,
    patch_indices,
    row_windows,
)
from repro.nn.layers.conv import _TILE_COLS, Conv2D
from repro.nn.layers.pool import MaxPool2D
from repro.zoo import NETWORKS


def naive_conv(x, w, stride, pad):
    """Direct-loop convolution reference."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(wd, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    patch = xp[b, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                    out[b, fi, oy, ox] = (patch * w[fi]).sum()
    return out


class TestConvOutSize:
    def test_basic(self):
        assert conv_out_size(32, 3, 1, 1) == 32
        assert conv_out_size(227, 11, 4, 0) == 55
        assert conv_out_size(7, 3, 2, 0) == 3

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_out_size(2, 5, 1, 0)


class TestIm2Col:
    @pytest.mark.parametrize("stride,pad,kh", [(1, 0, 3), (1, 1, 3), (2, 0, 3), (2, 2, 5), (3, 1, 2)])
    def test_matches_naive_conv(self, rng, stride, pad, kh):
        x = rng.normal(0, 1, (2, 3, 9, 9))
        w = rng.normal(0, 1, (4, 3, kh, kh))
        cols = im2col(x, kh, kh, stride, pad)
        oh = conv_out_size(9, kh, stride, pad)
        y = (w.reshape(4, -1) @ cols).reshape(4, 2, oh * oh).transpose(1, 0, 2).reshape(2, 4, oh, oh)
        assert np.allclose(y, naive_conv(x, w, stride, pad))

    def test_shape(self, rng):
        x = rng.normal(0, 1, (2, 3, 8, 8))
        cols = im2col(x, 3, 3, 1, 1)
        assert cols.shape == (3 * 9, 2 * 8 * 8)


class TestCol2Im:
    @given(
        stride=st.integers(1, 2),
        pad=st.integers(0, 2),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_adjoint_property(self, stride, pad, seed):
        """<im2col(x), c> == <x, col2im(c)> — the defining adjoint identity."""
        g = np.random.default_rng(seed)
        x = g.normal(0, 1, (1, 2, 7, 7))
        cols_shape = im2col(x, 3, 3, stride, pad).shape
        c = g.normal(0, 1, cols_shape)
        lhs = (im2col(x, 3, 3, stride, pad) * c).sum()
        rhs = (x * col2im(c, x.shape, 3, 3, stride, pad)).sum()
        assert np.isclose(lhs, rhs)

    def test_counts_overlaps(self):
        """col2im of ones counts how many windows cover each pixel."""
        x_shape = (1, 1, 4, 4)
        cols = np.ones((4, 9))  # 2x2 kernel, stride 1, no pad -> 3x3 outputs
        back = col2im(cols, x_shape, 2, 2, 1, 0)
        assert back[0, 0, 0, 0] == 1  # corner covered once
        assert back[0, 0, 1, 1] == 4  # interior covered by 4 windows


class TestPatchIndices:
    def test_matches_im2col_column(self, rng):
        x = rng.normal(0, 1, (3, 9, 9))
        kh = kw = 3
        stride, pad = 2, 1
        cols = im2col(x[None], kh, kw, stride, pad)
        ow = conv_out_size(9, kw, stride, pad)
        for oy, ox in [(0, 0), (1, 2), (4, 4)]:
            cc, yy, xx, valid = patch_indices((1, 3, 9, 9), (oy, ox), kh, kw, stride, pad)
            taps = np.zeros(cc.shape[0])
            taps[valid] = x[cc[valid], yy[valid], xx[valid]]
            assert np.array_equal(taps, cols[:, oy * ow + ox])

    def test_padding_marked_invalid(self):
        cc, yy, xx, valid = patch_indices((1, 1, 4, 4), (0, 0), 3, 3, 1, 1)
        assert not valid[0]  # top-left tap is in the padding
        assert valid[4]  # centre tap is real


def _zoo_geometries(scales=("reduced", "full")):
    """Every distinct conv and max-pool geometry of the zoo networks, as
    ``(kind, c, h, w, kernel, stride, pad, out_channels)``."""
    geos = set()
    for build in NETWORKS.values():
        for scale in scales:
            net = build(scale=scale)
            for layer, shape in zip(net.layers, net.shapes):
                if layer.kind in ("conv", "pool"):
                    out = getattr(layer, "out_channels", 0)
                    geos.add((layer.kind, *shape, layer.kernel, layer.stride, layer.pad, out))
    return geos


#: Window geometries ``(kind, h, w, kernel, stride, pad)`` at both scales,
#: plus one padded pool (no shipped network pads a pool).
WINDOW_GEOMETRIES = sorted(
    {g[:1] + g[2:7] for g in _zoo_geometries()} | {("pool", 7, 7, 3, 2, 1)}
)
#: Whole reduced-scale layers, with their real channel counts.
REDUCED_LAYERS = sorted(_zoo_geometries(("reduced",)) | {("pool", 4, 7, 7, 3, 2, 1, 0)})


def _special_input(rng, shape):
    """Random values salted with NaN, +-inf and -0.0."""
    x = rng.normal(0, 1, shape)
    flat = x.reshape(-1)
    picks = rng.choice(flat.size, size=min(flat.size, 64), replace=False)
    flat[picks] = np.resize([np.nan, np.inf, -np.inf, -0.0], picks.size)
    return x


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowWindows:
    """The strided window gather against the ``col_indices`` index gather.

    Two channels stand in for each layer's channel count: the windows
    depend on the spatial geometry, and two channels fix the tap order
    across channels.
    """

    N, C = 3, 2
    TRIALS = (None, [1], [0, 2])

    @pytest.mark.parametrize("kind,h,w,k,s,p", WINDOW_GEOMETRIES, ids=str)
    def test_matches_index_gather(self, rng, kind, h, w, k, s, p):
        x = _special_input(rng, (self.N, self.C, h, w))
        oh, ow = conv_out_size(h, k, s, p), conv_out_size(w, k, s, p)
        if kind == "conv":
            xp = pad_fmap(x, p)
            ki, ii, jj, _, _ = col_indices(self.C, h, w, k, k, s, p)
            oracle = xp[:, ki, ii, jj]  # (n, c*k*k, oh*ow)
            flat = im2col(x, k, k, s, p)
            rpt = max(1, _TILE_COLS // ow)
            spans = [(t0, min(t0 + rpt, oh)) for t0 in range(0, oh, rpt)]
        else:
            xp = pad_fmap(x, p, -np.inf).reshape(self.N * self.C, 1, h + 2 * p, w + 2 * p)
            ki, ii, jj, _, _ = col_indices(1, h + 2 * p, w + 2 * p, k, k, s, 0)
            oracle = xp[:, ki, ii, jj]  # (n*c, k*k, oh*ow)
            flat = im2col(x.reshape(-1, 1, h, w), k, k, s, p, fill=-np.inf)
            spans = [(0, oh)] + [(r, r + 1) for r in range(oh)] + [(oh // 2, oh)]
        assert _same_bits(flat, oracle.transpose(1, 0, 2).reshape(flat.shape))
        for r0, r1 in spans:
            for trials in self.TRIALS:
                want = oracle[:, :, r0 * ow : r1 * ow]
                if trials is not None:
                    want = want[trials]
                win = row_windows(xp, k, k, s, r0, r1, trials)
                got = win.reshape(want.shape[0], -1, (r1 - r0) * ow)
                assert _same_bits(got, want), (r0, r1, trials)

    @pytest.mark.parametrize("kind,c,h,w,k,s,p,out", REDUCED_LAYERS, ids=str)
    def test_layer_matches_index_gather(self, rng, kind, c, h, w, k, s, p, out):
        """Each layer's outputs equal the index-gather computation they
        replace, bit for bit: the same GEMM calls on float64 data (sums
        that round), and the same ``max`` over windows full of +-0.0."""
        n = self.N
        if kind == "conv":
            layer = Conv2D("c", c, out, k, stride=s, pad=p)
            layer.weight[:] = rng.normal(0, 0.3, layer.weight.shape)
            layer.bias[:] = rng.normal(0, 0.1, out)
            x = _special_input(rng, (n, c, h, w))
            _, oh, ow = layer.out_shape((c, h, w))
            xp = pad_fmap(x, p)
            ki, ii, jj, _, _ = col_indices(c, h, w, k, k, s, p)
            wmat = layer.weight.reshape(out, -1)
            step = max(1, _TILE_COLS // ow) * ow
            cols = xp[:, ki, ii, jj]
            want = np.empty((n, out, oh * ow))
            with np.errstate(invalid="ignore", over="ignore"):
                for c0 in range(0, oh * ow, step):
                    want[:, :, c0 : c0 + step] = np.matmul(wmat, cols[:, :, c0 : c0 + step])
                want += layer.bias[:, None]
                assert _same_bits(layer.forward(x), want.reshape(n, out, oh, ow))
                spans = [(0, 1), (oh - 1, oh), (0, oh)]
                for b, (y, a0, a1) in enumerate(layer.forward_rows_batch(x, None, spans)):
                    assert _same_bits(y, want[b].reshape(out, oh, ow)[:, a0:a1])
        else:
            layer = MaxPool2D("p", k, stride=s, pad=p)
            values = [-0.0, 0.0, -1.0, 1.0, -np.inf, np.nan]
            x = rng.choice(values, p=[0.35, 0.35, 0.1, 0.1, 0.08, 0.02], size=(n, c, h, w))
            _, oh, ow = layer.out_shape((c, h, w))
            xp = pad_fmap(x, p, -np.inf).reshape(n * c, h + 2 * p, w + 2 * p)
            _, ii, jj, _, _ = col_indices(1, h + 2 * p, w + 2 * p, k, k, s, 0)
            cols = xp[:, ii, jj]  # (n*c, k*k, oh*ow)
            want = cols.transpose(1, 0, 2).reshape(k * k, -1).max(axis=0)
            assert _same_bits(layer.forward(x), want.reshape(n, c, oh, ow))
            for r0, r1 in [(0, oh), (oh - 1, oh), (oh // 2, oh)]:
                y, _, _ = layer.forward_rows(x, None, r0, r1)
                rows = cols[:, :, r0 * ow : r1 * ow].max(axis=1)
                assert _same_bits(y, rows.reshape(n, c, r1 - r0, ow))

    def test_view_is_read_only(self, rng):
        x = rng.normal(0, 1, (2, 3, 9, 9))
        win = row_windows(x, 3, 3, 2, 0, 4)
        assert win.shape == (2, 3, 3, 3, 4, 4)
        assert not win.flags.writeable
        assert np.shares_memory(win, x)

    def test_equals_sliding_window_view_for_any_strides(self, rng):
        x = rng.normal(0, 1, (3, 9, 8, 11))[::2, :, ::-1].transpose(0, 3, 2, 1)  # (2, 11, 8, 9)
        for kh, kw, s in [(1, 3, 2), (3, 2, 1), (2, 2, 3)]:
            oh = (8 - kh) // s + 1
            ref = sliding_window_view(x, (kh, kw), axis=(-2, -1))[..., ::s, ::s, :, :]
            for r0, r1 in [(0, 1), (0, oh), (oh - 1, oh)]:
                want = ref[:, :, r0:r1].transpose(0, 1, 4, 5, 2, 3)
                assert np.array_equal(row_windows(x, kh, kw, s, r0, r1), want)

    def test_rejects_rows_outside_the_input(self, rng):
        x = rng.normal(0, 1, (1, 2, 9, 9))  # 3x3 stride 2: output rows 0..3
        for r0, r1 in [(0, 5), (4, 5), (2, 2), (-1, 1)]:
            with pytest.raises(ValueError):
                row_windows(x, 3, 3, 2, r0, r1)
        with pytest.raises(ValueError):
            row_windows(x, 3, 10, 2, 0, 1)

    def test_pad_fmap_fill(self, rng):
        x = rng.normal(0, 1, (2, 3, 4, 5))
        assert pad_fmap(x, 0) is x
        xp = pad_fmap(x, 2, -np.inf)
        assert xp.shape == (2, 3, 8, 9)
        assert np.array_equal(xp[..., 2:-2, 2:-2], x)
        assert np.isneginf(xp[..., :2, :]).all() and np.isneginf(xp[..., :, -2:]).all()
        assert np.array_equal(pad_fmap(x, 1), np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))))
