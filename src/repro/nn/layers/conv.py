"""2-D convolution layer (the paper's CONV), lowered to im2col + GEMM.

The inference GEMM is computed in a *fixed partition* of column tiles
(whole output rows, grouped to at least ``_TILE_COLS`` columns), one
GEMM per sample and tile.  BLAS picks different accumulation orders for
different matrix extents, so a fixed partition is what makes results
invariant to how much of the output is computed at once: a single
sample, a stack of B corrupted samples (``Network.forward_from_batch``),
or a recomputation of only the output box a fault can reach
(``forward_rows_batch``) all issue GEMM calls of identical shapes over
identical data and therefore produce bit-identical values.  Both halves
are load-bearing on real DOUBLE and FLOAT data: one ``(K, Bt * tc)``
GEMM over a tile's whole stack, or column extents below a tile, move
bits (``TestRoundingFormatParity`` catches the former).  A box
recomputation still runs whole tiles; the tile columns outside the box
read only golden input, so they hold golden bits and are dropped.

The GEMM operands are copied from a strided window view of the padded
input (:func:`~repro.nn.im2col.row_windows`) into C-contiguous
``(K, columns)`` matrices holding the values of the ``col_indices``
index gather they replace.  That gather laid a stack out sample-innermost,
which BLAS cannot read, so numpy's matmul copied each sample's matrix
to a contiguous buffer first: every GEMM call still receives the same
contiguous matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate
from math import prod

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import (
    col2im,
    conv_out_size,
    im2col,
    pad_fmap,
    paste_window,
    patch_indices,
    row_windows,
    window_out_box,
)
from repro.nn.layers.base import Box, MacChain, MacLayer, Shape

__all__ = ["Conv2D"]

#: Minimum output columns per GEMM tile; tiles are whole output rows,
#: grouped from row 0, so any row-aligned recomputation hits the same
#: tile boundaries as the full sweep.
_TILE_COLS = 64


class Conv2D(MacLayer):
    """Multi-channel 2-D convolution with zero padding.

    Args:
        name: Layer name (e.g. ``"conv1"``).
        in_channels: Input fmap channels.
        out_channels: Number of filters / output fmaps.
        kernel: Square kernel extent.
        stride: Window stride.
        pad: Zero padding on each side.
    """

    kind = "conv"

    def __init__(
        self,
        name: str,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
    ):
        super().__init__(name)
        if min(in_channels, out_channels, kernel, stride) < 1 or pad < 0:
            raise ValueError(f"{name}: invalid conv geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = np.zeros((out_channels, in_channels, kernel, kernel), dtype=np.float64)
        self.bias = np.zeros(out_channels, dtype=np.float64)

    # -- geometry --------------------------------------------------------- #
    def out_shape(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(f"{self.name}: expected {self.in_channels} channels, got {c}")
        oh = conv_out_size(h, self.kernel, self.stride, self.pad)
        ow = conv_out_size(w, self.kernel, self.stride, self.pad)
        return (self.out_channels, oh, ow)

    def output_elements(self, in_shape: Shape) -> int:
        c, oh, ow = self.out_shape(in_shape)
        return c * oh * ow

    def chain_length(self, in_shape: Shape) -> int:
        return self.in_channels * self.kernel * self.kernel

    # -- parameters -------------------------------------------------------- #
    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.weight, self.bias

    # -- inference ----------------------------------------------------------- #
    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        w, b = self.quantized_weights(dtype)
        return self.forward_with_weights(x, dtype, w, b)

    def forward_with_weights(
        self,
        x: np.ndarray,
        dtype: DataType | None,
        weight: np.ndarray,
        bias: np.ndarray,
    ) -> np.ndarray:
        y = self._gemm(x, weight, bias)
        return dtype.quantize(y) if dtype is not None else y

    def _rows_per_tile(self, ow: int) -> int:
        return max(1, _TILE_COLS // ow)

    def _gemm(self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Float64 GEMM of every output row.

        Per-sample GEMM calls over the fixed tile partition: batch
        composition and row-aligned partial recomputation cannot change
        a single output bit (see the module docstring).
        """
        n = x.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        win = row_windows(pad_fmap(x, self.pad), self.kernel, self.kernel, self.stride, 0, oh)
        ncols = oh * ow
        cols = np.ascontiguousarray(win.reshape(n, -1, ncols))  # (n, c*kh*kw, ncols)
        wmat = weight.reshape(self.out_channels, -1)
        y = np.empty((n, self.out_channels, ncols), dtype=np.float64)
        step = self._rows_per_tile(ow) * ow
        with np.errstate(invalid="ignore", over="ignore"):
            # inf/NaN operands are legal here: corrupted activations
            # propagate through the GEMM like they would through the MACs.
            for s in range(0, ncols, step):
                e = min(s + step, ncols)
                if n == 1:
                    y[0, :, s:e] = wmat @ cols[0, :, s:e]
                else:
                    y[:, :, s:e] = np.matmul(wmat, cols[:, :, s:e])
            y += bias[:, None]
        return y.reshape(n, self.out_channels, oh, ow)

    def forward_rows_batch(
        self,
        xs: Sequence[np.ndarray],
        dtype: DataType | None,
        boxes: Sequence[Box],
        patches: Sequence[np.ndarray] | None = None,
        in_boxes: Sequence[Box] | None = None,
    ) -> list[np.ndarray]:
        """Per-sample output-box recomputation, batched tile by tile.

        Sample ``b``'s input is ``xs[b]`` with ``patches[b]`` pasted over
        input box ``in_boxes[b]`` (no patch when ``patches`` is None).
        For each sample this computes output box ``boxes[b]`` of
        ``forward`` of that input with the same bits.  The work is
        grouped by canonical tile: every tile a box's rows touch runs at
        its fixed ``(K, tile_cols)`` shape, over a stack holding only the
        samples that need it.  Each sample's band of padded input rows is
        built from ``xs[b]`` and its patch, never a whole fmap; the tile
        columns outside the box are golden bits and are neither
        quantized nor returned.

        Args:
            xs: Unbatched inputs ``(c, h, w)``, or one stack of them.
            boxes: Per-sample output boxes (non-empty).

        Returns:
            One ``(out_channels, r1 - r0, c1 - c0)`` array per sample.
        """
        c, h, w = xs[0].shape
        _, oh, ow = self.out_shape((c, h, w))
        k, s, p = self.kernel, self.stride, self.pad
        rpt = self._rows_per_tile(ow)
        weight, bias = self.quantized_weights(dtype)
        wmat = weight.reshape(self.out_channels, -1)
        f = self.out_channels
        if patches is None:
            patches = in_boxes = [None] * len(boxes)
        shapes = [(f, r1 - r0, c1 - c0) for r0, r1, c0, c1 in boxes]
        offs = [0, *accumulate(map(prod, shapes))]
        flat = np.empty(offs[-1])
        outs = [flat[offs[b] : offs[b + 1]].reshape(sh) for b, sh in enumerate(shapes)]
        need: dict[int, list[int]] = {}
        for b, (r0, r1, _, _) in enumerate(boxes):
            for t in range(r0 // rpt, -(-r1 // rpt)):
                need.setdefault(t, []).append(b)
        with np.errstate(invalid="ignore", over="ignore"):
            for t, sel in need.items():
                t0, t1 = t * rpt, min((t + 1) * rpt, oh)
                # Padded input rows [t0 * s, (t1 - 1) * s + k) at full
                # padded width; only the padding needs the zero fill.
                shape = (len(sel), c, (t1 - t0 - 1) * s + k, w + 2 * p)
                band = np.zeros(shape) if p else np.empty(shape)
                for pos, b in enumerate(sel):
                    paste_window(band[pos], xs[b], patches[b], in_boxes[b], t0 * s - p, -p)
                win = row_windows(band, k, k, s, 0, t1 - t0)
                cols = np.ascontiguousarray(win.reshape(len(sel), -1, (t1 - t0) * ow))
                yt = np.matmul(wmat, cols)  # per-slice canonical GEMMs
                yt += bias[:, None]
                yt = yt.reshape(len(sel), f, t1 - t0, ow)
                for pos, b in enumerate(sel):
                    r0, r1, c0, c1 = boxes[b]
                    lo, hi = max(r0, t0), min(r1, t1)
                    outs[b][:, lo - r0 : hi - r0] = yt[pos, :, lo - t0 : hi - t0, c0:c1]
        if dtype is None:
            return outs
        q = dtype.quantize(flat)  # elementwise: one call for every sample
        return [q[offs[b] : offs[b + 1]].reshape(sh) for b, sh in enumerate(shapes)]

    def out_box(self, in_shape: Shape, box: Box) -> Box:
        _, oh, ow = self.out_shape(in_shape)
        return window_out_box(box, self.kernel, self.stride, self.pad, oh, ow)

    # -- training ------------------------------------------------------------- #
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        cols = im2col(x, self.kernel, self.kernel, self.stride, self.pad)
        n = x.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        wmat = self.weight.reshape(self.out_channels, -1)
        y = (wmat @ cols + self.bias[:, None]).reshape(self.out_channels, n, oh * ow)
        y = y.transpose(1, 0, 2).reshape(n, self.out_channels, oh, ow)
        return y, (x.shape, cols)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x_shape, cols = cache
        n, f, oh, ow = dy.shape
        dy_mat = dy.transpose(1, 0, 2, 3).reshape(f, n * oh * ow)
        dw = (dy_mat @ cols.T).reshape(self.weight.shape)
        db = dy_mat.sum(axis=1)
        wmat = self.weight.reshape(self.out_channels, -1)
        dcols = wmat.T @ dy_mat
        dx = col2im(dcols, x_shape, self.kernel, self.kernel, self.stride, self.pad)
        return dx, {"weight": dw, "bias": db}

    # -- fault-injection support ------------------------------------------------ #
    def mac_operands(
        self, x: np.ndarray, out_index: tuple[int, ...], dtype: DataType | None
    ) -> MacChain:
        w, a, b = self.mac_operand_rows(x, np.array([out_index]), dtype)
        return MacChain(weights=w[0], inputs=a[0], bias=float(b[0]))

    def mac_operand_rows(
        self, x: np.ndarray, out_indices: np.ndarray, dtype: DataType | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        f, oy, ox = np.asarray(out_indices).T
        w, b = self.quantized_weights(dtype)
        c, h, wd = x.shape
        cc, yy, xx, valid = patch_indices(
            (1, c, h, wd), (oy[:, None], ox[:, None]), self.kernel, self.kernel, self.stride,
            self.pad,
        )
        # A tap in the zero padding reads 0.0; its index only has to
        # stay in bounds.
        flat = np.where(valid, (cc * h + yy) * wd + xx, 0)
        taps = np.where(valid, x.reshape(-1)[flat], 0.0)
        return w.reshape(self.out_channels, -1)[f], taps, b[f]
