"""Pooling layers: max pooling (the paper's POOL) and global average
pooling (NiN's classifier head).

POOL masks errors by discarding every non-maximum activation in each
window (paper section 5.1.4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import (
    col2im,
    conv_out_size,
    im2col,
    paste_window,
    row_windows,
    window_out_box,
)
from repro.nn.layers.base import Box, Layer, Shape

__all__ = ["MaxPool2D", "GlobalAvgPool"]


class MaxPool2D(Layer):
    """Max pooling over square windows.

    Args:
        name: Layer name.
        kernel: Window extent.
        stride: Window stride (defaults to ``kernel``).
        pad: Padding (rarely used; AlexNet-style pooling uses 0).  Padded
            positions hold ``-inf``, so they never win a window's max.
    """

    kind = "pool"

    def __init__(self, name: str, kernel: int, stride: int | None = None, pad: int = 0):
        super().__init__(name)
        if kernel < 1 or pad < 0:
            raise ValueError(f"{name}: invalid pool geometry")
        self.kernel = kernel
        self.stride = stride if stride is not None else kernel
        self.pad = pad

    def out_shape(self, in_shape: Shape) -> Shape:
        c, h, w = in_shape
        oh = conv_out_size(h, self.kernel, self.stride, self.pad)
        ow = conv_out_size(w, self.kernel, self.stride, self.pad)
        return (c, oh, ow)

    def _window_cols(self, x: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """``(k*k, n*c*oh*ow)`` window columns, ``-inf``-padded."""
        n, c, h, w = x.shape
        _, oh, ow = self.out_shape((c, h, w))
        flat = x.reshape(n * c, 1, h, w)
        cols = im2col(flat, self.kernel, self.kernel, self.stride, self.pad, fill=-np.inf)
        return cols, (n, c, oh, ow)

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        cols, shape = self._window_cols(x)
        return cols.max(axis=0).reshape(shape)  # selection only: values stay representable

    def forward_rows(
        self,
        xs: Sequence[np.ndarray],
        dtype: DataType | None,
        boxes: Sequence[Box],
        patches: Sequence[np.ndarray] | None = None,
        in_boxes: Sequence[Box] | None = None,
    ) -> list[np.ndarray]:
        """Output box ``boxes[b]`` of each input, in one ``max`` call.

        Input ``b`` is ``xs[b]`` with ``patches[b]`` pasted over input box
        ``in_boxes[b]`` (no patch when ``patches`` is None).  Window
        maxima are per-column selections, so any subset of output
        positions reproduces the full :meth:`forward` bit-for-bit — no
        tile alignment needed.  Inputs whose boxes share a shape share
        one stack of the input regions their windows read, and every
        box's windows are copied into one ``(k*k, columns)`` matrix
        reduced over its taps in order, as :meth:`forward`'s is, so the
        call computes exactly the boxes' elements; a region position outside the input, at a true fmap
        edge, holds ``-inf`` as :meth:`forward`'s padding does.

        Args:
            xs: Unbatched inputs ``(c, h, w)``, or one stack of them.
            boxes: Per-input output boxes (non-empty).

        Returns:
            One ``(c, r1 - r0, c1 - c0)`` array per input.
        """
        k, s, p = self.kernel, self.stride, self.pad
        c, h, w = xs[0].shape
        if patches is None:
            patches = in_boxes = [None] * len(boxes)
        shapes: dict[tuple[int, int], list[int]] = {}
        for b, (r0, r1, c0, c1) in enumerate(boxes):
            shapes.setdefault((r1 - r0, c1 - c0), []).append(b)
        taps = np.empty((k, k, c * sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in boxes)))
        spans = []  # (members, first column, rows, cols) of each shape
        off = 0
        for (rows, cols), members in shapes.items():
            m = len(members)
            corners = [(boxes[b][0] * s - p, boxes[b][2] * s - p) for b in members]
            region = (m, c, (rows - 1) * s + k, (cols - 1) * s + k)
            inside = all(
                y0 >= 0 and x0 >= 0 and y0 + region[2] <= h and x0 + region[3] <= w
                for y0, x0 in corners
            )
            band = np.empty(region) if inside else np.full(region, -np.inf)
            for pos, (b, (y0, x0)) in enumerate(zip(members, corners)):
                paste_window(band[pos], xs[b], patches[b], in_boxes[b], y0, x0)
            win = row_windows(band, k, k, s, 0, rows)  # (m, c, k, k, rows, cols)
            # Columns run (rows, cols, m, c): the copy's inner loop spans
            # the channels, not a box's few columns.
            n = m * c * rows * cols
            taps[:, :, off : off + n].reshape(k, k, rows, cols, m, c)[...] = win.transpose(
                2, 3, 4, 5, 0, 1
            )
            spans.append((members, off, rows, cols))
            off += n
        y = taps.reshape(k * k, -1).max(axis=0)
        out: list[np.ndarray | None] = [None] * len(boxes)
        for members, off, rows, cols in spans:
            n = len(members) * c * rows * cols
            ys = y[off : off + n].reshape(rows, cols, len(members), c).transpose(2, 3, 0, 1)
            for b, y_b in zip(members, np.ascontiguousarray(ys)):
                out[b] = y_b
        return out

    def out_box(self, in_shape: Shape, box: Box) -> Box:
        _, oh, ow = self.out_shape(in_shape)
        return window_out_box(box, self.kernel, self.stride, self.pad, oh, ow)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        cols, (n, c, oh, ow) = self._window_cols(x)
        arg = cols.argmax(axis=0)
        y = cols[arg, np.arange(cols.shape[1])].reshape(n, c, oh, ow)
        return y, (x.shape, arg, cols.shape)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x_shape, arg, cols_shape = cache
        n, c, h, w = x_shape
        dcols = np.zeros(cols_shape, dtype=np.float64)
        dcols[arg, np.arange(cols_shape[1])] = dy.ravel()
        dx = col2im(dcols, (n * c, 1, h, w), self.kernel, self.kernel, self.stride, self.pad)
        return dx.reshape(x_shape), {}


class GlobalAvgPool(Layer):
    """Average each channel's fmap down to a single value (NiN head)."""

    kind = "gap"

    def out_shape(self, in_shape: Shape) -> Shape:
        c, _, _ = in_shape
        return (c,)

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        y = x.mean(axis=(2, 3))
        return dtype.quantize(y) if dtype is not None else y

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        n, c, h, w = cache
        dx = np.broadcast_to(dy[:, :, None, None] / (h * w), (n, c, h, w)).copy()
        return dx, {}
