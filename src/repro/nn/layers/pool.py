"""Pooling layers: max pooling (the paper's POOL) and global average
pooling (NiN's classifier head).

POOL masks errors by discarding every non-maximum activation in each
window (paper section 5.1.4).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import (
    col2im,
    conv_out_size,
    im2col,
    pad_fmap,
    row_windows,
    window_out_span,
)
from repro.nn.layers.base import Layer, Shape

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
        self, x: np.ndarray, dtype: DataType | None, r0: int, r1: int
    ) -> tuple[np.ndarray, int, int]:
        """Compute output rows ``[r0, r1)`` only.

        Window maxima are per-column selections, so any subset of output
        positions reproduces the full :meth:`forward` bit-for-bit — no
        tile alignment needed.
        """
        n, c = x.shape[:2]
        xp = pad_fmap(x, self.pad, -np.inf)
        win = row_windows(xp, self.kernel, self.kernel, self.stride, r0, r1)
        # (n*c, kh*kw, ncols) with n*c innermost in memory, the layout of
        # the col_indices gather: max keeps its reduction layout, and its
        # inner loops span all n*c fmaps (6x faster than C order for
        # hundreds of fmaps).
        taps = np.ascontiguousarray(win.transpose(2, 3, 4, 5, 0, 1))
        cols = taps.reshape(self.kernel**2, -1, n * c).transpose(2, 0, 1)
        y = cols.max(axis=1).reshape(n, c, r1 - r0, win.shape[-1])
        return y, r0, r1

    def out_row_span(self, in_shape: Shape, span: tuple[int, int]) -> tuple[int, int]:
        _, oh, _ = self.out_shape(in_shape)
        return window_out_span(span[0], span[1], self.kernel, self.stride, self.pad, oh)

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
