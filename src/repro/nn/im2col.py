"""im2col / col2im transforms for vectorized convolution and pooling.

Convolution on the accelerator is a sea of MACs; in the simulator we lower
it to a single BLAS matmul per layer via im2col (the standard
vectorize-the-loop idiom from the HPC guides).  col2im is the adjoint,
needed by the training engine's convolution backward pass.

The conv and max-pool window gathers, for inference and training, copy
:func:`row_windows`, a strided view of the padded input, into the column
layout their caller uses.  The index arrays of :func:`col_indices` serve
only col2im's scatter-add, whose accumulation order they fix.

All fmaps are NCHW float64 arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv_out_size",
    "im2col",
    "col2im",
    "col_indices",
    "pad_fmap",
    "patch_indices",
    "row_windows",
    "window_out_span",
]


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial extent of a conv/pool window sweep.

    Raises:
        ValueError: if the geometry yields a non-positive output size.
    """
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(f"invalid geometry: size={size} kernel={kernel} stride={stride} pad={pad}")
    return out


def window_out_span(
    r0: int, r1: int, kernel: int, stride: int, pad: int, out_size: int
) -> tuple[int, int]:
    """Output positions whose windows read any input position in ``[r0, r1)``.

    Returns a (possibly empty) half-open span clipped to ``[0, out_size)``;
    an empty span means no window covers the changed input rows (e.g. a
    strided sweep that skips them).
    """
    lo = -(-(r0 + pad - kernel + 1) // stride)  # ceil division
    hi = (r1 - 1 + pad) // stride
    lo = max(0, lo)
    hi = min(out_size - 1, hi)
    return (lo, hi + 1) if hi >= lo else (0, 0)


def _col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Index arrays mapping padded-input positions to column entries."""
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, c)
    i1 = stride * np.repeat(np.arange(oh), ow)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(ow), oh)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)  # (c*kh*kw, oh*ow)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j, oh, ow


@lru_cache(maxsize=512)
def col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Cached, read-only :func:`_col_indices` result.

    The index arrays depend only on the window geometry, never on the
    data, so :func:`col2im` builds them once per distinct ``(c, h, w,
    kh, kw, stride, pad)`` for a whole training run.
    """
    k, i, j, oh, ow = _col_indices(c, h, w, kh, kw, stride, pad)
    for arr in (k, i, j):
        arr.setflags(write=False)
    return k, i, j, oh, ow


def pad_fmap(x: np.ndarray, pad: int, fill: float = 0.0) -> np.ndarray:
    """``x`` with ``pad`` rows and columns of ``fill`` around its last two
    axes; ``x`` itself when ``pad`` is 0."""
    if not pad:
        return x
    *lead, h, w = x.shape
    xp = np.full((*lead, h + 2 * pad, w + 2 * pad), fill, dtype=x.dtype)
    xp[..., pad : pad + h, pad : pad + w] = x
    return xp


def row_windows(
    xp: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    r0: int,
    r1: int,
    trials: list[int] | None = None,
) -> np.ndarray:
    """The sliding windows of output rows ``[r0, r1)``, tap-major.

    Args:
        xp: Already padded input ``(n, ..., H, W)``.
        kh, kw, stride: Window geometry.
        r0, r1: Output row span (non-empty).
        trials: Indices into axis 0 to keep; only those samples' band of
            input rows is copied, never their whole fmaps.

    Returns:
        A read-only view of shape ``(n, ..., kh, kw, r1 - r0, ow)`` whose
        element ``[..., ky, kx, oy - r0, ox]`` is ``xp[..., oy * stride +
        ky, ox * stride + kx]``.  Reshaped to ``(n, -1, (r1 - r0) * ow)``
        it holds exactly the values of the :func:`col_indices` gather.

    Raises:
        ValueError: if ``xp`` holds no such windows.
    """
    band = xp[..., r0 * stride : (r1 - 1) * stride + kh, :]
    if trials is not None:
        band = band[trials]
    *lead, bh, w = band.shape
    if not 0 <= r0 < r1 or bh != (r1 - r0 - 1) * stride + kh or w < kw:
        raise ValueError(f"no {kh}x{kw} windows of output rows [{r0}, {r1}) in {xp.shape}")
    # sliding_window_view(band, (kh, kw), axis=(-2, -1))[..., ::stride,
    # ::stride, :, :], transposed, built in one call without its argument
    # checks, which cost more than the copy of a small window band.
    *lead_strides, sh, sw = band.strides
    return as_strided(
        band,
        (*lead, kh, kw, r1 - r0, (w - kw) // stride + 1),
        (*lead_strides, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, fill: float = 0.0
) -> np.ndarray:
    """Unfold sliding windows of ``x`` into columns.

    Args:
        x: Input of shape ``(n, c, h, w)``.
        kh, kw: Kernel extent.
        stride: Window stride (same in both dims).
        pad: Padding (same on all sides).
        fill: Padding value: 0 for convolution, ``-inf`` for max pooling.

    Returns:
        Array of shape ``(c * kh * kw, n * oh * ow)`` where column
        ``(img, oy, ox)`` holds the receptive field of that output pixel.
    """
    _, c, h, _ = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    win = row_windows(pad_fmap(x, pad, fill), kh, kw, stride, 0, oh)  # (n, c, kh, kw, oh, ow)
    return win.transpose(1, 2, 3, 0, 4, 5).reshape(c * kh * kw, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back onto the input.

    Args:
        cols: ``(c * kh * kw, n * oh * ow)`` gradient columns.
        x_shape: Shape of the original input ``(n, c, h, w)``.

    Returns:
        Gradient w.r.t. the input, shape ``x_shape``.
    """
    n, c, h, w = x_shape
    k, i, j, oh, ow = col_indices(c, h, w, kh, kw, stride, pad)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    cols_n = cols.reshape(c * kh * kw, n, oh * ow).transpose(1, 0, 2)
    np.add.at(xp, (slice(None), k, i, j), cols_n)
    if pad:
        return xp[:, :, pad:-pad, pad:-pad]
    return xp


def patch_indices(
    x_shape: tuple[int, int, int, int],
    out_pos: tuple[int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Input coordinates feeding one output pixel, plus a validity mask.

    Used by the fault injector to reconstruct the MAC operand chain of a
    single convolution output without materializing the full im2col
    matrix.

    Args:
        x_shape: ``(n, c, h, w)`` input shape.
        out_pos: ``(oy, ox)`` output pixel.
        kh, kw, stride, pad: Window geometry.

    Returns:
        ``(cc, yy, xx, valid)`` flat arrays of length ``c * kh * kw``:
        channel/row/col of each tap in the *unpadded* input and a bool
        mask that is False where the tap falls in the zero padding.
    """
    _, c, h, w = x_shape
    oy, ox = out_pos
    cc, ky, kx = _patch_grid(c, kh, kw)
    yy = oy * stride - pad + ky
    xx = ox * stride - pad + kx
    valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    return cc, yy, xx, valid


@lru_cache(maxsize=128)
def _patch_grid(c: int, kh: int, kw: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached output-pixel-relative tap grid for :func:`patch_indices`."""
    ky, kx = np.meshgrid(np.arange(kh), np.arange(kw), indexing="ij")
    ky = np.tile(ky.ravel(), c)
    kx = np.tile(kx.ravel(), c)
    cc = np.repeat(np.arange(c), kh * kw)
    for arr in (cc, ky, kx):
        arr.setflags(write=False)
    return cc, ky, kx
