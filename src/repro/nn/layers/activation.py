"""Activation and output layers: ReLU, Softmax, Flatten.

ReLU is the paper's universal activation function; softmax produces the
confidence scores used by the SDC-10%/-20% outcome classes (NiN omits it,
which is why those SDC classes are undefined for NiN).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.layers.base import Box, Layer, Shape

__all__ = ["ReLU", "Softmax", "Flatten"]


class ReLU(Layer):
    """Rectified linear unit, ``y = max(x, 0)``.

    ReLU is a strong error masker: any fault that drives an activation
    negative is zeroed (paper section 5.1.4).
    """

    kind = "relu"

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape

    def out_box(self, in_shape: Shape, box: Box) -> Box:
        return box  # elementwise

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        # NaNs (possible after FP bit flips) pass through unchanged: a
        # hardware max(x, 0) comparator forwards the corrupted pattern.
        y = np.where(np.isnan(x), x, np.maximum(x, 0.0))
        return y  # exact for every format: 0 and positives are preserved

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        y = np.maximum(x, 0.0)
        return y, (x > 0)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return dy * cache, {}


class Softmax(Layer):
    """Numerically-stable softmax over the feature axis.

    Always evaluated in float64: in deployed systems the final
    normalization runs on the host CPU, outside the accelerator's fault
    domain (paper section 4.3 excludes host faults).
    """

    kind = "softmax"

    def out_shape(self, in_shape: Shape) -> Shape:
        return in_shape

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        x2 = x.reshape(x.shape[0], -1)
        with np.errstate(invalid="ignore", over="ignore"):
            # Plain max: a NaN logit poisons the whole distribution, just
            # as exp(NaN) would in a real softmax implementation.
            shifted = x2 - np.max(x2, axis=1, keepdims=True)
            e = np.exp(shifted)
            denom = e.sum(axis=1, keepdims=True)
            out = e / denom
        return out.reshape(x.shape)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        y = self.forward(x)
        return y, y

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        y = cache
        dot = (dy * y).sum(axis=1, keepdims=True)
        return y * (dy - dot), {}


class Flatten(Layer):
    """Reshape a ``(c, h, w)`` fmap to a flat feature vector."""

    kind = "flatten"

    def out_shape(self, in_shape: Shape) -> Shape:
        return (int(np.prod(in_shape)),)

    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return dy.reshape(cache), {}
