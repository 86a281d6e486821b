"""Fully-connected layer (the paper's FC)."""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.layers.base import MacChain, MacLayer, Shape

__all__ = ["Dense"]


class Dense(MacLayer):
    """Affine layer ``y = W x + b`` over flattened features.

    Args:
        name: Layer name (e.g. ``"fc6"``).
        in_features: Input feature count.
        out_features: Output feature count.
    """

    kind = "fc"

    def __init__(self, name: str, in_features: int, out_features: int):
        super().__init__(name)
        if min(in_features, out_features) < 1:
            raise ValueError(f"{name}: invalid dense geometry")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = np.zeros((out_features, in_features), dtype=np.float64)
        self.bias = np.zeros(out_features, dtype=np.float64)

    # -- geometry --------------------------------------------------------- #
    def out_shape(self, in_shape: Shape) -> Shape:
        flat = int(np.prod(in_shape))
        if flat != self.in_features:
            raise ValueError(f"{self.name}: expected {self.in_features} features, got {flat}")
        return (self.out_features,)

    def output_elements(self, in_shape: Shape) -> int:
        return self.out_features

    def chain_length(self, in_shape: Shape) -> int:
        return self.in_features

    def unravel_output(self, flat_index: int, in_shape: Shape) -> tuple[int, ...]:
        return (int(flat_index),)

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
        flat = x.reshape(x.shape[0], -1)
        with np.errstate(invalid="ignore", over="ignore"):
            if flat.shape[0] == 1:
                y = flat @ weight.T + bias
            else:
                # Per-sample GEMV slices: BLAS accumulation order depends
                # on the matrix extents, so a fused (n, in) @ (in, out)
                # product would give each sample different bits than the
                # (1, in) @ (in, out) call of a single-trial forward.  The
                # broadcast matmul runs one identically-shaped call per
                # sample, keeping batched propagation bit-exact.
                y = np.matmul(flat[:, None, :], weight.T)[:, 0, :] + bias
        return dtype.quantize(y) if dtype is not None else y

    # -- training ------------------------------------------------------------- #
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        flat = x.reshape(x.shape[0], -1)
        return flat @ self.weight.T + self.bias, (x.shape, flat)

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x_shape, flat = cache
        dw = dy.T @ flat
        db = dy.sum(axis=0)
        dx = (dy @ self.weight).reshape(x_shape)
        return dx, {"weight": dw, "bias": db}

    # -- fault-injection support ------------------------------------------------ #
    def mac_operands(
        self, x: np.ndarray, out_index: tuple[int, ...], dtype: DataType | None
    ) -> MacChain:
        (j,) = out_index
        w, b = self.quantized_weights(dtype)
        return MacChain(weights=w[j].copy(), inputs=x.ravel().copy(), bias=float(b[j]))
