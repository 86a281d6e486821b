"""Layer abstraction for the inference/training engine.

A network is a sequential stack of layers operating on NCHW float64
arrays.  Two execution modes exist:

- **Typed inference** (``forward``): the mode under fault injection.  The
  input is assumed already representable in the target
  :class:`~repro.dtypes.base.DataType`; the layer computes vectorized in
  float64 and quantizes its output, modelling operation-granularity
  rounding exactly as the paper's modified Tiny-CNN simulator does.
  Per-MAC-step rounding/saturation is replayed bit-exactly by the fault
  injector for the (single) corrupted accumulation chain.
- **Training** (``forward_train``/``backward``): pure float64 with
  gradient support, used to genuinely train ConvNet on the synthetic
  CIFAR-like task.

MAC layers (convolution, fully-connected) additionally expose the operand
chain of any output element (:meth:`MacLayer.mac_operands`, or many at
once with :meth:`MacLayer.mac_operand_rows`) so the injector can corrupt
one latch read of one MAC.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.dtypes.base import DataType

__all__ = ["Box", "Layer", "MacLayer", "MacChain", "Shape"]

#: Fmap shape without the batch dimension: ``(c, h, w)`` or ``(features,)``.
Shape = tuple[int, ...]

#: Half-open rows and columns ``(r0, r1, c0, c1)`` of a ``(c, h, w)``
#: fmap, across every channel.
Box = tuple[int, int, int, int]


@dataclass
class MacChain:
    """The operand chain of one output element of a MAC layer.

    The accumulator starts at ``bias`` and adds ``weights[i] * inputs[i]``
    for each step ``i`` — the exact sequence of values that flows through
    the PE's operand, product and partial-sum latches (Figure 1b).

    Attributes:
        weights: Quantized weight operands, one per MAC step.
        inputs: Quantized input activations, one per MAC step.
        bias: Quantized accumulator initial value.
    """

    weights: np.ndarray
    inputs: np.ndarray
    bias: float

    @property
    def length(self) -> int:
        """Number of MAC steps in the chain."""
        return int(self.weights.shape[0])


class Layer(abc.ABC):
    """Base class for all layers."""

    #: Layer-kind tag: "conv", "relu", "pool", "lrn", "fc", "softmax", ...
    kind: str = "layer"

    def __init__(self, name: str):
        self.name = name
        #: Paper-level block index (CONV/FC position), assigned by Network.
        self.block: int | None = None

    # -- geometry --------------------------------------------------------- #
    @abc.abstractmethod
    def out_shape(self, in_shape: Shape) -> Shape:
        """Output fmap shape for a given input fmap shape (no batch dim)."""

    def mac_count(self, in_shape: Shape) -> int:
        """Number of multiply-accumulate operations per inference."""
        return 0

    def out_box(self, in_shape: Shape, box: Box) -> Box | None:
        """Output positions affected by a change to the input inside ``box``.

        Used by the batched propagation engine to recompute only the
        region a corruption can reach.  ``None`` (the default) means the
        whole output may change (fully-connected layers, flatten, ...);
        spatially local layers return the covering output box, empty on
        an axis when no output reads the changed positions.
        """
        return None

    # -- typed inference --------------------------------------------------- #
    @abc.abstractmethod
    def forward(self, x: np.ndarray, dtype: DataType | None = None) -> np.ndarray:
        """Compute the layer output.

        Args:
            x: Batched input ``(n, *in_shape)``, already quantized when
                ``dtype`` is given.
            dtype: Target numeric format; ``None`` means exact float64.

        Returns:
            Batched output, quantized to ``dtype`` when given.
        """

    # -- training ----------------------------------------------------------- #
    def forward_train(self, x: np.ndarray) -> tuple[np.ndarray, object]:
        """Float64 forward returning ``(output, cache)`` for backward."""
        raise NotImplementedError(f"{self.kind} layer does not support training")

    def backward(self, cache: object, dy: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Backward pass: returns ``(dx, param_gradients)``."""
        raise NotImplementedError(f"{self.kind} layer does not support training")

    # -- parameters ----------------------------------------------------------- #
    def params(self) -> dict[str, np.ndarray]:
        """Mutable mapping of parameter name to array (empty if none)."""
        return {}

    def param_count(self) -> int:
        """Total number of scalar parameters."""
        return sum(int(p.size) for p in self.params().values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class MacLayer(Layer):
    """A layer whose outputs are dot products (convolution / FC).

    These are the only layers with datapath fault sites: every output
    element is produced by a MAC chain executed on a PE.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._qweights: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    # -- weights ----------------------------------------------------------- #
    @abc.abstractmethod
    def weight_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(weight, bias)`` float64 arrays."""

    def quantized_weights(self, dtype: DataType | None) -> tuple[np.ndarray, np.ndarray]:
        """``(weight, bias)`` quantized to ``dtype`` (cached per format).

        The cached arrays are read-only: every trial, and every pool
        worker that inherits the network, reads the same ones, so a
        corruption build copies before it writes.
        """
        w, b = self.weight_arrays()
        if dtype is None:
            return w, b
        cached = self._qweights.get(dtype.name)
        if cached is None:
            cached = (dtype.quantize(w), dtype.quantize(b))
            for arr in cached:
                arr.setflags(write=False)
            self._qweights[dtype.name] = cached
        return cached

    def invalidate_weight_cache(self) -> None:
        """Drop quantized-weight caches (call after mutating parameters)."""
        self._qweights.clear()

    # -- fault-injection support --------------------------------------------- #
    @abc.abstractmethod
    def output_elements(self, in_shape: Shape) -> int:
        """Number of output elements (= number of MAC chains)."""

    @abc.abstractmethod
    def chain_length(self, in_shape: Shape) -> int:
        """MAC steps per output element."""

    @abc.abstractmethod
    def mac_operand_rows(
        self, x: np.ndarray, out_indices: np.ndarray, dtype: DataType | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Operand chains of many output elements of one input, as rows.

        Args:
            x: Unbatched input (shape ``in_shape``).
            out_indices: ``(n, ndim)`` output coordinates.
            dtype: Format of the quantized weights.

        Returns:
            ``(weights, inputs, bias)``: ``(n, length)`` weight and input
            operands, row ``i`` holding output ``out_indices[i]``'s chain
            in MAC step order, and its ``(n,)`` bias.  ``inputs`` may be
            a read-only view of ``x``.
        """

    @abc.abstractmethod
    def mac_operands(
        self, x: np.ndarray, out_index: tuple[int, ...], dtype: DataType | None
    ) -> MacChain:
        """Operand chain of output element ``out_index`` for input ``x``:
        row 0 of :meth:`mac_operand_rows`, in arrays the chain owns.

        ``x`` is unbatched (shape ``in_shape``).
        """

    @abc.abstractmethod
    def forward_with_weights(
        self,
        x: np.ndarray,
        dtype: DataType | None,
        weight: np.ndarray,
        bias: np.ndarray,
    ) -> np.ndarray:
        """Forward pass with substituted parameters (already quantized).

        Used by the injector to evaluate a layer whose resident weights
        were corrupted in the Filter SRAM, without mutating the network.
        """

    def mac_count(self, in_shape: Shape) -> int:
        return self.output_elements(in_shape) * self.chain_length(in_shape)
