"""Abstract interface for bit-exact numeric data types.

The paper (Table 3) evaluates six datapath number formats: three IEEE-754
floating-point widths (DOUBLE, FLOAT, FLOAT16) and three two's-complement
saturating fixed-point layouts (32b_rb26, 32b_rb10, 16b_rb10).  Fault
injection needs *bit-level* access to values: encode a value to its raw bit
pattern, flip an arbitrary bit, decode back, and know which semantic field
(sign / exponent / mantissa / integer / fraction) each bit position belongs
to.  This module defines the common interface; concrete codecs live in
:mod:`repro.dtypes.floating` and :mod:`repro.dtypes.fixedpoint`.

All codecs operate on ``float64`` NumPy arrays as the carrier
representation: ``quantize`` maps arbitrary reals onto the representable
set of the format, and arithmetic helpers (``multiply``, ``partials``)
implement the format's exact rounding/saturation semantics so that a
multiply-accumulate chain can be replayed bit-exactly around an injected
fault.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["BitField", "DataType"]

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


@dataclass(frozen=True)
class BitField:
    """A contiguous run of bits with a semantic role.

    Bit positions are numbered from 0 (least-significant) to ``width - 1``
    (most-significant), matching the x-axes of Figure 4 in the paper.

    Attributes:
        name: Semantic role: ``"sign"``, ``"exponent"``, ``"mantissa"``,
            ``"integer"`` or ``"fraction"``.
        lo: Lowest bit position in the field (inclusive).
        hi: Highest bit position in the field (inclusive).
    """

    name: str
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"BitField {self.name}: lo {self.lo} > hi {self.hi}")
        if self.lo < 0:
            raise ValueError(f"BitField {self.name}: negative lo {self.lo}")

    @property
    def width(self) -> int:
        """Number of bits in the field."""
        return self.hi - self.lo + 1

    def __contains__(self, bit: int) -> bool:
        return self.lo <= bit <= self.hi


class DataType(abc.ABC):
    """A bit-exact numeric format.

    Concrete subclasses must be stateless and hashable; a single shared
    instance per format is exposed through :mod:`repro.dtypes.registry`.
    """

    #: Short name as used in the paper, e.g. ``"FLOAT16"`` or ``"32b_rb10"``.
    name: str
    #: Total storage width in bits.
    width: int
    #: True for IEEE-754 formats, False for fixed point.
    is_float: bool
    #: Semantic bit fields, ordered from least-significant upward.
    fields: tuple[BitField, ...]

    # ------------------------------------------------------------------ #
    # Representation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Round ``x`` onto the representable set of the format.

        Args:
            x: Array (or scalar) of float64 values.

        Returns:
            float64 array of the same shape whose every element is exactly
            representable in this format (fixed point saturates to the
            dynamic range; floating point overflows to +/-inf per IEEE).
        """

    @abc.abstractmethod
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Return the raw bit pattern of ``quantize(x)`` as ``uint64``."""

    @abc.abstractmethod
    def decode(self, bits: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`: bit patterns -> float64 values."""

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def flip_bit(self, x: np.ndarray, bit: int | np.ndarray) -> np.ndarray:
        """Flip ``bit`` in the representation of each element of ``x``.

        Args:
            x: Values (quantized implicitly first).
            bit: Bit position(s) in ``[0, width)``; scalar or broadcastable
                array of positions.

        Returns:
            float64 array of the corrupted values.
        """
        bit_arr = np.asarray(bit, dtype=np.uint64)
        if np.any(bit_arr >= self.width):
            raise ValueError(f"bit position out of range for {self.name} (width {self.width})")
        bits = self.encode(np.asarray(x, dtype=np.float64))
        flipped = bits ^ (np.uint64(1) << bit_arr)
        return self.decode(flipped)

    def flip_bits(
        self, x: np.ndarray, bit: int | np.ndarray, burst: int | np.ndarray = 1
    ) -> np.ndarray:
        """Flip a burst of ``burst`` adjacent bits starting at ``bit``.

        Models multi-cell upsets (one particle strike corrupting
        neighbouring latch/SRAM cells); ``burst=1`` is the paper's
        single-event-upset model.  The burst is clipped at the word's
        most-significant bit.

        Args:
            x: Values (quantized implicitly first).
            bit: Lowest flipped bit position; scalar or broadcastable
                array of positions.
            burst: Number of adjacent bits to flip (>= 1); scalar or
                broadcastable array.
        """
        if isinstance(bit, np.ndarray) or isinstance(burst, np.ndarray):
            bits_at = np.asarray(bit, dtype=np.int64)
            widths = np.asarray(burst, dtype=np.int64)
            if widths.size and widths.min() < 1:
                raise ValueError(f"burst must be >= 1, got {burst}")
            if bits_at.size and (bits_at.min() < 0 or bits_at.max() >= self.width):
                raise ValueError(f"bit position out of range for {self.name} (width {self.width})")
            # 1 <= span <= 64, so neither shift reaches the word size.
            span = np.minimum(widths, self.width - bits_at).astype(np.uint64)
            mask = _ALL_ONES >> (np.uint64(64) - span) << bits_at.astype(np.uint64)
        else:
            # One burst: plain integer arithmetic, several times faster
            # than the array path on the one-trial hot paths.
            if burst < 1:
                raise ValueError(f"burst must be >= 1, got {burst}")
            if not 0 <= bit < self.width:
                raise ValueError(f"bit position out of range for {self.name} (width {self.width})")
            span = min(burst, self.width - bit)
            mask = np.uint64(((1 << span) - 1) << bit)
        bits = self.encode(np.asarray(x, dtype=np.float64))
        return self.decode(bits ^ mask)

    def field_of(self, bit: int) -> str:
        """Return the semantic field name that ``bit`` belongs to."""
        for f in self.fields:
            if bit in f:
                return f.name
        raise ValueError(f"bit {bit} outside {self.name} width {self.width}")

    # ------------------------------------------------------------------ #
    # Exact arithmetic (MAC semantics)
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def multiply(self, a: np.ndarray, b: np.ndarray, native: bool = False) -> np.ndarray:
        """Format-exact product: ``quantize``-rounded ``a * b``.

        ``native=True`` returns it in the format's own NumPy dtype where
        it has one (the IEEE formats), so a chain built from it is
        accumulated by :meth:`partials` without a float64 round trip.
        """

    @abc.abstractmethod
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Format-exact sum (saturating for fixed point)."""

    @abc.abstractmethod
    def partials(self, chains: np.ndarray, native: bool = False) -> np.ndarray:
        """Running sums of each chain along the last axis.

        Element ``i`` is the accumulator register after adding
        ``chains[..., i]``, starting from 0 and rounding (FP) or
        saturating (FxP) after every step: the MAC unit of Figure 1b in
        the paper, replayed bit-exactly.  A chain whose first element is
        its bias gives, at index ``k``, the partial sum entering MAC
        step ``k``, and its last element is the chain's result.
        ``native`` is as in :meth:`multiply`.
        """

    # ------------------------------------------------------------------ #
    # Range metadata
    # ------------------------------------------------------------------ #
    @property
    @abc.abstractmethod
    def max_value(self) -> float:
        """Largest representable finite value."""

    @property
    @abc.abstractmethod
    def min_value(self) -> float:
        """Smallest (most negative) representable finite value."""

    @property
    def dynamic_range(self) -> float:
        """``max_value - min_value``; the paper's 'dynamic value range'."""
        return self.max_value - self.min_value

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DataType {self.name} ({self.width}b)>"

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DataType) and other.name == self.name
