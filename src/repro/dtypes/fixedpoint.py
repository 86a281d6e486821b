"""Two's-complement saturating fixed-point codecs (Table 3).

The paper evaluates three layouts, written ``<width>b_rb<frac>``: a sign
bit, ``width - 1 - frac`` integer bits and ``frac`` fraction bits, e.g.
``16b_rb10`` = 1 sign + 5 integer + 10 fraction bits.  Arithmetic uses
round-to-nearest-even quantization and saturates any value beyond the
dynamic range to the nearest rail (paper section 4.5).
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import BitField, DataType

__all__ = ["FixedPointType", "FXP_16B_RB10", "FXP_32B_RB10", "FXP_32B_RB26"]


class FixedPointType(DataType):
    """A two's-complement fixed-point format with saturation.

    Args:
        width: Total bit width (including sign).
        frac_bits: Number of fraction (radix) bits; the paper's ``rb``.
        name: Optional explicit name; defaults to ``"<w>b_rb<f>"``.
    """

    is_float = False

    def __init__(self, width: int, frac_bits: int, name: str | None = None):
        if not 2 <= width <= 63:
            raise ValueError(f"unsupported fixed-point width {width}")
        if not 0 <= frac_bits <= width - 1:
            raise ValueError(f"frac_bits {frac_bits} out of range for width {width}")
        self.width = width
        self.frac_bits = frac_bits
        self.int_bits = width - 1 - frac_bits
        self.name = name or f"{width}b_rb{frac_bits}"
        fields: list[BitField] = []
        if frac_bits:
            fields.append(BitField("fraction", 0, frac_bits - 1))
        if self.int_bits:
            fields.append(BitField("integer", frac_bits, width - 2))
        fields.append(BitField("sign", width - 1, width - 1))
        self.fields = tuple(fields)
        self._scale = float(2**frac_bits)
        self._imax = 2 ** (width - 1) - 1
        self._imin = -(2 ** (width - 1))
        self._mask = np.uint64((1 << width) - 1)

    # -- integer representation helpers ---------------------------------- #
    def to_int(self, x: np.ndarray) -> np.ndarray:
        """Quantize to the scaled-integer representation (int64)."""
        x = np.asarray(x, dtype=np.float64)
        scaled = np.rint(x * self._scale)
        # NaN (possible after a float-side computation) saturates to 0,
        # matching a hardware fixed-point converter's flush behaviour.
        scaled = np.nan_to_num(scaled, nan=0.0, posinf=self._imax, neginf=self._imin)
        return np.clip(scaled, self._imin, self._imax).astype(np.int64)

    def from_int(self, ints: np.ndarray) -> np.ndarray:
        """Map scaled integers back to real values."""
        return np.asarray(ints, dtype=np.float64) / self._scale

    # -- DataType interface ------------------------------------------------ #
    def quantize(self, x: np.ndarray) -> np.ndarray:
        return self.from_int(self.to_int(x))

    def encode(self, x: np.ndarray) -> np.ndarray:
        ints = self.to_int(x)
        return ints.astype(np.uint64) & self._mask

    def decode(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint64) & self._mask
        ints = bits.astype(np.int64)
        sign_bit = np.int64(1) << np.int64(self.width - 1)
        ints = np.where(ints & sign_bit, ints - np.int64(1 << self.width), ints)
        return self.from_int(ints)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # A w x w multiplier produces a 2w-bit product with 2*frac fraction
        # bits; the product latch rounds it back to the storage format.
        prod = np.asarray(a, dtype=np.float64) * np.asarray(b, dtype=np.float64)
        return self.quantize(prod)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.quantize(np.asarray(a, dtype=np.float64) + np.asarray(b, dtype=np.float64))

    def _saturating_cumsum(self, ints: np.ndarray) -> np.ndarray:
        """Running sums of scaled integers along the last axis, saturated
        after every step like the accumulator register:
        ``acc_i = min(max(acc_{i-1} + v_i, imin), imax)`` from ``acc = 0``.

        Plain ``cumsum`` is exact up to the first column ``p`` where any
        row's running sum leaves the rails.  From there a log-depth prefix
        scan finishes the job exactly: a step is the map ``x -> min(max(x
        + a, b), c)``, and two such maps compose in closed form into a
        third, ``(a1 + a2, clamp(b1 + a2, b2, c2), clamp(c1 + a2, b2,
        c2))``, so ``ceil(log2 L)`` vectorized rounds give every clipped
        partial sum.

        Every intermediate is an int64 bounded by ``(L + 1) * 2**(width -
        1)``, so the result is exact for chains of up to ``2**(64 - width)
        - 2`` steps (about 4.3e9 for the 32-bit formats).
        """
        raw = np.cumsum(ints, axis=-1)
        off = (raw > self._imax) | (raw < self._imin)
        if not off.any():
            return raw
        p = int(off.reshape(-1, off.shape[-1]).any(axis=0).argmax())
        # Restart the chain at column p from its saturated value, so only
        # the tail past the first clip pays for the scan.
        a = ints[..., p:].copy()
        a[..., 0] = np.clip(raw[..., p], self._imin, self._imax)
        b = np.full_like(a, self._imin)
        c = np.full_like(a, self._imax)
        d = 1
        while d < a.shape[-1]:
            # Compose each map with the one d steps earlier (earlier first).
            a2, b2, c2 = a[..., d:], b[..., d:], c[..., d:]
            nb = np.minimum(np.maximum(b[..., :-d] + a2, b2), c2)
            nc = np.minimum(np.maximum(c[..., :-d] + a2, b2), c2)
            a[..., d:] = a[..., :-d] + a2
            b[..., d:] = nb
            c[..., d:] = nc
            d *= 2
        raw[..., p:] = np.minimum(np.maximum(a, b), c)  # each prefix map applied to 0
        return raw

    def partials(self, products: np.ndarray) -> np.ndarray:
        return self.from_int(self._saturating_cumsum(self.to_int(products)))

    def accumulate(self, products: np.ndarray) -> float:
        chain = self.partials(products)
        return float(chain[-1]) if chain.size else 0.0

    def accumulate_batch(self, products: np.ndarray, bias: np.ndarray) -> np.ndarray:
        products = np.asarray(products, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if products.ndim != 2 or bias.shape[0] != products.shape[0]:
            raise ValueError("products must be (n, length) with one bias per row")
        ints = self.to_int(np.concatenate([bias[:, None], products], axis=1))
        raw = np.cumsum(ints, axis=1)
        out = raw[:, -1]
        # Only rows whose running sum ever left the rails need the exact
        # saturating scan; everywhere else cumsum is already exact.
        bad = (raw.max(axis=1) > self._imax) | (raw.min(axis=1) < self._imin)
        if bad.any():
            out[bad] = self._saturating_cumsum(ints[bad])[:, -1]
        return self.from_int(out)

    # -- range -------------------------------------------------------------- #
    @property
    def max_value(self) -> float:
        return self._imax / self._scale

    @property
    def min_value(self) -> float:
        return self._imin / self._scale

    @property
    def resolution(self) -> float:
        """Smallest representable increment (one LSB)."""
        # Reporting-side float: the LSB value leaves the codec by design.
        return 1.0 / self._scale  # repro: noqa[RP203]


#: 16-bit: 1 sign, 5 integer, 10 fraction bits (Eyeriss's native format).
FXP_16B_RB10 = FixedPointType(16, 10)
#: 32-bit: 1 sign, 21 integer, 10 fraction bits (wide dynamic range).
FXP_32B_RB10 = FixedPointType(32, 10)
#: 32-bit: 1 sign, 5 integer, 26 fraction bits (narrow range, high precision).
FXP_32B_RB26 = FixedPointType(32, 26)
