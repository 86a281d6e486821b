"""IEEE-754 floating-point codecs: DOUBLE, FLOAT and FLOAT16 (Table 3).

NumPy's native ``float16/32/64`` types *are* the IEEE-754 binary16/32/64
formats, so quantization is a cast and bit access is a same-width unsigned
view.  Per-step rounding of the MAC accumulator falls out of
``np.add.accumulate`` on the native dtype, which performs the additions in
the storage format.

Known limitation: values travel through a float64 carrier, which cannot
represent distinct float32/float16 NaN payloads — a bit flip that lands
in NaN space collapses to the canonical NaN on the next encode.  This is
immaterial for fault analysis (every NaN poisons downstream computation
identically) but means ``flip_bit`` is not a strict involution through a
NaN intermediate.
"""

from __future__ import annotations

import numpy as np

from repro.dtypes.base import BitField, DataType

__all__ = ["FloatType", "DOUBLE", "FLOAT", "FLOAT16"]

_UINT_FOR_WIDTH = {16: np.uint16, 32: np.uint32, 64: np.uint64}


class FloatType(DataType):
    """An IEEE-754 binary floating-point format backed by a NumPy dtype.

    Args:
        name: Paper name (``"DOUBLE"``, ``"FLOAT"``, ``"FLOAT16"``).
        np_dtype: The backing NumPy floating dtype.
        exponent_bits: Width of the exponent field.
        mantissa_bits: Width of the trailing significand field.
    """

    is_float = True

    def __init__(self, name: str, np_dtype: type, exponent_bits: int, mantissa_bits: int):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)
        self.width = self.np_dtype.itemsize * 8
        if 1 + exponent_bits + mantissa_bits != self.width:
            raise ValueError(f"{name}: field widths do not sum to {self.width}")
        self.exponent_bits = exponent_bits
        self.mantissa_bits = mantissa_bits
        self.fields = (
            BitField("mantissa", 0, mantissa_bits - 1),
            BitField("exponent", mantissa_bits, mantissa_bits + exponent_bits - 1),
            BitField("sign", self.width - 1, self.width - 1),
        )
        self._uint = _UINT_FOR_WIDTH[self.width]
        finfo = np.finfo(self.np_dtype)
        self._max = float(finfo.max)
        self._min = float(finfo.min)

    # -- representation ------------------------------------------------- #
    def quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.np_dtype == np.float64:
            return x.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            return x.astype(self.np_dtype).astype(np.float64)

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            native = x.astype(self.np_dtype)
        return native.view(self._uint).astype(np.uint64)

    def decode(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.uint64)
        native = bits.astype(self._uint).view(self.np_dtype)
        with np.errstate(invalid="ignore"):
            return native.astype(np.float64)

    # -- arithmetic ------------------------------------------------------ #
    def multiply(self, a: np.ndarray, b: np.ndarray, native: bool = False) -> np.ndarray:
        a = np.asarray(a, dtype=self.np_dtype)
        b = np.asarray(b, dtype=self.np_dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            prod = a * b
        return prod if native else prod.astype(np.float64)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = np.asarray(a, dtype=self.np_dtype)
        b = np.asarray(b, dtype=self.np_dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            return (a + b).astype(np.float64)

    def partials(self, chains: np.ndarray, native: bool = False) -> np.ndarray:
        p = np.asarray(chains, dtype=self.np_dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            running = np.add.accumulate(p, axis=-1)
        return running if native else running.astype(np.float64)

    # -- range ------------------------------------------------------------ #
    @property
    def max_value(self) -> float:
        return self._max

    @property
    def min_value(self) -> float:
        return self._min


#: IEEE-754 binary64: 1 sign, 11 exponent, 52 mantissa bits.
DOUBLE = FloatType("DOUBLE", np.float64, 11, 52)
#: IEEE-754 binary32: 1 sign, 8 exponent, 23 mantissa bits.
FLOAT = FloatType("FLOAT", np.float32, 8, 23)
#: IEEE-754 binary16: 1 sign, 5 exponent, 10 mantissa bits.
FLOAT16 = FloatType("FLOAT16", np.float16, 5, 10)
