"""Unit tests for the saturating fixed-point codecs."""

import numpy as np
import pytest

from repro.dtypes import FXP_16B_RB10, FXP_32B_RB10, FXP_32B_RB26, FixedPointType


class TestLayout:
    def test_paper_layouts(self):
        assert FXP_16B_RB10.width == 16 and FXP_16B_RB10.frac_bits == 10
        assert FXP_16B_RB10.int_bits == 5
        assert FXP_32B_RB10.int_bits == 21
        assert FXP_32B_RB26.int_bits == 5

    def test_names(self):
        assert FXP_16B_RB10.name == "16b_rb10"
        assert FXP_32B_RB26.name == "32b_rb26"

    def test_fields(self):
        assert FXP_16B_RB10.field_of(0) == "fraction"
        assert FXP_16B_RB10.field_of(9) == "fraction"
        assert FXP_16B_RB10.field_of(10) == "integer"
        assert FXP_16B_RB10.field_of(14) == "integer"
        assert FXP_16B_RB10.field_of(15) == "sign"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FixedPointType(1, 0)
        with pytest.raises(ValueError):
            FixedPointType(16, 16)

    def test_no_integer_field_when_all_fraction(self):
        dt = FixedPointType(8, 7)
        assert [f.name for f in dt.fields] == ["fraction", "sign"]


class TestQuantize:
    def test_resolution(self):
        assert FXP_16B_RB10.resolution == 2.0**-10
        assert FXP_16B_RB10.quantize(np.array([2.0**-11]))[0] in (0.0, 2.0**-10)

    def test_exact_values_preserved(self):
        x = np.array([1.0, -1.5, 0.25, 31.0])
        assert np.array_equal(FXP_16B_RB10.quantize(x), x)

    def test_saturation(self):
        assert FXP_16B_RB10.quantize(np.array([1e5]))[0] == FXP_16B_RB10.max_value
        assert FXP_16B_RB10.quantize(np.array([-1e5]))[0] == FXP_16B_RB10.min_value

    def test_max_min_values(self):
        assert FXP_16B_RB10.max_value == pytest.approx((2**15 - 1) / 1024)
        assert FXP_16B_RB10.min_value == pytest.approx(-(2**15) / 1024)
        assert FXP_32B_RB26.max_value == pytest.approx(32.0, abs=1e-6)

    def test_nan_flushes_to_zero(self):
        assert FXP_16B_RB10.quantize(np.array([np.nan]))[0] == 0.0

    def test_inf_saturates(self):
        assert FXP_16B_RB10.quantize(np.array([np.inf]))[0] == FXP_16B_RB10.max_value
        assert FXP_16B_RB10.quantize(np.array([-np.inf]))[0] == FXP_16B_RB10.min_value


class TestEncodeDecode:
    def test_twos_complement(self):
        # -1.0 at rb10 = -1024 = 0xFC00 over 16 bits
        assert FXP_16B_RB10.encode(np.array([-1.0]))[0] == 0xFC00
        assert FXP_16B_RB10.encode(np.array([1.0]))[0] == 0x0400

    def test_roundtrip(self, rng):
        for dt in (FXP_16B_RB10, FXP_32B_RB10, FXP_32B_RB26):
            x = dt.quantize(rng.uniform(-30, 30, 200))
            assert np.array_equal(dt.decode(dt.encode(x)), x)

    def test_decode_sign_extension(self):
        assert FXP_16B_RB10.decode(np.array([0x8000]))[0] == FXP_16B_RB10.min_value


class TestFlipBit:
    def test_integer_bit_flip(self):
        # bit 14 = 2^4 = 16 units
        assert FXP_16B_RB10.flip_bit(np.array([1.0]), 14)[0] == 17.0

    def test_sign_bit_flip_wraps(self):
        v = FXP_16B_RB10.flip_bit(np.array([1.0]), 15)[0]
        assert v == 1.0 - 2.0**5  # two's-complement wrap

    def test_flip_involution(self, rng):
        x = FXP_32B_RB10.quantize(rng.uniform(-100, 100, 50))
        for bit in (0, 10, 20, 31):
            assert np.array_equal(
                FXP_32B_RB10.flip_bit(FXP_32B_RB10.flip_bit(x, bit), bit), x
            )


class TestArithmetic:
    def test_multiply_rounds_product(self):
        a = np.array([2.0**-10])
        # 2^-10 * 2^-10 = 2^-20, below resolution -> rounds to 0
        assert FXP_16B_RB10.multiply(a, a)[0] == 0.0

    def test_multiply_saturates(self):
        a = np.array([30.0])
        assert FXP_16B_RB10.multiply(a, a)[0] == FXP_16B_RB10.max_value

    def test_partials_saturating_chain(self):
        # 10 + 10 + 10 + 10 saturates at ~32 and stays there; then
        # subtracting walks back down from the rail (not from 40).
        p = np.array([10.0, 10.0, 10.0, 10.0, -10.0])
        chain = FXP_16B_RB10.partials(p)
        assert chain[3] == FXP_16B_RB10.max_value
        assert chain[4] == pytest.approx(FXP_16B_RB10.max_value - 10.0)

    def test_partials_fast_path_matches_slow_path(self, rng):
        # No saturation: cumsum fast path must equal exact accumulation.
        p = FXP_16B_RB10.quantize(rng.uniform(-0.1, 0.1, 100))
        assert np.allclose(FXP_16B_RB10.partials(p), np.cumsum(p))

    def test_partials_empty(self):
        assert FXP_32B_RB26.partials(np.zeros((2, 0))).shape == (2, 0)

    def test_add_saturates(self):
        assert FXP_16B_RB10.add(np.array([31.0]), np.array([5.0]))[0] == FXP_16B_RB10.max_value
