"""Unit tests for the IEEE-754 codecs (DOUBLE / FLOAT / FLOAT16)."""

import numpy as np
import pytest

from repro.dtypes import DOUBLE, FLOAT, FLOAT16


class TestLayout:
    def test_widths(self):
        assert DOUBLE.width == 64
        assert FLOAT.width == 32
        assert FLOAT16.width == 16

    def test_field_partition_covers_all_bits(self):
        for dt in (DOUBLE, FLOAT, FLOAT16):
            covered = sorted(
                bit for f in dt.fields for bit in range(f.lo, f.hi + 1)
            )
            assert covered == list(range(dt.width))

    def test_field_of(self):
        assert FLOAT16.field_of(0) == "mantissa"
        assert FLOAT16.field_of(9) == "mantissa"
        assert FLOAT16.field_of(10) == "exponent"
        assert FLOAT16.field_of(14) == "exponent"
        assert FLOAT16.field_of(15) == "sign"
        assert FLOAT.field_of(23) == "exponent"
        assert DOUBLE.field_of(63) == "sign"

    def test_field_of_out_of_range(self):
        with pytest.raises(ValueError):
            FLOAT16.field_of(16)


class TestQuantize:
    def test_double_is_identity(self, rng):
        x = rng.normal(0, 100, 50)
        assert np.array_equal(DOUBLE.quantize(x), x)

    def test_float16_rounds(self):
        # 1 + 2^-11 is exactly between fp16 neighbours; rounds to even (1.0)
        assert FLOAT16.quantize(np.array([1.0 + 2.0**-11]))[0] == 1.0

    def test_float16_overflow_to_inf(self):
        assert np.isinf(FLOAT16.quantize(np.array([1e6]))[0])

    def test_quantize_idempotent(self, rng):
        x = rng.normal(0, 10, 100)
        q1 = FLOAT16.quantize(x)
        assert np.array_equal(FLOAT16.quantize(q1), q1)

    def test_preserves_shape(self, rng):
        x = rng.normal(0, 1, (3, 4, 5))
        assert FLOAT.quantize(x).shape == (3, 4, 5)


class TestEncodeDecode:
    def test_known_patterns(self):
        assert FLOAT.encode(np.array([1.0]))[0] == 0x3F800000
        assert FLOAT.encode(np.array([-1.0]))[0] == 0xBF800000
        assert FLOAT16.encode(np.array([1.0]))[0] == 0x3C00
        assert DOUBLE.encode(np.array([1.0]))[0] == 0x3FF0000000000000

    def test_roundtrip(self, rng):
        for dt in (DOUBLE, FLOAT, FLOAT16):
            x = dt.quantize(rng.normal(0, 5, 200))
            assert np.array_equal(dt.decode(dt.encode(x)), x)

    def test_decode_inf_nan(self):
        assert np.isinf(FLOAT16.decode(np.array([0x7C00]))[0])
        assert np.isnan(FLOAT16.decode(np.array([0x7C01]))[0])


class TestFlipBit:
    def test_sign_flip(self):
        assert FLOAT.flip_bit(np.array([2.5]), 31)[0] == -2.5

    def test_mantissa_flip_small_change(self):
        v = FLOAT16.flip_bit(np.array([1.0]), 0)[0]
        assert v != 1.0 and abs(v - 1.0) < 0.01

    def test_exponent_flip_large_change(self):
        v = FLOAT16.flip_bit(np.array([1.0]), 14)[0]
        assert not np.isfinite(v) or abs(v) > 1e4

    def test_double_flip_is_identity(self, rng):
        x = FLOAT.quantize(rng.normal(0, 3, 50))
        for bit in (0, 15, 23, 30, 31):
            once = FLOAT.flip_bit(x, bit)
            twice = FLOAT.flip_bit(once, bit)
            # NaN intermediates lose their payload through the float64
            # carrier (documented codec limitation); exclude them.
            ok = ~np.isnan(once)
            assert np.array_equal(twice[ok], x[ok])
            assert ok.sum() > 25  # the exclusion is the minority case

    def test_flip_out_of_range_raises(self):
        with pytest.raises(ValueError):
            FLOAT16.flip_bit(np.array([1.0]), 16)


class TestArithmetic:
    def test_multiply_rounds_in_format(self):
        # fp16: 1.0009765625 * 1.0009765625 = 1.00195... rounds to 1.001953125
        a = np.array([1.0 + 2.0**-10])
        prod = FLOAT16.multiply(a, a)
        assert prod[0] == FLOAT16.quantize(np.array([(1 + 2.0**-10) ** 2]))[0]

    def test_partials_per_step_rounding(self):
        # Adding 2^-12 to 1.0 in fp16 is absorbed at every step.
        p = np.array([1.0] + [2.0**-12] * 100)
        chain = FLOAT16.partials(p)
        assert chain[-1] == 1.0
        assert np.sum(p) > 1.0  # float64 reference differs

    def test_partials_runs_along_last_axis(self, rng):
        p = rng.normal(0, 1, (3, 64))
        rows = [FLOAT16.partials(row)[-1] for row in p]
        assert FLOAT16.partials(p)[..., -1].tolist() == rows

    def test_partials_empty(self):
        assert FLOAT16.partials(np.zeros((2, 0))).shape == (2, 0)

    def test_add_overflow_to_inf(self):
        assert np.isinf(FLOAT16.add(np.array([6e4]), np.array([6e4]))[0])


class TestRange:
    def test_max_values(self):
        assert FLOAT16.max_value == pytest.approx(65504.0)
        assert FLOAT.min_value == -FLOAT.max_value
        assert DOUBLE.dynamic_range > FLOAT.dynamic_range > FLOAT16.dynamic_range


class TestIdentity:
    def test_equality_and_hash(self):
        assert FLOAT16 == FLOAT16
        assert FLOAT16 != FLOAT
        assert len({DOUBLE, FLOAT, FLOAT16}) == 3
