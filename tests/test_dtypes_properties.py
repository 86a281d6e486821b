"""Property-based tests (hypothesis) on the numeric-format invariants the
fault injector depends on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import DTYPES

DTYPE_NAMES = sorted(DTYPES)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(name=st.sampled_from(DTYPE_NAMES), x=st.lists(finite_floats, min_size=1, max_size=32))
@settings(max_examples=60, deadline=None)
def test_quantize_idempotent(name, x):
    dt = DTYPES[name]
    q = dt.quantize(np.array(x))
    assert np.array_equal(dt.quantize(q), q)


@given(name=st.sampled_from(DTYPE_NAMES), x=st.lists(finite_floats, min_size=1, max_size=32))
@settings(max_examples=60, deadline=None)
def test_encode_decode_roundtrip(name, x):
    dt = DTYPES[name]
    q = dt.quantize(np.array(x))
    assert np.array_equal(dt.decode(dt.encode(q)), q)


@given(name=st.sampled_from(DTYPE_NAMES), x=finite_floats, data=st.data())
@settings(max_examples=100, deadline=None)
def test_flip_twice_is_identity(name, x, data):
    dt = DTYPES[name]
    bit = data.draw(st.integers(min_value=0, max_value=dt.width - 1))
    q = dt.quantize(np.array([x]))
    once = dt.flip_bit(q, bit)
    if np.isnan(once[0]):
        # NaN intermediates lose their payload through the float64
        # carrier (documented codec limitation).
        return
    assert np.array_equal(dt.flip_bit(once, bit), q)


@given(name=st.sampled_from(DTYPE_NAMES), x=finite_floats, data=st.data())
@settings(max_examples=100, deadline=None)
def test_flip_changes_representation(name, x, data):
    """A flip always changes the bit pattern (even if the decoded value
    can collide for NaN payloads, the encoding must differ)."""
    dt = DTYPES[name]
    bit = data.draw(st.integers(min_value=0, max_value=dt.width - 1))
    q = dt.quantize(np.array([x]))
    before = dt.encode(q)[0]
    after = before ^ (np.uint64(1) << np.uint64(bit))
    assert before != after


@given(
    name=st.sampled_from(["16b_rb10", "32b_rb10", "32b_rb26"]),
    x=st.lists(finite_floats, min_size=1, max_size=32),
)
@settings(max_examples=60, deadline=None)
def test_fixed_point_quantize_within_rails(name, x):
    dt = DTYPES[name]
    q = dt.quantize(np.array(x))
    assert (q >= dt.min_value).all() and (q <= dt.max_value).all()


@given(
    name=st.sampled_from(["16b_rb10", "32b_rb10", "32b_rb26"]),
    x=st.lists(st.floats(min_value=-40, max_value=40, allow_nan=False), min_size=1, max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_fixed_point_partials_stay_within_rails(name, x):
    dt = DTYPES[name]
    chain = dt.partials(np.array(x))
    assert (chain >= dt.min_value).all() and (chain <= dt.max_value).all()


@given(
    name=st.sampled_from(DTYPE_NAMES),
    x=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=24),
)
@settings(max_examples=60, deadline=None)
def test_partials_of_stacked_chains_equal_each_chain(name, x):
    dt = DTYPES[name]
    p = np.array([x, x[::-1]])
    assert dt.partials(p)[..., -1].tolist() == [dt.partials(row)[-1] for row in p]


@given(name=st.sampled_from(DTYPE_NAMES), x=finite_floats)
@settings(max_examples=60, deadline=None)
def test_quantize_error_bounded(name, x):
    """Quantization error is bounded by the format's local resolution
    for in-range values."""
    dt = DTYPES[name]
    if not dt.is_float:
        if dt.min_value <= x <= dt.max_value:
            q = dt.quantize(np.array([x]))[0]
            assert abs(q - x) <= dt.resolution / 2 + 1e-12
    else:
        q = dt.quantize(np.array([x]))[0]
        # Relative-error bounds only hold for normal values; subnormals
        # (and underflow to zero) have absolute, not relative, spacing.
        if np.isfinite(q) and q != 0 and abs(q) >= float(np.finfo(dt.np_dtype).tiny):
            assert abs(q - x) <= abs(x) * 2.0 ** (-7)  # coarsest: fp16, 10-bit mantissa


def saturating_loop(ints, lo, hi):
    """Scalar oracle: the accumulator register, one saturating add per step."""
    out, acc = [], 0
    for v in ints:
        acc = min(max(acc + int(v), lo), hi)
        out.append(acc)
    return out


@given(
    name=st.sampled_from(["16b_rb10", "32b_rb10", "32b_rb26"]),
    rows=st.integers(min_value=1, max_value=4),
    length=st.integers(min_value=1, max_value=900),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_fixed_point_saturation_matches_scalar_loop(name, rows, length, data):
    """``partials``, of one chain and of a stack of chains, equals the
    step-by-step saturating accumulator on chains that hit the rails,
    from both sides, any number of times."""
    dt = DTYPES[name]
    rail = dt.max_value
    step = data.draw(st.sampled_from([0.02, 0.3, 1.5])) * rail
    drift = data.draw(st.floats(min_value=-0.5, max_value=0.5)) * step
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    g = np.random.default_rng(seed)
    chains = g.normal(drift, step, (rows, length))
    chains.reshape(-1)[g.integers(0, chains.size, 3)] = [np.inf, -np.inf, np.nan]
    lo, hi = dt.to_int(np.array([dt.min_value, dt.max_value]))
    ints = dt.to_int(chains)
    for r in range(rows):
        assert dt.to_int(dt.partials(chains[r])).tolist() == saturating_loop(ints[r], lo, hi)
    got = dt.to_int(dt.partials(chains))
    assert got.tolist() == [saturating_loop(row, lo, hi) for row in ints]


def nan_to_num_to_int(dt, x):
    """Oracle: the ``nan_to_num`` + ``clip`` form of ``to_int``."""
    scaled = np.rint(np.asarray(x, dtype=np.float64) * dt._scale)
    scaled = np.nan_to_num(scaled, nan=0.0, posinf=dt._imax, neginf=dt._imin)
    return np.clip(scaled, dt._imin, dt._imax).astype(np.int64)


#: Finite values around and far past every format's rails, plus the
#: non-finite values ``to_int`` must flush (NaN) or saturate (+-inf).
edge_floats = st.one_of(
    st.floats(min_value=-3e6, max_value=3e6, allow_nan=False),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, 32.0, -32.0, 2.0**21, -(2.0**21)]),
)


@given(
    name=st.sampled_from(["16b_rb10", "32b_rb10", "32b_rb26"]),
    x=st.lists(edge_floats, min_size=1, max_size=32),
)
@settings(max_examples=80, deadline=None)
def test_fixed_point_to_int_matches_nan_to_num_form(name, x):
    """``to_int`` equals the ``nan_to_num`` form, bit for bit and in
    type, on arrays, 0-d arrays and Python floats."""
    dt = DTYPES[name]
    for value in (np.array(x), np.array(x[0]), x[0]):
        got, want = dt.to_int(value), nan_to_num_to_int(dt, value)
        assert type(got) is type(want) and got.dtype == want.dtype
        assert np.array_equal(got, want)
