"""Bit-exact fault injection into DNN inference.

Two engines, matching the paper's two fault origins:

- :func:`inject_datapath` replays the single corrupted MAC chain with the
  target format's per-step rounding/saturation semantics, patches the
  victim output element, and resumes the network from the next layer
  (read-once semantics of PE latches).
- :func:`inject_buffer` spreads one corrupted buffer entry according to
  its reuse scope — a whole-layer weight (Filter SRAM), a one-row ifmap
  residency (Img REG), a next-layer activation (Global Buffer) or a
  single partial-sum read (PSum REG).

Both consume a cached golden :class:`~repro.nn.network.InferenceResult`
so each injection costs only the corrupted chain(s) plus a partial
forward pass from the fault layer onward.

Each engine is split into two separable stages:

- ``prepare_*`` builds the corruption — it replays the corrupted MAC
  chain(s), decides maskedness, and produces a
  :class:`PreparedInjection` holding the patched activation plus the
  input-row span the corruption is confined to.  An Img REG fault's
  chains are built from one tap gather per affected column, so its
  cost grows with those columns, not with the filters;
- :func:`finish_injection` propagates one prepared corruption through
  the network tail by full recomputation — the per-trial reference.

``inject_datapath`` / ``inject_buffer`` compose the two for single
injections.  The campaign runner propagates every unmasked trial
through :meth:`~repro.nn.network.Network.forward_from_batch` instead:
it prepares a slice of trials, groups them by resume layer, and
delta-propagates each group (of one or more trials) in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import window_out_span
from repro.nn.layers.base import MacChain, MacLayer
from repro.nn.network import InferenceResult, Network
from repro.core.fault import BufferFault, DatapathFault
from repro.obs.spans import span

__all__ = [
    "InjectionResult",
    "PreparedInjection",
    "replay_chain",
    "prepare_datapath",
    "prepare_buffer",
    "finish_injection",
    "inject_datapath",
    "inject_buffer",
]


@dataclass
class InjectionResult:
    """Outcome of one fault injection.

    Attributes:
        scores: Final output scores of the faulty run.
        masked: True when the flip did not change any architecturally
            visible value (the faulty run equals the golden run exactly).
        value_before: Victim value before corruption (golden).
        value_after: Victim value after corruption.
        resume_index: Layer index from which execution was re-run.
        faulty_activations: Activations of the re-run segment;
            ``faulty_activations[0]`` is the (corrupted) input to layer
            ``resume_index``.  Empty when ``masked`` or recording is off.
    """

    scores: np.ndarray
    masked: bool
    value_before: float
    value_after: float
    resume_index: int
    faulty_activations: list[np.ndarray] = field(default_factory=list)


@dataclass
class PreparedInjection:
    """A corruption that has been built but not yet propagated.

    Attributes:
        resume_index: Layer index execution must resume from.
        masked: True when the flip changed no architecturally visible
            value; no propagation is needed.
        value_before: Victim value before corruption.
        value_after: Victim value after corruption.
        act: Corrupted input to ``layers[resume_index]`` (``None`` when
            masked).
        dirty_rows: Half-open row span ``(r0, r1)`` of ``act`` confining
            the corruption, in the fmap's h dimension; ``None`` when the
            corruption may be anywhere (FC-stage faults, whole-layer
            weight faults).
    """

    resume_index: int
    masked: bool
    value_before: float
    value_after: float
    act: np.ndarray | None = None
    dirty_rows: tuple[int, int] | None = None


def replay_chain(
    dtype: DataType,
    chain: MacChain,
    fault: DatapathFault | None = None,
) -> float:
    """Accumulate a MAC chain bit-exactly, optionally with one latch fault.

    The accumulator starts at the bias and adds one product per step with
    the format's per-step rounding (FP) or saturation (FxP).  A fault of
    kind ``weight_operand``/``input_operand`` corrupts the multiplier
    operand of step ``fault.step``; ``product`` corrupts the multiplier
    output; ``psum`` corrupts the running sum *entering* the adder at
    that step; ``accumulator`` corrupts the sum *leaving* it.

    Returns:
        The final accumulated value (the victim output element before
        any subsequent activation function).
    """
    w = chain.weights
    a = chain.inputs
    products = dtype.multiply(w, a)
    if fault is None:
        full = np.concatenate(([chain.bias], products))
        return float(dtype.partials(full)[-1])

    k = fault.step
    if not 0 <= k < chain.length:
        raise ValueError(f"fault step {k} outside chain of length {chain.length}")

    if fault.latch == "weight_operand":
        wk = dtype.flip_bits(np.array([w[k]]), fault.bit, fault.burst)[0]
        products = products.copy()
        products[k] = dtype.multiply(np.array([wk]), np.array([a[k]]))[0]
        full = np.concatenate(([chain.bias], products))
        return float(dtype.partials(full)[-1])
    if fault.latch == "input_operand":
        ak = dtype.flip_bits(np.array([a[k]]), fault.bit, fault.burst)[0]
        products = products.copy()
        products[k] = dtype.multiply(np.array([w[k]]), np.array([ak]))[0]
        full = np.concatenate(([chain.bias], products))
        return float(dtype.partials(full)[-1])
    if fault.latch == "product":
        products = products.copy()
        products[k] = dtype.flip_bits(np.array([products[k]]), fault.bit, fault.burst)[0]
        full = np.concatenate(([chain.bias], products))
        return float(dtype.partials(full)[-1])
    if fault.latch in ("psum", "accumulator"):
        prefix = dtype.partials(np.concatenate(([chain.bias], products[:k])))
        running = prefix[-1]
        if fault.latch == "psum":
            # Corrupt the partial sum entering the adder at step k.
            running = dtype.flip_bits(np.array([running]), fault.bit, fault.burst)[0]
            rest = np.concatenate(([running], products[k:]))
        else:
            # Corrupt the adder output of step k.
            running = dtype.add(np.array([running]), np.array([products[k]]))[0]
            running = dtype.flip_bits(np.array([running]), fault.bit, fault.burst)[0]
            rest = np.concatenate(([running], products[k + 1 :]))
        return float(dtype.partials(rest)[-1])
    raise ValueError(f"unknown latch {fault.latch!r}")


def finish_injection(
    network: Network,
    dtype: DataType,
    prep: PreparedInjection,
    golden: InferenceResult,
    record: bool = False,
    storage_dtype: DataType | None = None,
) -> InjectionResult:
    """Propagate one prepared corruption through the network tail.

    The per-trial full-recompute reference: every layer from
    ``prep.resume_index`` on is recomputed for this trial alone, with no
    golden-row reuse.  A masked preparation needs no propagation and
    returns the golden scores.
    """
    if prep.masked:
        return InjectionResult(
            scores=golden.scores,
            masked=True,
            value_before=prep.value_before,
            value_after=prep.value_before,
            resume_index=prep.resume_index,
        )
    assert prep.act is not None
    res = network.forward_from(
        prep.resume_index, prep.act, dtype=dtype, record=record, storage_dtype=storage_dtype
    )
    return InjectionResult(
        scores=res.scores,
        masked=False,
        value_before=prep.value_before,
        value_after=prep.value_after,
        resume_index=prep.resume_index,
        faulty_activations=res.activations,
    )


def prepare_datapath(
    network: Network,
    dtype: DataType,
    fault: DatapathFault,
    golden: InferenceResult,
    storage_dtype: DataType | None = None,
) -> PreparedInjection:
    """Build (without propagating) one datapath-latch corruption.

    Args:
        network: Target network (weights untouched).
        dtype: Numeric format of the accelerator datapath.
        fault: Fault site (see :class:`~repro.core.fault.DatapathFault`).
        golden: Fault-free inference (with recorded activations) of the
            same input under the same formats.
        storage_dtype: Reduced-precision buffer storage format, when the
            golden run used one (Proteus protocol, paper section 6.1).
    """
    layer = network.layers[fault.layer_index]
    if not isinstance(layer, MacLayer):
        raise TypeError(f"layer {fault.layer_index} is not a MAC layer")
    x = golden.activations[fault.layer_index]
    with span("inject_datapath"):
        chain = layer.mac_operands(x, fault.out_index, dtype)
        clean = replay_chain(dtype, chain)
        faulty = replay_chain(dtype, chain, fault)
        if storage_dtype is not None and fault.layer_index in network.block_output_indices():
            # The corrupted MAC result is immediately narrowed for storage.
            clean = float(storage_dtype.quantize(np.array([clean]))[0])
            faulty = float(storage_dtype.quantize(np.array([faulty]))[0])
        if faulty == clean or (np.isnan(faulty) and np.isnan(clean)):
            return PreparedInjection(fault.layer_index + 1, True, clean, clean)
        act = golden.activations[fault.layer_index + 1].copy()
        act[fault.out_index] = faulty
    rows = (
        (fault.out_index[1], fault.out_index[1] + 1)
        if len(fault.out_index) == 3
        else None  # FC output: no spatial locality to exploit
    )
    return PreparedInjection(fault.layer_index + 1, False, clean, faulty, act, rows)


def inject_datapath(
    network: Network,
    dtype: DataType,
    fault: DatapathFault,
    golden: InferenceResult,
    record: bool = False,
    storage_dtype: DataType | None = None,
) -> InjectionResult:
    """Inject one datapath-latch fault and run the inference to the end.

    Equivalent to :func:`prepare_datapath` + :func:`finish_injection`.
    """
    prep = prepare_datapath(network, dtype, fault, golden, storage_dtype)
    return finish_injection(network, dtype, prep, golden, record, storage_dtype)


def _prepare_layer_weight(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None,
) -> PreparedInjection:
    """Filter-SRAM fault: one weight corrupted for the whole layer."""
    layer = network.layers[fault.layer_index]
    w, b = layer.quantized_weights(dtype)
    store = storage_dtype or dtype
    before = float(store.quantize(np.array([w[fault.victim]]))[0])
    after = float(store.flip_bits(np.array([before]), fault.bit, fault.burst)[0])
    if after == before:
        return PreparedInjection(fault.layer_index + 1, True, before, before)
    w_bad = w.copy()
    w_bad[fault.victim] = dtype.quantize(np.array([after]))[0]
    x = golden.activations[fault.layer_index]
    y = layer.forward_with_weights(x[None], dtype, w_bad, b)[0]
    if storage_dtype is not None and fault.layer_index in network.block_output_indices():
        y = storage_dtype.quantize(y)
    # Every output element read the corrupted weight: nothing is confined.
    return PreparedInjection(fault.layer_index + 1, False, before, after, y, None)


def _prepare_next_layer(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None,
) -> PreparedInjection:
    """Global-Buffer fault: one stored ACT corrupted for all consumers.

    The flip happens in the *storage* representation: under the Proteus
    protocol the stored word is narrower than the datapath word.
    """
    store = storage_dtype or dtype
    x = golden.activations[fault.layer_index]
    before = float(x[fault.victim])
    after = float(store.flip_bits(np.array([before]), fault.bit, fault.burst)[0])
    if after == before:
        return PreparedInjection(fault.layer_index, True, before, before)
    act = x.copy()
    act[fault.victim] = dtype.quantize(np.array([after]))[0]
    rows = (fault.victim[1], fault.victim[1] + 1) if len(fault.victim) == 3 else None
    return PreparedInjection(fault.layer_index, False, before, after, act, rows)


def _prepare_row_activation(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None,
) -> PreparedInjection:
    """Img-REG fault: corrupted ifmap value read by one output row only.

    Only the output elements of ``fault.residency_row`` whose windows
    cover the victim pixel consume the corrupted register; every other
    window re-reads the (correct) value from the Filter/Global buffers.
    Every filter reads the same taps, so each affected column's taps are
    gathered once and one broadcast multiply forms the products of all
    (filter, column) chains.  The corrupt products differ only at the
    victim's tap, which each affected window reads exactly once.  Both
    sets of chains are replayed bit-exactly in one vectorized accumulate
    each.
    """
    layer = network.layers[fault.layer_index]
    store = storage_dtype or dtype
    x = golden.activations[fault.layer_index]
    before = float(x[fault.victim])
    c, yy, xx_pos = fault.victim
    oy = fault.residency_row
    k = layer.kernel
    dy = yy - (oy * layer.stride - layer.pad)
    _, _, ow = layer.out_shape(x.shape)
    lo, hi = window_out_span(xx_pos, xx_pos + 1, k, layer.stride, layer.pad, ow)
    if not 0 <= dy < k or lo == hi:
        # No window of the residency row reads the victim pixel (a row
        # miss, or a column a strided sweep skips): the fault is never
        # consumed.  Checked before the flip and any chain or copy work,
        # so a miss costs nothing.
        return PreparedInjection(fault.layer_index + 1, True, before, before)
    after = float(store.flip_bits(np.array([before]), fault.bit, fault.burst)[0])
    if after == before:
        return PreparedInjection(fault.layer_index + 1, True, before, before)

    cols = np.arange(lo, hi)
    taps = np.stack([layer.mac_operands(x, (0, oy, ox), dtype).inputs for ox in cols])
    w, b = layer.quantized_weights(dtype)
    w = w.reshape(len(w), -1)  # (filters, taps), in mac_operands' tap order
    prods_ok = dtype.multiply(w[:, None, :], taps[None, :, :])
    # Column ``ox`` reads the victim at tap c*k*k + dy*k + (xx - (ox*s - p)).
    tap = c * k * k + dy * k + xx_pos - (cols * layer.stride - layer.pad)
    prods_bad = prods_ok.copy()
    prods_bad[:, np.arange(cols.size), tap] = dtype.multiply(
        w[:, tap], dtype.quantize(np.array([after]))
    )
    # Filter-major rows: chain f * ncols + j is output (f, oy, lo + j).
    bias_vec = np.repeat(b, cols.size)
    v_bad = dtype.accumulate_batch(prods_bad.reshape(-1, w.shape[1]), bias_vec)
    v_ok = dtype.accumulate_batch(prods_ok.reshape(-1, w.shape[1]), bias_vec)
    if storage_dtype is not None and fault.layer_index in network.block_output_indices():
        v_bad = storage_dtype.quantize(v_bad)
        v_ok = storage_dtype.quantize(v_ok)
    with np.errstate(invalid="ignore"):
        differs = (v_bad != v_ok) & ~(np.isnan(v_bad) & np.isnan(v_ok))
    if not differs.any():
        return PreparedInjection(fault.layer_index + 1, True, before, before)
    act = golden.activations[fault.layer_index + 1].copy()
    np.copyto(act[:, oy, lo:hi], v_bad.reshape(-1, cols.size), where=differs.reshape(-1, cols.size))
    return PreparedInjection(
        fault.layer_index + 1, False, before, after, act, (oy, oy + 1)
    )


def _prepare_single_read(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None,
) -> PreparedInjection:
    """PSum-REG fault: identical semantics to a datapath psum latch."""
    *out_index, step = fault.victim
    dp = DatapathFault(
        layer_index=fault.layer_index,
        out_index=tuple(out_index),
        step=int(step),
        latch="psum",
        bit=fault.bit,
        burst=fault.burst,
    )
    return prepare_datapath(network, dtype, dp, golden, storage_dtype)


_BUFFER_DISPATCH = {
    "layer_weight": _prepare_layer_weight,
    "next_layer": _prepare_next_layer,
    "row_activation": _prepare_row_activation,
    "single_read": _prepare_single_read,
}


def prepare_buffer(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None = None,
) -> PreparedInjection:
    """Build (without propagating) one buffer corruption.

    ``storage_dtype`` enables the Proteus reduced-precision protocol:
    buffered values (weights, fmaps) live in the narrow storage format,
    so the flip lands in that representation, while the datapath keeps
    computing in ``dtype``.
    """
    try:
        handler = _BUFFER_DISPATCH[fault.scope]
    except KeyError:
        raise ValueError(f"unknown buffer fault scope {fault.scope!r}") from None
    with span("inject_buffer"):
        return handler(network, dtype, fault, golden, storage_dtype)


def inject_buffer(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    record: bool = False,
    storage_dtype: DataType | None = None,
) -> InjectionResult:
    """Inject one buffer fault (dispatching on its reuse scope).

    Equivalent to :func:`prepare_buffer` + :func:`finish_injection`.
    """
    prep = prepare_buffer(network, dtype, fault, golden, storage_dtype)
    return finish_injection(network, dtype, prep, golden, record, storage_dtype)
