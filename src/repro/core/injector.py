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
  :class:`PreparedInjection`.  A confined corruption is held as the box
  ``(r0, r1, c0, c1)`` of the fmap its injection site can change plus a
  patch of the values there, over the golden activation: one pixel
  column for a datapath, PSum REG or Global Buffer fault, the affected
  columns of one output row for an Img REG fault.  No whole fmap is
  copied for it.  An Img REG fault's chains are built from one tap
  gather per affected column, so its cost grows with those columns, not
  with the filters;
- :func:`finish_injection` propagates one prepared corruption through
  the network tail by full recomputation — the per-trial reference.

``inject_datapath`` / ``inject_buffer`` compose the two for single
injections.  The campaign runner propagates every unmasked trial
through :meth:`~repro.nn.network.Network.forward_from_batch` instead:
it prepares a slice of trials, sorts them by resume layer, and
delta-propagates each group of up to ``batch`` trials in one call that
admits every trial at its own resume layer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import window_out_span
from repro.nn.layers.base import Box, MacChain, MacLayer
from repro.nn.network import InferenceResult, Network, paste_patch
from repro.core.fault import DATAPATH_LATCHES, BufferFault, DatapathFault
from repro.obs.spans import span

__all__ = [
    "InjectionResult",
    "PreparedInjection",
    "replay_chain",
    "replay_datapath",
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

    A confined corruption is its ``patch`` over ``box`` of the golden
    activation ``base``; the campaign hands patch and box to
    :meth:`~repro.nn.network.Network.forward_from_batch` as they are.
    :attr:`act` builds the whole corrupted activation on request, for
    :func:`finish_injection` and for tests.

    Attributes:
        resume_index: Layer index execution must resume from.
        masked: True when the flip changed no architecturally visible
            value; no propagation is needed.
        value_before: Victim value before corruption.
        value_after: Victim value after corruption.
        patch: Corrupted values of the input to ``layers[resume_index]``
            over ``box``; the whole corrupted input when ``box`` is
            ``None`` (FC-stage faults, whole-layer weight faults, where
            the corruption may be anywhere).  ``None`` when masked.
        box: Half-open rows and columns ``(r0, r1, c0, c1)`` of the
            fmap confining the corruption, or ``None``.
        base: With a box, the golden input to ``layers[resume_index]``
            that the patch sits over (a reference, never written).
    """

    resume_index: int
    masked: bool
    value_before: float
    value_after: float
    patch: np.ndarray | None = None
    box: Box | None = None
    base: np.ndarray | None = None

    @property
    def act(self) -> np.ndarray | None:
        """Corrupted input to ``layers[resume_index]`` (``None`` when
        masked); a new array on each access for a confined corruption."""
        if self.box is None:
            return self.patch
        return paste_patch(self.base, self.patch, self.box)


def _pixel_patch(
    fmap: np.ndarray, index: tuple[int, int, int], value: float
) -> tuple[np.ndarray, Box]:
    """The one-pixel patch of ``fmap`` with ``fmap[index]`` set to ``value``."""
    c, y, x = index
    patch = fmap[:, y : y + 1, x : x + 1].copy()
    patch[c, 0, 0] = value
    return patch, (y, y + 1, x, x + 1)


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
    act = prep.act
    assert act is not None
    res = network.forward_from(
        prep.resume_index, act, dtype=dtype, record=record, storage_dtype=storage_dtype
    )
    return InjectionResult(
        scores=res.scores,
        masked=False,
        value_before=prep.value_before,
        value_after=prep.value_after,
        resume_index=prep.resume_index,
        faulty_activations=res.activations,
    )


def replay_datapath(
    network: Network,
    dtype: DataType,
    faults: Sequence[DatapathFault],
    goldens: Sequence[InferenceResult],
) -> list[tuple[float, float]]:
    """Replay the chains of many datapath faults on one MAC layer at once.

    Fault ``i`` hits a chain over the layer input that ``goldens[i]``
    recorded.  Every chain is gathered, multiplied and accumulated clean
    in one pass.  An upset read at MAC step k leaves every earlier
    partial sum intact (the paper's Figure 1b), so each faulty chain
    restarts from a clean running sum and replays only the later steps:

    - ``weight_operand`` / ``input_operand`` / ``product``: from the sum
      entering step k, adding the faulty product, then steps k+1 on;
    - ``psum``: from the flipped sum entering step k, then steps k on;
    - ``accumulator``: from the flipped sum leaving step k, then steps
      k+1 on.

    The suffixes differ in length, so they are left-aligned, accumulated
    in one more pass and read each at its own last column (padding
    after a chain's end never reaches its result).

    Returns:
        Each fault's ``(clean, faulty)`` chain result, bit-identical to
        :func:`replay_chain` without and with the fault.
    """
    li = faults[0].layer_index
    layer = network.layers[li]
    if not isinstance(layer, MacLayer):
        raise TypeError(f"layer {li} is not a MAC layer")
    if any(f.layer_index != li for f in faults):
        raise ValueError("replay_datapath takes faults on one MAC layer")
    length = layer.chain_length(network.shapes[li])
    step = np.array([f.step for f in faults])
    if np.any(step >= length):
        raise ValueError(f"fault step outside chain of length {length}")
    n = len(faults)
    out_index = np.array([f.out_index for f in faults])
    by_input: dict[int, list[int]] = {}
    for i, golden in enumerate(goldens):
        by_input.setdefault(id(golden), []).append(i)
    gathered = [
        (members, layer.mac_operand_rows(goldens[members[0]].activations[li],
                                         out_index[members], dtype))
        for members in by_input.values()
    ]
    weights, inputs, bias = gathered[0][1]
    if len(gathered) > 1:
        weights, inputs, bias = np.empty((n, length)), np.empty((n, length)), np.empty(n)
        for members, (w, a, b) in gathered:
            weights[members], inputs[members], bias[members] = w, a, b
    products = dtype.multiply(weights, inputs)
    # running[:, k] is the partial sum entering step k; the last column
    # is the chain's result.
    running = dtype.partials(np.concatenate((bias[:, None], products), axis=1))

    kind = np.array([DATAPATH_LATCHES.index(f.latch) for f in faults])
    on_w, on_a, on_p, on_psum, on_acc = kind == np.arange(len(DATAPATH_LATCHES))[:, None]
    bit = np.array([f.bit for f in faults])
    burst = np.array([f.burst for f in faults])

    def flip(values: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """``values`` with the rows ``sel`` picks flipped at their faults' bits."""
        if sel.any():
            values[sel] = dtype.flip_bits(values[sel], bit[sel], burst[sel])
        return values

    rows = np.arange(n)
    first = step + on_acc  # the first product a suffix adds
    suffix = _suffixes(flip(flip(running[rows, first], on_psum), on_acc), products, first)
    # An operand or product fault's suffix starts with its faulty product.
    if on_p.any():
        suffix[on_p, 1] = flip(products[rows, step], on_p)[on_p]
    on_operand = on_w | on_a
    if on_operand.any():
        bad = dtype.multiply(flip(weights[rows, step], on_w), flip(inputs[rows, step], on_a))
        suffix[on_operand, 1] = bad[on_operand]
    faulty = dtype.partials(suffix)[rows, length - first]
    return list(zip(running[:, -1].tolist(), faulty.tolist()))


def _suffixes(start: np.ndarray, products: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Chains ``[start, products[..., first], products[..., first + 1], ...]``.

    ``first`` broadcasts against ``start``.  The chains differ in length,
    so they are left-aligned and zero-padded after their ends; each must
    be read at its own end, column ``products.shape[-1] - first``.
    """
    length = products.shape[-1]
    cols = first[..., None] + np.arange((length - first).max())
    gathered = np.take_along_axis(products, np.minimum(cols, length - 1), axis=-1)
    suffix = np.empty(start.shape + (1 + cols.shape[-1],), dtype=products.dtype)
    suffix[..., 0] = start
    suffix[..., 1:] = np.where(cols < length, gathered, 0)
    return suffix


def prepare_datapath(
    network: Network,
    dtype: DataType,
    fault: DatapathFault,
    golden: InferenceResult,
    storage_dtype: DataType | None = None,
    replayed: tuple[float, float] | None = None,
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
        replayed: The fault's ``(clean, faulty)`` chain results from a
            :func:`replay_datapath` call the caller made for a whole
            slice; when None, a batch of one is replayed here.  Masking,
            narrowing and the patch are decided per trial either way.
    """
    with span("inject_datapath"):
        if replayed is None:
            (replayed,) = replay_datapath(network, dtype, [fault], [golden])
        clean, faulty = replayed
        li = fault.layer_index
        if storage_dtype is not None and li in network.block_output_indices():
            # The corrupted MAC result is immediately narrowed for storage.
            clean = float(storage_dtype.quantize(np.array([clean]))[0])
            faulty = float(storage_dtype.quantize(np.array([faulty]))[0])
        if faulty == clean or (np.isnan(faulty) and np.isnan(clean)):
            return PreparedInjection(li + 1, True, clean, clean)
        out = golden.activations[li + 1]
        if len(fault.out_index) == 3:
            patch, box = _pixel_patch(out, fault.out_index, faulty)
            return PreparedInjection(li + 1, False, clean, faulty, patch, box, out)
        act = out.copy()  # FC output: no spatial locality to exploit
        act[fault.out_index] = faulty
    return PreparedInjection(li + 1, False, clean, faulty, act)


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
    value = dtype.quantize(np.array([after]))[0]
    if len(fault.victim) == 3:
        patch, box = _pixel_patch(x, fault.victim, value)
        return PreparedInjection(fault.layer_index, False, before, after, patch, box, x)
    act = x.copy()  # an FC input: no spatial locality to exploit
    act[fault.victim] = value
    return PreparedInjection(fault.layer_index, False, before, after, act)


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
    (filter, column) chains.  The corrupt chains differ only at the
    victim's tap, which each affected window reads exactly once, so they
    share the clean chains' running sums up to it: one accumulate pass
    replays the clean chains and one more the corrupt suffixes.
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
    n_taps = w.shape[1]
    # Native products: an IEEE chain then runs multiply to accumulate in
    # its own dtype, with no float64 round trip over the whole array.
    prods = dtype.multiply(w[:, None, :], taps[None, :, :], native=True)
    # Column ``ox`` reads the victim at tap c*k*k + dy*k + (xx - (ox*s - p)).
    tap = c * k * k + dy * k + xx_pos - (cols * layer.stride - layer.pad)
    bad = dtype.multiply(w[:, tap], dtype.quantize(np.array([after])), native=True)
    # Chain (f, j) is output (f, oy, lo + j); running[f, j, t] is its
    # partial sum entering tap t, and the last column its result.
    bias = np.broadcast_to(b[:, None, None], (len(w), cols.size, 1)).astype(prods.dtype)
    running = dtype.partials(np.concatenate((bias, prods), axis=-1), native=True)
    # Each faulty chain restarts from the clean sum entering its victim
    # tap, adds the corrupt product and then the taps after it.
    j = np.arange(cols.size)
    suffix = _suffixes(running[:, j, tap], prods, tap[None, :])
    suffix[..., 1] = bad
    v_bad = dtype.partials(suffix, native=True)[:, j, n_taps - tap].astype(np.float64)
    v_ok = running[..., -1].astype(np.float64)
    if storage_dtype is not None and fault.layer_index in network.block_output_indices():
        v_bad = storage_dtype.quantize(v_bad)
        v_ok = storage_dtype.quantize(v_ok)
    with np.errstate(invalid="ignore"):
        differs = (v_bad != v_ok) & ~(np.isnan(v_bad) & np.isnan(v_ok))
    if not differs.any():
        return PreparedInjection(fault.layer_index + 1, True, before, before)
    out = golden.activations[fault.layer_index + 1]
    patch = out[:, oy : oy + 1, lo:hi].copy()
    np.copyto(patch[:, 0], v_bad, where=differs)
    return PreparedInjection(
        fault.layer_index + 1, False, before, after, patch, (oy, oy + 1, lo, hi), out
    )


def _prepare_single_read(
    network: Network,
    dtype: DataType,
    fault: BufferFault,
    golden: InferenceResult,
    storage_dtype: DataType | None,
) -> PreparedInjection:
    """PSum-REG fault: identical semantics to a datapath psum latch."""
    return prepare_datapath(network, dtype, fault.as_psum(), golden, storage_dtype)


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
