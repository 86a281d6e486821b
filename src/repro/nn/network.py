"""Sequential network container with partial re-execution support.

The fault injector needs two things beyond plain inference:

- the activation entering every layer (to rebuild a single MAC operand
  chain), and
- resuming execution at layer *i* with a corrupted activation, so one
  injection costs a partial forward pass rather than a full one.

Both are provided here, by one layer loop: :meth:`Network.forward_from_batch`
resumes B activations at once (delta-propagating each trial's dirty rows
when given golden traces), ``forward_from`` is a batch of one, and
``forward`` quantizes the input and resumes at layer 0.  All four paper
networks are sequential stacks, so no general DAG machinery is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.layers.base import Layer, MacLayer, Shape
from repro.obs.spans import span

__all__ = ["Network", "InferenceResult", "BatchInferenceResult"]

#: Layer kinds the delta-propagation engine can recompute partially; any
#: other kind (flatten, fc, gap, softmax) mixes all spatial positions and
#: switches the batch to full vectorized execution.
_DELTA_KINDS = frozenset({"conv", "relu", "pool", "lrn"})


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit float64 array equality.

    Value comparison (``==``) is the wrong test for "is this patch the
    golden patch": ``-0.0 == 0.0`` yet the sign bit survives downstream
    sums, and ``NaN != NaN`` yet an identical NaN payload propagates
    identically through our deterministic arithmetic.  Comparing the raw
    bit patterns gives exactly the guarantee delta propagation needs:
    substituting one array for the other cannot change any later bit.
    """
    return bool((a.view(np.uint64) == b.view(np.uint64)).all())


@dataclass
class InferenceResult:
    """Outcome of one inference.

    Attributes:
        scores: Final output vector (confidence scores when the network
            ends in softmax, raw class scores otherwise).
        activations: ``activations[i]`` is the (unbatched, quantized)
            input of layer ``i``; ``activations[-1]`` is the final output.
            Empty if recording was disabled.
    """

    scores: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)

    def top1(self) -> int:
        """Index of the top-ranked output candidate."""
        return int(np.argmax(self.scores))

    def topk(self, k: int) -> np.ndarray:
        """Indices of the top-``k`` candidates, best first.

        Ranking matches :meth:`top1` (``np.argmax``) exactly: ties order
        by lowest index and NaN scores rank ahead of everything (a NaN
        output wins every ``argmax`` comparison), so ``topk(1)[0] ==
        top1()`` holds for every score vector.  The previous
        reversed-stable-argsort implementation broke ties toward the
        *highest* index, silently disagreeing with ``top1`` on tied
        scores.
        """
        s = np.asarray(self.scores, dtype=np.float64)
        nan = np.isnan(s)
        # lexsort: primary key last.  Non-NaN entries sort by descending
        # score; stability breaks ties by ascending index.
        order = np.lexsort((np.where(nan, 0.0, -s), ~nan))
        return order[:k]


@dataclass
class BatchInferenceResult:
    """Outcome of propagating a stack of B corrupted activations.

    Attributes:
        scores: ``(B, n_out)`` final output vectors, one row per trial.
        activations: Per-trial activation traces (same layout as
            :attr:`InferenceResult.activations`); empty when recording
            was disabled.
    """

    scores: np.ndarray
    activations: list[list[np.ndarray]] = field(default_factory=list)

    def result(self, b: int) -> InferenceResult:
        """Extract trial ``b`` as a plain :class:`InferenceResult`."""
        return InferenceResult(
            scores=self.scores[b],
            activations=self.activations[b] if self.activations else [],
        )


class Network:
    """A sequential DNN.

    Args:
        name: Network name (e.g. ``"AlexNet"``).
        layers: Layer stack, input to output.
        input_shape: Unbatched input fmap shape ``(c, h, w)``.
        dataset: Name of the associated dataset (Table 2 bookkeeping).
        has_confidence: True when the output is a confidence distribution
            (softmax present); NiN sets this False, which disables the
            SDC-10%/-20% outcome classes.
    """

    def __init__(
        self,
        name: str,
        layers: list[Layer],
        input_shape: Shape,
        dataset: str = "synthetic",
        has_confidence: bool = True,
    ):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.name = name
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.dataset = dataset
        self.has_confidence = has_confidence
        self._assign_blocks()
        self.shapes = self._infer_shapes()

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def _assign_blocks(self) -> None:
        """Assign the paper-style block index (CONV/FC position) to layers.

        Each MAC layer starts a new block; the ReLU/POOL/LRN layers that
        follow belong to the same block.  Pre-MAC layers (none in our
        networks) would keep block None.
        """
        block = 0
        for layer in self.layers:
            if isinstance(layer, MacLayer):
                block += 1
            layer.block = block if block > 0 else None

    def _infer_shapes(self) -> list[Shape]:
        """Per-layer input shapes; ``shapes[i]`` feeds ``layers[i]``."""
        shapes = [self.input_shape]
        for layer in self.layers:
            shapes.append(layer.out_shape(shapes[-1]))
        return shapes

    @property
    def n_blocks(self) -> int:
        """Number of paper-level layers (CONV + FC blocks)."""
        return max((l.block or 0) for l in self.layers)

    @property
    def out_candidates(self) -> int:
        """Number of output candidates (classes)."""
        return int(np.prod(self.shapes[-1]))

    def mac_layer_indices(self) -> list[int]:
        """Indices of layers with datapath fault sites (conv/fc)."""
        return [i for i, l in enumerate(self.layers) if isinstance(l, MacLayer)]

    def mac_counts(self) -> dict[int, int]:
        """MACs per mac-layer index, for MAC-weighted fault-site sampling.

        Cached: the counts depend only on the (immutable) topology, and
        fault sampling asks for them once per trial.
        """
        cached = getattr(self, "_mac_counts", None)
        if cached is None:
            cached = self._mac_counts = {
                i: self.layers[i].mac_count(self.shapes[i])
                for i in self.mac_layer_indices()
            }
        return dict(cached)

    def total_macs(self) -> int:
        """Total MAC operations per inference."""
        return sum(self.mac_counts().values())

    def param_count(self) -> int:
        """Total scalar parameters."""
        return sum(l.param_count() for l in self.layers)

    def layer_named(self, name: str) -> Layer:
        """Look up a layer by name."""
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(f"{self.name} has no layer named {name!r}")

    def blocks(self) -> dict[int, list[int]]:
        """Map block index -> layer indices in that block."""
        out: dict[int, list[int]] = {}
        for i, l in enumerate(self.layers):
            if l.block is not None:
                out.setdefault(l.block, []).append(i)
        return out

    def block_kinds(self) -> dict[int, str]:
        """Map block index -> 'CONV' or 'FC' (kind of its MAC layer)."""
        kinds: dict[int, str] = {}
        for i in self.mac_layer_indices():
            layer = self.layers[i]
            assert layer.block is not None
            kinds[layer.block] = "CONV" if layer.kind == "conv" else "FC"
        return kinds

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def prepare(self, dtype: DataType | None) -> None:
        """Warm the per-format quantized weight caches."""
        for i in self.mac_layer_indices():
            self.layers[i].quantized_weights(dtype)

    def block_output_indices(self) -> frozenset[int]:
        """Layer indices whose outputs are written to the global buffer
        (each block's final layer, excluding a terminal softmax)."""
        last: dict[int, int] = {}
        for i, layer in enumerate(self.layers):
            if layer.block is not None and layer.kind != "softmax":
                last[layer.block] = i
        return frozenset(last.values())

    def invalidate_weight_caches(self) -> None:
        """Drop all quantized-weight caches after mutating parameters."""
        for i in self.mac_layer_indices():
            self.layers[i].invalidate_weight_cache()

    def forward(
        self,
        x: np.ndarray,
        dtype: DataType | None = None,
        record: bool = True,
        storage_dtype: DataType | None = None,
    ) -> InferenceResult:
        """Run a full inference on one unbatched input.

        Quantizes ``x`` into the datapath (and, with ``storage_dtype``,
        storage) format and resumes at layer 0.

        Args:
            x: Input fmap of shape ``input_shape``.
            dtype: Numeric format for weights/activations (None = float64).
            record: Keep every intermediate activation (needed for fault
                injection and profiling; disable for plain classification).
            storage_dtype: Optional *shorter* format applied to every
                block output — the Proteus-style reduced-precision buffer
                protocol of paper section 6.1, where fmaps are stored in
                memory in a narrow representation and unfolded into the
                (wider) datapath format for computation.
        """
        if tuple(x.shape) != self.input_shape:
            raise ValueError(f"expected input {self.input_shape}, got {tuple(x.shape)}")
        act = dtype.quantize(x) if dtype is not None else np.asarray(x, dtype=np.float64)
        if storage_dtype is not None:
            act = storage_dtype.quantize(act)
        return self.forward_from(0, act, dtype, record, storage_dtype)

    def forward_from(
        self,
        layer_index: int,
        act: np.ndarray,
        dtype: DataType | None = None,
        record: bool = False,
        storage_dtype: DataType | None = None,
    ) -> InferenceResult:
        """Resume inference at ``layers[layer_index]`` with input ``act``.

        ``act`` must have shape ``shapes[layer_index]`` and be already
        quantized (a corrupted golden activation qualifies: flipping a bit
        keeps a value representable).

        ``layer_index`` may be any value in ``[0, len(layers)]``
        inclusive: the upper boundary runs zero layers and echoes ``act``
        back as the scores — the natural semantics for a fault landing in
        the final output buffer.  Anything outside that range raises
        ``IndexError``.

        A batch of one: row 0 of :meth:`forward_from_batch`.
        """
        return self.forward_from_batch(layer_index, [act], dtype, record, storage_dtype).result(0)

    def _check_resume_index(self, layer_index: int) -> None:
        if not 0 <= layer_index <= len(self.layers):
            raise IndexError(
                f"layer index {layer_index} outside [0, {len(self.layers)}] "
                f"(== len(layers) resumes past the last layer and echoes the input)"
            )

    def forward_from_batch(
        self,
        layer_index: int,
        acts: list[np.ndarray],
        dtype: DataType | None = None,
        record: bool = False,
        storage_dtype: DataType | None = None,
        *,
        goldens: list[InferenceResult] | None = None,
        dirty_rows: list[tuple[int, int] | None] | None = None,
    ) -> BatchInferenceResult:
        """Resume inference at ``layers[layer_index]`` for B trials at once.

        Bit-exactness contract: for every trial ``b``,
        ``forward_from_batch(i, acts)[b]`` is byte-identical to
        ``forward_from(i, acts[b])`` (a batch of one) with the same
        arguments, with or without delta propagation.  This holds
        because every layer evaluates each sample with the exact
        arithmetic (GEMM call shapes, reduction orders, per-pixel path
        choices) whatever the batch size — see the conv module docstring.

        ``layer_index`` accepts the same ``[0, len(layers)]`` range as
        :meth:`forward_from`; the upper boundary echoes each ``acts[b]``.

        Args:
            layer_index: Layer to resume at.
            acts: B corrupted activations, each of ``shapes[layer_index]``.
            dtype: Datapath format (as in :meth:`forward`).
            record: Keep per-trial activation traces.
            storage_dtype: Proteus-style narrow format applied at block
                outputs (as in :meth:`forward`).
            goldens: Optional per-trial golden traces (recorded with the
                same ``dtype``/``storage_dtype``).  Enables *delta
                propagation*: each layer recomputes only the output rows
                a trial's corruption can reach, patching them into a copy
                of the golden activation.
            dirty_rows: With ``goldens``: per-trial half-open input row
                spans ``(r0, r1)`` confining the corruption in ``acts[b]``
                (``None`` = anywhere, forces full recompute for that
                trial).
        """
        self._check_resume_index(layer_index)
        if not acts:
            raise ValueError("forward_from_batch needs at least one activation")
        for act in acts:
            if tuple(act.shape) != self.shapes[layer_index]:
                raise ValueError(
                    f"expected activation {self.shapes[layer_index]}, got {tuple(act.shape)}"
                )
        B = len(acts)
        store_at = self.block_output_indices() if storage_dtype is not None else frozenset()
        cur = [np.asarray(a, dtype=np.float64) for a in acts]
        traces: list[list[np.ndarray]] = [[c] for c in cur] if record else []
        start = layer_index
        if goldens is not None and dirty_rows is not None:
            if len(goldens) != B or len(dirty_rows) != B:
                raise ValueError("goldens/dirty_rows must have one entry per trial")
            for g in goldens:
                if len(g.activations) != len(self.layers) + 1:
                    raise ValueError("delta propagation needs fully recorded goldens")
            cur, start, end_spans = self._delta_layers(
                layer_index, cur, list(dirty_rows), dtype, storage_dtype, store_at, goldens, traces
            )
            # A trial whose span collapsed to empty is *dead*: its
            # activation is (a reference to) its golden, so every
            # remaining layer would recompute golden bits — take them
            # from the recorded golden instead of recomputing.
            dead = [
                b
                for b in range(B)
                if end_spans[b] is not None and end_spans[b][0] >= end_spans[b][1]
            ]
        else:
            dead = []
        alive = [b for b in range(B) if b not in dead]
        scores: list[np.ndarray | None] = [None] * B
        for b in dead:
            scores[b] = goldens[b].scores  # type: ignore[index]
            if record:
                traces[b].extend(goldens[b].activations[start + 1 :])  # type: ignore[index]
        if alive:
            batched = np.stack([cur[b] for b in alive])
            for i, layer in enumerate(self.layers[start:], start=start):
                # span() is a shared no-op unless timing is enabled, so this
                # per-layer hook stays out of the hot path's profile.
                with span(f"layer:{layer.name}"):
                    batched = layer.forward(batched, dtype)
                if i in store_at:
                    batched = storage_dtype.quantize(batched)
                if record:
                    for pos, b in enumerate(alive):
                        traces[b].append(batched[pos])
            flat = batched.reshape(len(alive), -1)
            for pos, b in enumerate(alive):
                scores[b] = flat[pos]
        return BatchInferenceResult(scores=np.stack(scores), activations=traces)

    def _delta_layers(
        self,
        layer_index: int,
        cur: list[np.ndarray],
        spans: list[tuple[int, int] | None],
        dtype: DataType | None,
        storage_dtype: DataType | None,
        store_at: frozenset[int],
        goldens: list[InferenceResult],
        traces: list[list[np.ndarray]],
    ) -> tuple[list[np.ndarray], int, list[tuple[int, int] | None]]:
        """Delta-propagate through the spatially local prefix.

        Walks layers starting at ``layer_index`` while every layer kind
        supports row-local recomputation and at least one trial still has
        a confined span; returns ``(activations, next_layer_index,
        spans)`` for the caller's full-batch loop to finish.  A trial
        whose span is ``None`` is fully recomputed each layer; a trial
        whose span is empty is passed through as (a reference to) its
        golden — the engine never writes into those, so goldens are
        never mutated.

        After each recomputation the patch is compared bit-for-bit
        against the golden rows: when a corruption is architecturally
        masked mid-flight (ReLU clips a negative delta, pooling drops a
        non-max delta, quantization rounds a tiny delta away — the
        paper's section 5 masking mechanisms), the trial's span
        collapses to empty and all remaining work for it disappears.
        A full recompute would produce exactly those golden bits, so
        skipping them is observationally identical.
        """
        B = len(cur)
        narrow = storage_dtype.quantize if storage_dtype is not None else None
        for i, layer in enumerate(self.layers[layer_index:], start=layer_index):
            if (
                layer.kind not in _DELTA_KINDS
                or all(s is None for s in spans)
                or all(s is not None and s[0] >= s[1] for s in spans)
            ):
                return cur, i, spans
            in_shape = self.shapes[i]
            golden_next = [g.activations[i + 1] for g in goldens]
            out: list[np.ndarray] = [None] * B  # type: ignore[list-item]
            new_spans: list[tuple[int, int] | None] = [None] * B
            full = []  # trials with unconfined corruption: recompute whole fmap
            for b in range(B):
                s = spans[b]
                if s is None:
                    full.append(b)
                elif s[0] >= s[1]:
                    new_spans[b] = (0, 0)
                    out[b] = golden_next[b]
                else:
                    new_spans[b] = layer.out_row_span(in_shape, s)
            with span(f"layer:{layer.name}"):
                if full:
                    # One stacked pass for the unconfined trials; per-sample
                    # GEMM slices keep each trial's bits identical to a solo
                    # forward (see the conv module docstring).
                    y = layer.forward(np.stack([cur[b] for b in full]), dtype)
                    if i in store_at:
                        y = narrow(y)
                    for pos, b in enumerate(full):
                        out[b] = y[pos]
                sel = [b for b in range(B) if out[b] is None]
                live = [b for b in sel if new_spans[b][0] < new_spans[b][1]]
                for b in sel:
                    if b not in live:
                        out[b] = golden_next[b]
                if live and layer.kind == "conv":
                    # Tile-batched: each trial recomputes only its own
                    # aligned span, with the per-tile GEMMs grouped across
                    # the trials that need them (see forward_rows_batch).
                    patches = layer.forward_rows_batch(
                        np.stack([cur[b] for b in live]),
                        dtype,
                        [new_spans[b] for b in live],
                    )
                    for b, (y, a0, a1) in zip(live, patches):
                        y = narrow(y) if i in store_at else y
                        if _bits_equal(y, golden_next[b][:, a0:a1]):
                            out[b] = golden_next[b]
                            new_spans[b] = (0, 0)
                        else:
                            dst = golden_next[b].copy()
                            dst[:, a0:a1] = y
                            out[b] = dst
                elif live:
                    # Recompute the union of the live trials' output spans
                    # in one stacked call (pool is exact on arbitrary row
                    # subsets; relu/lrn never mix spatial positions).  Rows
                    # inside the union but outside a trial's own span read
                    # only clean (golden-equal) input, so their recomputed
                    # bits equal the golden bits and patching the whole
                    # union into each trial is value-identical to patching
                    # that trial's own rows alone.
                    u0 = min(new_spans[b][0] for b in live)
                    u1 = max(new_spans[b][1] for b in live)
                    if layer.kind == "pool":
                        y, u0, u1 = layer.forward_rows(
                            np.stack([cur[b] for b in live]), dtype, u0, u1
                        )
                    else:  # relu / lrn: elementwise / per-pixel on row slices
                        y = layer.forward(
                            np.stack([cur[b][:, u0:u1] for b in live]), dtype
                        )
                    if i in store_at:
                        y = narrow(y)
                    for pos, b in enumerate(live):
                        if _bits_equal(y[pos], golden_next[b][:, u0:u1]):
                            out[b] = golden_next[b]
                            new_spans[b] = (0, 0)
                        else:
                            dst = golden_next[b].copy()
                            dst[:, u0:u1] = y[pos]
                            out[b] = dst
            cur = out
            spans = new_spans
            if traces:
                for b in range(B):
                    traces[b].append(cur[b])
        return cur, len(self.layers), spans

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Table-2-style description row."""
        kinds = self.block_kinds()
        n_conv = sum(1 for k in kinds.values() if k == "CONV")
        n_fc = sum(1 for k in kinds.values() if k == "FC")
        has_lrn = any(l.kind == "lrn" for l in self.layers)
        topo = f"{n_conv} CONV" + (" (with LRN)" if has_lrn else "")
        if n_fc:
            topo += f" + {n_fc} FC"
        return {
            "network": self.name,
            "dataset": self.dataset,
            "output_candidates": self.out_candidates,
            "topology": topo,
            "params": self.param_count(),
            "macs": self.total_macs(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Network {self.name}: {len(self.layers)} layers, {self.n_blocks} blocks>"
