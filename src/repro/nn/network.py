"""Sequential network container with partial re-execution support.

The fault injector needs two things beyond plain inference:

- the activation entering every layer (to rebuild a single MAC operand
  chain), and
- resuming execution at layer *i* with a corrupted activation, so one
  injection costs a partial forward pass rather than a full one.

Both are provided here, by one layer loop: :meth:`Network.forward_from_batch`
resumes B activations at once, each at its own layer, ``forward_from``
is a batch of one, and ``forward`` quantizes the input and resumes at
layer 0.  Given golden traces, the loop delta-propagates: through the
spatially local layers (conv, ReLU, max-pool, LRN) a trial is a box
``(r0, r1, c0, c1)`` plus a patch of its values there, read over the
golden activation; each layer recomputes only the box its corruption
can reach, and a trial whose corruption is masked takes its golden
results from there on.  A trial's full activation is built
(:func:`paste_patch`) only where one is needed: when it reaches a layer
that mixes positions (flatten, FC, GAP), at the network's end, or for
the activation trace of a recording call.  All four paper networks are
sequential stacks, so no general DAG machinery is required.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dtypes.base import DataType
from repro.nn.im2col import paste_window
from repro.nn.layers.base import Box, Layer, MacLayer, Shape
from repro.obs.spans import span

__all__ = ["Network", "InferenceResult", "BatchInferenceResult", "paste_patch"]

#: Layer kinds the delta-propagation engine can recompute partially; any
#: other kind (flatten, fc, gap, softmax) mixes all spatial positions, so
#: a trial reaching one is recomputed in full from there on.
_DELTA_KINDS = frozenset({"conv", "relu", "pool", "lrn"})


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit float64 array equality.

    Value comparison (``==``) is the wrong test for "is this patch the
    golden patch": ``-0.0 == 0.0`` yet the sign bit survives downstream
    sums, and ``NaN != NaN`` yet an identical NaN payload propagates
    identically through our deterministic arithmetic.  Comparing the raw
    bit patterns gives exactly the guarantee delta propagation needs:
    substituting one array for the other cannot change any later bit.
    Both arrays are float64 of one shape, so their C-order bytes are
    their bit patterns (and ``bytes`` equality beats a ufunc on the
    small boxes delta propagation compares).
    """
    return a.tobytes() == b.tobytes()


def paste_patch(
    base: np.ndarray, patch: np.ndarray, box: Box, out: np.ndarray | None = None
) -> np.ndarray:
    """``base`` with ``patch`` written over ``box``: a trial's full activation.

    The one place delta propagation and :class:`PreparedInjection
    <repro.core.injector.PreparedInjection>` build a confined trial's
    whole fmap.  Writes into ``out`` when given, else into a new array;
    ``base`` is never written.
    """
    return paste_window(np.empty_like(base) if out is None else out, base, patch, box, 0, 0)


def _per_pixel(layer: Layer, patches: list[np.ndarray], dtype: DataType | None) -> list[np.ndarray]:
    """``layer`` over each patch, in one call over their pixels side by side.

    For ReLU and LRN, whose outputs at a pixel read only that pixel's
    channel column: the patches' pixels are laid out along one axis of a
    ``(1, c, 1, pixels)`` stack, so the call computes exactly the boxes'
    elements, with the bits of a whole-fmap call.
    """
    c = patches[0].shape[0]
    flat = np.concatenate([p.reshape(c, -1) for p in patches], axis=1)
    y = layer.forward(flat[None, :, None, :], dtype)[0, :, 0]
    out, off = [], 0
    for p in patches:
        n = p.shape[1] * p.shape[2]
        out.append(y[:, off : off + n].reshape(p.shape))
        off += n
    return out


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
        """MACs per mac-layer index, for MAC-weighted fault-site sampling."""
        return {i: self.layers[i].mac_count(self.shapes[i]) for i in self.mac_layer_indices()}

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
        layer_index: int | Sequence[int],
        acts: list[np.ndarray],
        dtype: DataType | None = None,
        record: bool = False,
        storage_dtype: DataType | None = None,
        *,
        goldens: list[InferenceResult] | None = None,
        boxes: list[Box | None] | None = None,
    ) -> BatchInferenceResult:
        """Resume inference for B trials at once, each at its own layer.

        Bit-exactness contract: for every trial ``b``, trial ``b`` of
        ``forward_from_batch(layer_index, acts)`` is byte-identical to
        ``forward_from(layer_index[b], act)`` (a batch of one) with the
        same arguments, where ``act`` is the trial's full corrupted
        activation, with or without delta propagation.  This holds
        because every layer evaluates each sample with the exact
        arithmetic (GEMM call shapes, reduction orders, per-pixel path
        choices) whatever the batch and its resume layers — see the conv
        module docstring.

        One layer loop serves the whole batch: a trial joins it at its
        own resume layer, and each layer runs once over every trial
        still live.  Resume layers accept the same ``[0, len(layers)]``
        range as :meth:`forward_from`; the upper boundary echoes the
        trial's activation.

        Args:
            layer_index: Layer each trial resumes at: one per trial, or
                one ``int`` for all of them.
            acts: B corrupted activations; ``acts[b]`` has the shape of
                its resume layer's input, or, for a trial with a box,
                the box's shape.
            dtype: Datapath format (as in :meth:`forward`).
            record: Keep per-trial activation traces.
            storage_dtype: Proteus-style narrow format applied at block
                outputs (as in :meth:`forward`).
            goldens: Optional per-trial golden traces (recorded with the
                same ``dtype``/``storage_dtype``).  Enables *delta
                propagation*: through the spatially local layers, each
                trial is carried as a patch over its golden activation
                and recomputes only the output box its corruption can
                reach.
            boxes: With ``goldens``: per-trial input boxes ``(r0, r1, c0,
                c1)`` confining the corruption; ``acts[b]`` then holds
                only the values inside the box (the *patch*), and the
                golden input holds the rest.  ``None`` = anywhere:
                ``acts[b]`` is the whole activation, recomputed in full
                from its resume layer on.
        """
        if not acts:
            raise ValueError("forward_from_batch needs at least one activation")
        B = len(acts)
        resume = [int(layer_index)] * B if np.isscalar(layer_index) else list(layer_index)
        if len(resume) != B:
            raise ValueError("layer_index must give one resume layer per trial")
        box_of: list[Box | None] = [None] * B
        if goldens is not None and boxes is not None:
            if len(goldens) != B or len(boxes) != B:
                raise ValueError("goldens/boxes must have one entry per trial")
            for g in goldens:
                if len(g.activations) != len(self.layers) + 1:
                    raise ValueError("delta propagation needs fully recorded goldens")
            box_of = list(boxes)
        for r, act, box in zip(resume, acts, box_of):
            self._check_resume_index(r)
            self._check_patch(self.shapes[r], act, box)
        narrow = storage_dtype.quantize if storage_dtype is not None else None
        store_at = self.block_output_indices() if narrow is not None else frozenset()
        # cur[b]: trial b's values over box_of[b] (golden elsewhere), or
        # its whole activation when it has no box.
        cur = [np.asarray(a, dtype=np.float64) for a in acts]
        traces: list[list[np.ndarray]] = [[] for _ in range(B)] if record else []
        scores: list[np.ndarray | None] = [None] * B

        def retire(dead: list[int], i: int) -> None:
            # A trial whose corruption is masked is *dead*: its output of
            # layer i is golden, so every later layer would recompute
            # golden bits — take them from the recorded golden instead.
            for b in dead:
                scores[b] = goldens[b].scores  # type: ignore[index]
                if record:
                    traces[b].extend(goldens[b].activations[i + 1 :])  # type: ignore[index]

        def whole(b: int, i: int, out: np.ndarray | None = None) -> np.ndarray:
            """Live trial ``b``'s full input of layer ``i``."""
            return paste_patch(goldens[b].activations[i], cur[b], box_of[b], out)  # type: ignore

        joins: dict[int, list[int]] = {}
        for b, r in enumerate(resume):
            joins.setdefault(r, []).append(b)
        live: list[int] = []
        full_ids: list[int] = []  # fully recomputed trials, the rows of `full`
        full: np.ndarray | None = None
        end = len(self.layers)
        for i in range(min(resume), end + 1):
            entering = []
            for b in joins.get(i, ()):
                box = box_of[b]
                if box is None:
                    entering.append(b)
                    if record:
                        traces[b].append(cur[b])
                elif box[0] < box[1] and box[2] < box[3]:
                    live.append(b)
                    if record:
                        traces[b].append(whole(b, i))
                else:  # nothing corrupted: golden from its input on
                    if record:
                        traces[b].append(goldens[b].activations[i])  # type: ignore[index]
                    retire([b], i)
            if i < end and live and self.layers[i].kind not in _DELTA_KINDS:
                entering += live  # this layer mixes positions: finish them in full
                live = []
            if entering:
                stack = np.empty((len(entering), *self.shapes[i]))
                for pos, b in enumerate(entering):
                    if box_of[b] is None:
                        stack[pos] = cur[b]
                    else:
                        whole(b, i, stack[pos])
                full = stack if full is None else np.concatenate([full, stack])
                full_ids += entering
            if i == end:
                break
            layer = self.layers[i]
            # span() is a shared no-op unless timing is enabled, so this
            # per-layer hook stays out of the hot path's profile.
            with span(f"layer:{layer.name}"):
                if live:
                    live, dead = self._delta_layer(
                        i, live, cur, box_of, goldens, dtype, narrow if i in store_at else None
                    )
                    retire(dead, i)
                if full is not None:
                    full = layer.forward(full, dtype)
                    if i in store_at:
                        full = narrow(full)
            if record:
                for b in live:
                    traces[b].append(whole(b, i + 1))
                for pos, b in enumerate(full_ids):
                    traces[b].append(full[pos])
        for b in live:
            scores[b] = whole(b, end).reshape(-1)
        if full is not None:
            flat = full.reshape(len(full_ids), -1)
            for pos, b in enumerate(full_ids):
                scores[b] = flat[pos]
        return BatchInferenceResult(scores=np.stack(scores), activations=traces)

    @staticmethod
    def _check_patch(shape: Shape, act: np.ndarray, box: Box | None) -> None:
        """``act`` must be a whole activation of ``shape``, or the patch
        over ``box``, a box inside a ``(c, h, w)`` fmap."""
        if box is not None:
            r0, r1, c0, c1 = box
            if len(shape) != 3 or not (0 <= r0 <= r1 <= shape[1] and 0 <= c0 <= c1 <= shape[2]):
                raise ValueError(f"box {box} outside activation {shape}")
            shape = (shape[0], r1 - r0, c1 - c0)
        if tuple(act.shape) != shape:
            raise ValueError(f"expected activation {shape}, got {tuple(act.shape)}")

    def _delta_layer(
        self,
        i: int,
        live: list[int],
        cur: list[np.ndarray],
        box_of: list[Box | None],
        goldens: list[InferenceResult],
        dtype: DataType | None,
        narrow: Callable[[np.ndarray], np.ndarray] | None,
    ) -> tuple[list[int], list[int]]:
        """Delta-propagate the live trials through spatially local layer ``i``.

        Each trial recomputes only its own output box (``box_of[b]``
        becomes it, and ``cur[b]`` the trial's values there), in one
        call for all of them: conv in its canonical
        row tiles, batched tile by tile, with each tile's input band
        built from golden rows plus the patch
        (``Conv2D.forward_rows_batch``); max-pool over exactly the
        boxes' windows (``MaxPool2D.forward_rows``); ReLU and LRN over
        the patches' pixels side by side (``forward``).

        After each recomputation the new patch is compared bit-for-bit
        against the golden box: when a corruption is architecturally
        masked mid-flight (ReLU clips a negative delta, pooling drops a
        non-max delta, quantization rounds a tiny delta away — the
        paper's section 5 masking mechanisms), the trial is dead and all
        remaining work for it disappears.  A full recompute would
        produce exactly those golden bits, so skipping them is
        observationally identical.  Goldens are never written, and no
        trial's whole fmap is built here.

        Returns ``(live, dead)``: the trials still corrupted after layer
        ``i``, and those whose output of layer ``i`` is golden.
        """
        layer = self.layers[i]
        todo: list[int] = []
        dead: list[int] = []
        out_boxes: list[Box] = []
        for b in live:
            box = layer.out_box(self.shapes[i], box_of[b])
            # A strided pool sweep can skip every dirty row or column.
            if box[0] < box[1] and box[2] < box[3]:
                todo.append(b)
                out_boxes.append(box)
            else:
                dead.append(b)
        if not todo:
            return todo, dead
        if layer.kind in ("conv", "pool"):
            run = layer.forward_rows_batch if layer.kind == "conv" else layer.forward_rows
            ys = run(
                [goldens[b].activations[i] for b in todo], dtype, out_boxes,
                [cur[b] for b in todo], [box_of[b] for b in todo],
            )
        else:  # relu / lrn: per pixel, so a box maps onto itself
            ys = _per_pixel(layer, [cur[b] for b in todo], dtype)
        survivors = []
        for b, box, y in zip(todo, out_boxes, ys):
            if narrow is not None:
                y = narrow(y)
            r0, r1, c0, c1 = box
            if _bits_equal(y, goldens[b].activations[i + 1][:, r0:r1, c0:c1]):
                dead.append(b)
            else:
                cur[b] = y
                box_of[b] = box
                survivors.append(b)
        return survivors, dead

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
