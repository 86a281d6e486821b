"""Fault-site descriptors and random fault sampling.

The paper's fault model (section 4.3): transient single-event upsets —
one bit flip per inference run — in either the datapath latches of a PE
or a buffer entry.  Combinational logic, control logic and host/CPU/DRAM
faults are out of scope.

Sampling follows the paper's methodology: the fault lands on a random bit
of a random latch/buffer entry at a random point of the execution, which
translates to: MAC layer chosen proportionally to its share of MAC
operations (for datapath and psum faults) or of resident data (for
buffer faults), victim element uniform within the layer, MAC step
uniform along the accumulation chain, bit uniform across the data width.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.accel.buffers import FAULT_SCOPES
from repro.accel.occupancy import OccupancyModel
from repro.dtypes.base import DataType
from repro.nn.im2col import window_out_span
from repro.nn.layers import Conv2D
from repro.nn.network import Network

__all__ = [
    "DatapathFault",
    "BufferFault",
    "DATAPATH_LATCHES",
    "sample_datapath_fault",
    "sample_buffer_fault",
]

#: Latch classes of the canonical ALU (must match repro.accel.datapath).
DATAPATH_LATCHES = ("weight_operand", "input_operand", "product", "psum", "accumulator")


@dataclass(frozen=True)
class DatapathFault:
    """A single-bit upset in one PE latch, read by exactly one MAC step.

    Attributes:
        layer_index: Index of the victim MAC layer in ``network.layers``.
        out_index: Coordinate of the output element whose chain is hit.
        step: MAC step (0-based) at which the corrupted latch is read.
        latch: Latch class (one of :data:`DATAPATH_LATCHES`).
        bit: Lowest flipped bit position in the data word.
        burst: Number of adjacent bits flipped (1 = single-event upset,
            the paper's model; >1 models multi-cell upsets).
    """

    layer_index: int
    out_index: tuple[int, ...]
    step: int
    latch: str
    bit: int
    burst: int = 1

    def __post_init__(self) -> None:
        if self.latch not in DATAPATH_LATCHES:
            raise ValueError(f"unknown latch {self.latch!r}")
        if self.step < 0 or self.bit < 0:
            raise ValueError("step and bit must be non-negative")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


@dataclass(frozen=True)
class BufferFault:
    """A single-bit upset in a buffer entry, spread through data reuse.

    Attributes:
        scope: Fault-spread scope (see :mod:`repro.accel.buffers`):
            ``layer_weight`` / ``row_activation`` / ``next_layer`` /
            ``single_read``.
        layer_index: Consumer MAC layer index in ``network.layers``.
        victim: Scope-dependent victim coordinate —
            ``layer_weight``: index into the layer's weight tensor;
            ``row_activation`` / ``next_layer``: index into the layer's
            input fmap; ``single_read``: ``(out_index..., step)`` like a
            datapath psum fault.
        bit: Lowest flipped bit position in the data word.
        burst: Number of adjacent bits flipped (1 = single-event upset).
        residency_row: For ``row_activation``: the output row during
            whose computation the corrupted register is live.
    """

    scope: str
    layer_index: int
    victim: tuple[int, ...]
    bit: int
    burst: int = 1
    residency_row: int = -1

    def __post_init__(self) -> None:
        if self.scope not in FAULT_SCOPES:
            raise ValueError(f"unknown buffer fault scope {self.scope!r}")
        if self.bit < 0:
            raise ValueError("bit must be non-negative")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")

    def as_psum(self) -> DatapathFault:
        """A ``single_read`` fault as the datapath fault it is.

        A PSum REG entry is read once, by the adder of one MAC step, so
        its upset is a ``psum`` latch upset at that step.
        """
        if self.scope != "single_read":
            raise ValueError(f"a {self.scope} fault is not a psum read")
        *out_index, step = self.victim
        return DatapathFault(
            layer_index=self.layer_index,
            out_index=tuple(out_index),
            step=int(step),
            latch="psum",
            bit=self.bit,
            burst=self.burst,
        )


@dataclass(frozen=True)
class _Tables:
    """Sampling tables of one network, built once per network object.

    A weighted draw reads ``items[cdf.searchsorted(rng.random(),
    side="right")]``: the same uniform and the same comparison as
    ``rng.choice(items, p=w / w.sum())``, so every campaign's faults
    are the ones the per-trial weights gave.
    """

    #: MAC layer indices and the cdf of their MAC counts.
    mac_layers: tuple[int, ...]
    mac_cdf: np.ndarray
    #: MAC layer index -> (output shape, output elements, chain length).
    chains: dict[int, tuple[tuple[int, ...], int, int]]
    #: Buffer scope -> (candidate layers, cdf of their resident data).
    scopes: dict[str, tuple[tuple[int, ...], np.ndarray]]
    #: Buffer scope -> (occupancy model, usable layers, cdf of their
    #: exposures), for the model a campaign last drew with.
    occupancy: dict[str, tuple[OccupancyModel, tuple[int, ...], np.ndarray]] = field(
        default_factory=dict
    )


def _cdf(weights: list[float]) -> np.ndarray:
    """The cdf ``rng.choice`` builds from the probabilities ``w / w.sum()``."""
    w = np.asarray(weights, dtype=np.float64)
    if not w.size:
        return w
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, items: tuple[int, ...], cdf: np.ndarray) -> int:
    if not items:
        raise ValueError("no candidate layer to draw a fault site from")
    return items[int(cdf.searchsorted(rng.random(), side="right"))]


#: Network -> its tables.  A network's topology is fixed at construction.
_TABLES: weakref.WeakKeyDictionary[Network, _Tables] = weakref.WeakKeyDictionary()


def _tables(network: Network) -> _Tables:
    tables = _TABLES.get(network)
    if tables is not None:
        return tables
    macs = network.mac_counts()
    mac_idx = tuple(macs)
    chains = {}
    for li in mac_idx:
        layer, in_shape = network.layers[li], network.shapes[li]
        chains[li] = (
            tuple(layer.out_shape(in_shape)), layer.output_elements(in_shape),
            layer.chain_length(in_shape),
        )
    convs = tuple(i for i in mac_idx if isinstance(network.layers[i], Conv2D))
    sizes = {i: int(np.prod(network.shapes[i])) for i in mac_idx}
    scopes = {
        "layer_weight": (
            mac_idx, _cdf([network.layers[i].params()["weight"].size for i in mac_idx])
        ),
        # Img REG serves the sliding-window convolutions.
        "row_activation": (convs, _cdf([sizes[i] for i in convs])),
        "next_layer": (mac_idx, _cdf([sizes[i] for i in mac_idx])),
    }
    tables = _TABLES[network] = _Tables(mac_idx, _cdf(list(macs.values())), chains, scopes)
    return tables


def _unravel(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(int(v) for v in np.unravel_index(flat, shape))


def sample_datapath_fault(
    network: Network,
    dtype: DataType,
    rng: np.random.Generator,
    latch: str | None = None,
    bit: int | None = None,
    layer_index: int | None = None,
    burst: int = 1,
) -> DatapathFault:
    """Sample a random datapath fault site.

    Args:
        network: Target network.
        dtype: Numeric format (bounds the bit position).
        rng: Random stream.
        latch: Pin the latch class (None = uniform over classes).
        bit: Pin the bit position (None = uniform over the word).
        layer_index: Pin the victim MAC layer (None = MAC-weighted).
    """
    tables = _tables(network)
    if layer_index is None:
        layer_index = _draw(rng, tables.mac_layers, tables.mac_cdf)
    elif layer_index not in tables.chains:
        raise ValueError(f"layer {layer_index} is not a MAC layer")
    out_shape, n_out, length = tables.chains[layer_index]
    out_index = _unravel(int(rng.integers(n_out)), out_shape)
    step = int(rng.integers(length))
    if latch is None:
        latch = DATAPATH_LATCHES[int(rng.integers(0, len(DATAPATH_LATCHES)))]
    chosen_bit = int(rng.integers(dtype.width)) if bit is None else bit
    return DatapathFault(layer_index, out_index, step, latch, chosen_bit, burst)


#: Buffer scope -> Eyeriss component whose occupancy weights apply.
SCOPE_COMPONENT = {
    "layer_weight": "Filter SRAM",
    "row_activation": "Img REG",
    "next_layer": "Global Buffer",
    "single_read": "PSum REG",
}


def _occupancy_layer(
    tables: _Tables,
    occupancy: OccupancyModel,
    scope: str,
    rng: np.random.Generator,
) -> int | None:
    """Draw a victim layer from the schedule's exposure weights."""
    cached = tables.occupancy.get(scope)
    if cached is None or cached[0] is not occupancy:
        weights = occupancy.layer_weights(SCOPE_COMPONENT[scope])
        candidates = tables.scopes[scope][0]
        usable = {li: w for li, w in weights.items() if li in candidates}
        cached = tables.occupancy[scope] = (occupancy, tuple(usable), _cdf(list(usable.values())))
    _, items, cdf = cached
    return _draw(rng, items, cdf) if items else None


def sample_buffer_fault(
    network: Network,
    scope: str,
    dtype: DataType,
    rng: np.random.Generator,
    bit: int | None = None,
    burst: int = 1,
    occupancy: OccupancyModel | None = None,
) -> BufferFault:
    """Sample a random buffer fault site for a given spread scope.

    Victim layers are weighted by the amount of data of the relevant kind
    resident for them (weights for ``layer_weight``, ifmap elements for
    activation scopes, MACs for ``single_read``), mirroring a uniformly
    random strike on buffer bits over time.  When an
    :class:`~repro.accel.occupancy.OccupancyModel` is supplied, the layer
    is drawn from the schedule's bit-cycle exposures instead — a strike
    uniform in space *and time* on the mapped accelerator.
    """
    tables = _tables(network)
    chosen_bit = int(rng.integers(dtype.width)) if bit is None else bit

    if scope in ("layer_weight", "row_activation", "next_layer"):
        li = _occupancy_layer(tables, occupancy, scope, rng) if occupancy else None
        if li is None:
            li = _draw(rng, *tables.scopes[scope])
        layer = network.layers[li]
        shape = layer.params()["weight"].shape if scope == "layer_weight" else network.shapes[li]
        victim = _unravel(int(rng.integers(int(np.prod(shape)))), shape)
        residency_row = -1
        if scope == "row_activation":
            # Output rows whose windows cover input row victim[1].
            out_h = tables.chains[li][0][1]
            lo, hi = window_out_span(victim[1], victim[1] + 1, layer.kernel, layer.stride,
                                     layer.pad, out_h)
            residency_row = lo + int(rng.integers(0, hi - lo)) if hi > lo else 0
        return BufferFault(scope, li, victim, chosen_bit, burst, residency_row)

    if scope == "single_read":
        dp = sample_datapath_fault(network, dtype, rng, latch="psum", bit=chosen_bit)
        victim = (*dp.out_index, dp.step)
        return BufferFault(scope, dp.layer_index, victim, chosen_bit, burst)

    raise ValueError(f"unknown buffer fault scope {scope!r}")
