"""Synthetic sequential circuit generator.

The experiments need circuits whose size matches the ITC'99 profiles
(Table I) without access to the original RTL or a synthesis tool.  The
generator builds random — but structurally realistic — gate-level netlists:

* gates are created in a topological stream, each drawing its fan-in from a
  locality window of recently created nets (plus occasional long-range
  connections), which yields the narrow/deep cone structure real synthesised
  logic has instead of a flat random DAG;
* a configurable fraction of flip-flops closes state feedback loops (their
  D inputs come from late gates, their Q outputs feed early gates), matching
  the register-dominated ITC'99 designs;
* every net is consumed by at least one reader, so the fault universe has no
  trivially untestable floating logic, and leftover unread nets become
  primary outputs.

Generation is fully deterministic for a given :class:`CircuitSpec`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: Relative frequencies of gate types in generated logic (NAND/NOR-heavy,
#: like standard-cell mapped netlists).
_GATE_MIX = [
    (GateType.NAND, 0.28),
    (GateType.NOR, 0.18),
    (GateType.AND, 0.16),
    (GateType.OR, 0.14),
    (GateType.NOT, 0.12),
    (GateType.XOR, 0.07),
    (GateType.BUF, 0.03),
    (GateType.XNOR, 0.02),
]


@dataclass(frozen=True)
class CircuitSpec:
    """Parameters of a synthetic circuit.

    Attributes:
        name: circuit name.
        n_primary_inputs: number of primary inputs.
        n_flip_flops: number of D flip-flops (scan cells).
        n_gates: number of combinational gates.
        n_primary_outputs: number of primary outputs (defaults to roughly one
            per eight gates, at least one).
        locality: probability that a gate input is drawn from the recent-net
            window rather than uniformly from all earlier nets.
        window: size of the recent-net locality window.
        seed: RNG seed.
    """

    name: str
    n_primary_inputs: int
    n_flip_flops: int
    n_gates: int
    n_primary_outputs: int = 0
    locality: float = 0.75
    window: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_primary_inputs < 1:
            raise ValueError("at least one primary input is required")
        if self.n_flip_flops < 0 or self.n_gates < 1:
            raise ValueError("flip-flop count must be >= 0 and gate count >= 1")
        if not 0.0 <= self.locality <= 1.0:
            raise ValueError("locality must be within [0, 1]")


_GATE_TYPES = [t for t, _ in _GATE_MIX]


def _gate_cdf() -> List[float]:
    # Built exactly as ``Generator.choice(p=...)`` builds its CDF, so one
    # ``rng.random()`` draw plus ``bisect_right`` picks the same type from
    # the same RNG stream, draw for draw.
    weights = np.array([w for _, w in _GATE_MIX])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


_GATE_CDF = _gate_cdf()


#: Raw PCG64 words fetched per refill of a :class:`_Draws` replay.
_BLOCK = 4096


def _raw_words(seed: int) -> Iterator[int]:
    bitgen = np.random.PCG64(seed)
    while True:
        yield from bitgen.random_raw(_BLOCK).tolist()


class _Draws:
    """``np.random.default_rng(seed)``'s ``random()`` and ``integers(lo, hi)``,
    replayed draw for draw from raw PCG64 words without the per-call NumPy
    overhead (the generator loop makes hundreds of thousands of scalar draws).

    ``default_rng(seed)`` wraps ``PCG64(seed)``, so both read one word stream.
    ``random()`` is ``(w >> 11) * 2**-53``.  ``integers(lo, hi)`` with
    ``hi - lo <= 2**32`` is NumPy's 32-bit Lemire draw: each 32-bit draw
    takes a word's low half and keeps its high half for the next 32-bit
    draw, which ``random()`` leaves alone.  The netlists thus depend only on
    PCG64's raw stream and ``SeedSequence``, not on ``Generator``'s
    bounded-integer algorithm.  Stand-in inputs v2 (ROADMAP) drops the
    scalar loop and this replay with it.
    """

    __slots__ = ("_next_word", "_half")

    def __init__(self, seed: int) -> None:
        self._next_word = _raw_words(seed).__next__
        self._half: Optional[int] = None

    def random(self) -> float:
        return (self._next_word() >> 11) * 2.0**-53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._next_word()
            self._half = word >> 32
            return word & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers({lo}, {hi}) needs 1 <= hi - lo <= 2**32")
        if n == 1:
            return lo  # NumPy draws nothing for a one-value range
        # n == 2**32 needs no branch: nothing is rejected, m >> 32 is the draw.
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:
            threshold = ((1 << 32) - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return lo + (m >> 32)


def _sample_gate_type(rng: _Draws) -> GateType:
    return _GATE_TYPES[bisect_right(_GATE_CDF, rng.random())]


def generate_circuit(spec: CircuitSpec) -> Circuit:
    """Generate a validated synthetic circuit matching ``spec``.

    The loop works on integer net ids — primary inputs first, then
    flip-flop outputs, then gate outputs in creation order — and hands the
    finished columns to :meth:`Circuit.from_columns`, which checks them once.
    """
    rng = _Draws(spec.seed)
    n_sources = spec.n_primary_inputs + spec.n_flip_flops
    net_names = (
        [f"pi{i}" for i in range(spec.n_primary_inputs)]
        + [f"ff{i}" for i in range(spec.n_flip_flops)]
        + [f"g{i}" for i in range(spec.n_gates)]
    )
    pi_ids = list(range(spec.n_primary_inputs))
    ff_ids = list(range(spec.n_primary_inputs, n_sources))

    # Flip-flop outputs act as sources; their D inputs are wired at the end.
    # ``unused`` is kept as an insertion-ordered dict so generation stays
    # deterministic across processes.
    sources: List[int] = list(range(n_sources))
    available: List[int] = list(sources)
    # Nets from completed layers that nothing reads yet.  Freshly created
    # gates only become eligible once their layer closes, so the forced
    # consumption below cannot create gate-to-next-gate chains.
    unused: dict = dict.fromkeys(sources)
    fresh_unused: dict = {}

    # Arrange gates in layers so the combinational depth grows like the depth
    # of synthesised logic (tens of levels) instead of degenerating into one
    # long chain.  Layer L draws most of its fan-in from layer L-1.
    depth_target = max(5, min(60, round(3.2 * np.log2(max(spec.n_gates, 2)))))
    layer_width = max(1, -(-spec.n_gates // depth_target))  # ceil division
    previous_layer: List[int] = list(sources)
    current_layer: List[int] = []

    gate_types: List[GateType] = []
    gate_fanins: List[Tuple[int, ...]] = []
    for net in range(n_sources, n_sources + spec.n_gates):
        gate_type = _sample_gate_type(rng)
        if gate_type in (GateType.NOT, GateType.BUF):
            fanin = 1
        else:
            fanin = rng.integers(2, 5) if rng.random() < 0.25 else 2
        inputs: List[int] = []
        # First, consume completed-layer nets nobody reads yet so nothing is
        # left floating.
        while unused and len(inputs) < fanin:
            candidate = next(iter(unused))
            del unused[candidate]
            if candidate not in inputs:
                inputs.append(candidate)
        attempts = 0
        while len(inputs) < fanin and attempts < 16:
            attempts += 1
            if rng.random() < spec.locality and previous_layer:
                pool = previous_layer
            else:
                pool = available
            candidate = pool[rng.integers(0, len(pool))]
            if candidate not in inputs:
                inputs.append(candidate)
        if len(inputs) == 1 and gate_type not in (GateType.NOT, GateType.BUF):
            # Not enough distinct driver nets yet; degrade to an inverter.
            gate_type = GateType.NOT
        gate_types.append(gate_type)
        gate_fanins.append(tuple(inputs))
        for source in inputs:
            unused.pop(source, None)
            fresh_unused.pop(source, None)
        available.append(net)
        fresh_unused[net] = None
        current_layer.append(net)
        if len(current_layer) >= layer_width:
            previous_layer = current_layer
            current_layer = []
            unused.update(fresh_unused)
            fresh_unused = {}
    unused.update(fresh_unused)

    # Wire flip-flop D inputs from late gates so state feedback spans the logic.
    gate_ids = range(n_sources, n_sources + spec.n_gates)
    tail = gate_ids[-max(spec.n_flip_flops * 2, 8):]
    for __ in ff_ids:
        source = tail[rng.integers(0, len(tail))]
        gate_types.append(GateType.DFF)
        gate_fanins.append((source,))
        unused.pop(source, None)

    # Primary outputs: requested count (the latest gates) plus anything
    # still unread, by name.  Both lists are duplicate-free and disjoint.
    # A primary input is left unread only when there are more sources than
    # gate input slots (a handful of gates); it is observed directly then.
    n_outputs = spec.n_primary_outputs or max(1, spec.n_gates // 8)
    chosen = list(gate_ids[::-1][:n_outputs])
    chosen_set = set(chosen)
    leftover = sorted(
        (net for net in unused if net not in chosen_set), key=net_names.__getitem__
    )

    return Circuit.from_columns(
        spec.name,
        net_names,
        inputs=pi_ids,
        gate_net=list(gate_ids) + ff_ids,
        gate_type=gate_types,
        gate_fanin=gate_fanins,
        outputs=chosen + leftover,
    )


def scaled_spec(
    name: str,
    n_primary_inputs: int,
    n_flip_flops: int,
    n_gates: int,
    scale: float = 1.0,
    seed: int = 0,
) -> CircuitSpec:
    """Build a spec scaled down by ``scale`` (used for the largest ITC'99 profiles).

    Scaling keeps at least one primary input, one gate and — when the
    original had any — one flip-flop, so the full-scan machinery still has
    something to exercise even at tiny scales.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    return CircuitSpec(
        name=name,
        n_primary_inputs=max(1, round(n_primary_inputs * scale)),
        n_flip_flops=max(1 if n_flip_flops else 0, round(n_flip_flops * scale)),
        n_gates=max(1, round(n_gates * scale)),
        seed=seed,
    )
