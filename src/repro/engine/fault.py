"""Fault simulation engines (naive and bit-packed) with real fault dropping.

Both engines are *serial in faults, parallel in patterns* and share the same
observable-difference detection semantics as the original
``repro.atpg.fault_sim`` implementation:

* the good machine is evaluated once for the whole pattern batch;
* each fault is re-evaluated only over its downstream combinational cone
  with the fault site forced to the stuck value;
* a fault is detected at the first pattern where any observable net (primary
  output or flip-flop data input) differs from the good machine.

**Grading modes.**  The packed fault path has two kernels sharing the
compiled program and the big-int good machine
(:func:`~repro.engine.packed.evaluate_lanes`), producing bit-identical
results:

* ``"lanes"`` — *pattern-parallel*: each fault's cone is re-evaluated on
  arbitrary-width python big-ints, one bit per pattern
  (:func:`packed_first_detects`).  Minimal per-op dispatch; this carries
  every pattern width.
* ``"faults"`` — the *fault-parallel* dual of lanes: 64 faults per word,
  one bit-lane each (:func:`packed_first_detects_faults`).  Each
  pattern is replayed once through the union of the packed faults' cones
  with every fault site forced in its own lane, and one XOR against the
  broadcast good-machine value recovers all 64 detection bits at once.
  The per-*fault* python loop of lanes becomes a per-*pattern* loop ~64x
  wider per step, which wins the many-faults/few-patterns shapes (PODEM's
  cube-verification drop sweeps grade one pattern against the whole
  remaining fault list).

``mode="auto"`` (the default) picks the kernel from the run shape
(:func:`resolve_grading_kernel`): ``faults`` for pattern sets at most
:data:`FAULTS_MODE_MAX_PATTERNS` wide against at least
:data:`FAULTS_MODE_FAULTS_PER_PATTERN` faults per pattern, ``lanes``
otherwise; the ``REPRO_FAULT_MODE`` environment variable forces a mode
process-wide (:func:`resolve_fault_mode`).

**Fault dropping** is implemented by processing the pattern set in blocks of
:data:`DROP_BLOCK_PATTERNS` patterns: once a fault is detected in a block it
is dropped, i.e. its cone is never re-simulated for the remaining blocks.
Because blocks are processed in pattern order, the recorded first-detecting
index is identical with and without dropping — dropping only removes work.
Per-run counters (``last_run_stats``) expose how much was skipped, which the
engine tests use to assert the dropping is real rather than decorative.

The simulators accept any fault objects exposing ``net`` and ``stuck_value``
attributes (:class:`repro.atpg.faults.StuckAtFault` in practice); keeping
this module free of ``repro.atpg`` imports lets the higher ATPG layer build
on the engine without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import envvars
from repro.circuit.gates import GateType, evaluate_bool
from repro.circuit.netlist import Circuit
from repro.circuit.simulator import LogicSimulator, check_pattern_matrix
from repro.cubes.cube import TestSet
from repro.obs import recorder as obs
from repro.engine.compile import (
    OP_AND,
    OP_BUF,
    OP_CONST0,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    compile_circuit,
)
from repro.engine.packed import evaluate_lanes, pack_lanes

#: Patterns per fault-dropping block: wide enough that the per-block
#: bookkeeping is negligible, narrow enough that a fault detected by the
#: early patterns skips most of a large pattern set.  Results are
#: block-size-invariant — blocking only bounds skippable work.
DROP_BLOCK_PATTERNS = 128

#: Faults per packed fault word in ``"faults"`` mode — one bit-lane each.
FAULT_WORD_LANES = 64

#: ``auto`` considers the fault-parallel kernel only for pattern sets at
#: most this wide.  The fault-packed word must replay every pattern one at
#: a time, while a lanes cone replay costs roughly the same for 1 pattern
#: as for a whole block, so the faults kernel falls behind lanes as the
#: pattern set widens (``benchmarks/bench_engine.py``, ``fault_parallel``
#: section).
FAULTS_MODE_MAX_PATTERNS = 8

#: ... and only with at least this many faults per pattern.  The faults
#: kernel pays a fixed per-pattern python loop that the fault words must
#: fill.  Measured lanes/faults time on the 7 PODEM profiles' circuits
#: (2-vCPU x86-64 host): at 1 pattern 0.6-1.2x at 4 faults and 1.4-2.4x at
#: 8; at 8 patterns the faults kernel first wins at 32-64 faults.  So PODEM's
#: drop sweeps (one filled cube against the remaining list) grade on fault
#: words from 8 remaining faults on, and 8 patterns need a full word of 64.
FAULTS_MODE_FAULTS_PER_PATTERN = 8

#: Environment variable forcing the packed fault-grading mode process-wide.
FAULT_MODE_ENV_VAR = envvars.FAULT_MODE.name

FAULT_MODES = envvars.FAULT_MODES


def resolve_fault_mode(mode: Optional[str] = None) -> str:
    """Resolve a fault-grading mode (explicit arg > ``REPRO_FAULT_MODE`` > auto).

    Raises:
        ValueError: for names outside :data:`FAULT_MODES`.
    """
    if mode is None:
        mode = envvars.FAULT_MODE.read() or "auto"
    if mode not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {mode!r}; choose from {FAULT_MODES}")
    return mode


def resolve_grading_kernel(mode: str, n_patterns: int, n_faults: int) -> str:
    """The concrete kernel (``lanes``/``faults``) a run grades on.

    ``auto`` resolves from the run shape: the fault-packed kernel takes at
    most :data:`FAULTS_MODE_MAX_PATTERNS` patterns against at least
    :data:`FAULTS_MODE_FAULTS_PER_PATTERN` faults per pattern, and big-int
    lanes take everything else.
    """
    if mode != "auto":
        return mode
    if (
        n_patterns <= FAULTS_MODE_MAX_PATTERNS
        and n_faults >= FAULTS_MODE_FAULTS_PER_PATTERN * n_patterns
    ):
        return "faults"
    return "lanes"


def fault_lane_mask(n_lanes: int) -> int:
    """Valid-lane mask for a fault word holding ``n_lanes`` packed faults.

    The last fault word of a run usually holds fewer than
    :data:`FAULT_WORD_LANES` faults, and every detection word must be
    masked to the populated lanes before lanes are mapped back to faults —
    an unmasked tail lane would scatter a detection onto a fault that does
    not exist.  ``n_lanes`` counts the populated lanes of the word; a
    multiple of the word width (including a full word) keeps every lane.
    """
    bits = n_lanes % FAULT_WORD_LANES
    if bits == 0:
        return (1 << FAULT_WORD_LANES) - 1
    return (1 << bits) - 1


@dataclass
class FaultSimulationResult:
    """Outcome of fault-simulating a pattern set against a fault list.

    Duplicate faults in the input list are collapsed to their first
    occurrence — every backend grades a fault once, so ``coverage`` is a
    fraction of *distinct* faults and ``undetected`` never repeats an entry.

    Attributes:
        detected: mapping from fault to the index of the first detecting
            pattern (iteration order follows the input fault list).
        undetected: faults no pattern detected, in input order.
        n_patterns: number of patterns simulated.
    """

    detected: Dict[object, int] = field(default_factory=dict)
    undetected: List[object] = field(default_factory=list)
    n_patterns: int = 0

    @property
    def coverage(self) -> float:
        """Fault coverage over the supplied fault list (1.0 when empty)."""
        total = len(self.detected) + len(self.undetected)
        return len(self.detected) / total if total else 1.0

    @property
    def detected_count(self) -> int:
        """Number of detected faults."""
        return len(self.detected)


def _new_stats() -> Dict[str, int]:
    return {
        "blocks": 0,
        "cone_evaluations": 0,
        "dropped_block_evaluations": 0,
        "fault_words": 0,
    }


def _flush_run_telemetry(
    stats: Dict[str, int], result: FaultSimulationResult
) -> None:
    """Fold one completed run into the ``fault_sim.*`` obs counters.

    Kernels accumulate into plain dicts exactly as before (the hot loops
    never touch obs); top-level ``run()`` methods flush once per run, so
    the disabled path costs one predicate and the enabled path a handful
    of dict merges.
    """
    if not obs.enabled():
        return
    obs.add_counters(stats, prefix="fault_sim.")
    obs.add_counters(
        {
            "fault_sim.runs": 1,
            "fault_sim.patterns": result.n_patterns,
            "fault_sim.faults": result.detected_count + len(result.undetected),
            "fault_sim.detected": result.detected_count,
        }
    )


def _validate_run(
    patterns: TestSet, n_test_pins: int, faults: Sequence[object]
) -> Optional[FaultSimulationResult]:
    """Shared run() preamble; returns an early result for empty pattern sets."""
    if not patterns.is_fully_specified():
        raise ValueError("fault simulation requires fully specified patterns")
    n_patterns = len(patterns)
    if n_patterns == 0:
        # An empty pattern set detects nothing; there is no pin width to check.
        return FaultSimulationResult(
            n_patterns=0, undetected=list(dict.fromkeys(faults))
        )
    if patterns.n_pins != n_test_pins:
        raise ValueError(
            f"patterns have {patterns.n_pins} pins, circuit expects {n_test_pins}"
        )
    return None


def _unique_faults(faults: Sequence[object]) -> List[object]:
    """The fault list with duplicates collapsed to their first occurrence.

    Occurrences of a fault grade identically (same cone, same patterns), so
    every backend dedupes before grading: duplicates cost no cone work, and
    without deduplication the ``detected`` dict would collapse them while
    ``undetected`` repeated them, skewing ``coverage`` by input-list
    bookkeeping.
    """
    return list(dict.fromkeys(faults))


def _assemble(
    faults: Sequence[object],
    first_detect: List[Optional[int]],
    n_patterns: int,
) -> FaultSimulationResult:
    """Build a result in input fault order (identical across backends).

    Callers pass the :func:`_unique_faults` list; the seen-set is a cheap
    backstop keeping results consistent for any direct caller that does not.
    """
    result = FaultSimulationResult(n_patterns=n_patterns)
    seen = set()
    for fault, index in zip(faults, first_detect):
        if fault in seen:
            continue
        seen.add(fault)
        if index is None:
            result.undetected.append(fault)
        else:
            result.detected[fault] = index
    return result


def _blocks(n_patterns: int, block: int) -> List[range]:
    return [range(s, min(s + block, n_patterns)) for s in range(0, n_patterns, block)]


class NaiveFaultSimulator:
    """Reference fault simulator: per-net dict cone walk on bool arrays.

    This is the original ``FaultSimulator`` algorithm, restructured into
    pattern blocks so fault dropping actually skips work (the historical
    ``drop_detected`` flag was a no-op).  Results are bit-identical to the
    unblocked implementation.
    """

    def __init__(self, circuit: Circuit, block_patterns: int = DROP_BLOCK_PATTERNS) -> None:
        circuit.validate()
        self.circuit = circuit
        self.block_patterns = max(1, int(block_patterns))
        self._logic = LogicSimulator(circuit)
        self._order_rank = {net: i for i, net in enumerate(circuit.topological_order())}
        self._fanout = circuit.fanout_map()
        self._output_set = set(circuit.combinational_outputs)
        self._cone_cache: Dict[str, List[str]] = {}
        self._observable_cache: Dict[str, bool] = {}
        self.last_run_stats: Dict[str, int] = _new_stats()

    # -- internals ---------------------------------------------------------
    def _downstream_cone(self, net: str) -> List[str]:
        """Combinational gates reachable from ``net``, in topological order."""
        cached = self._cone_cache.get(net)
        if cached is not None:
            return cached
        seen: set = set()
        stack = [net]
        while stack:
            current = stack.pop()
            for reader in self._fanout.get(current, []):
                if reader in seen:
                    continue
                if self.circuit.get_gate(reader).gate_type.is_sequential:
                    continue
                seen.add(reader)
                stack.append(reader)
        cone = sorted(seen, key=lambda name: self._order_rank.get(name, 0))
        self._cone_cache[net] = cone
        return cone

    def _structurally_observable(self, net: str) -> bool:
        """Whether ``net`` reaches any observable net (or is one itself).

        Faults on structurally unobservable nets can never be detected, so
        they are skipped without cone work — the same skip the packed
        kernels apply (empty ``detect_rows`` and unobservable site), which
        keeps ``cone_evaluations`` aligned across backends.
        """
        cached = self._observable_cache.get(net)
        if cached is None:
            cached = net in self._output_set or any(
                name in self._output_set for name in self._downstream_cone(net)
            )
            self._observable_cache[net] = cached
        return cached

    def _simulate_fault_block(
        self,
        fault: object,
        good_block: Dict[str, np.ndarray],
        width: int,
    ) -> np.ndarray:
        """Boolean array marking the block patterns that detect ``fault``."""
        forced = np.full(width, bool(fault.stuck_value))
        faulty: Dict[str, np.ndarray] = {fault.net: forced}
        detected = np.zeros(width, dtype=bool)
        if fault.net in self._output_set:
            detected |= good_block[fault.net] != forced
        for name in self._downstream_cone(fault.net):
            gate = self.circuit.get_gate(name)
            if gate.gate_type is GateType.CONST0:
                value = np.zeros(width, dtype=bool)
            elif gate.gate_type is GateType.CONST1:
                value = np.ones(width, dtype=bool)
            else:
                inputs = [faulty.get(net, good_block[net]) for net in gate.inputs]
                value = evaluate_bool(gate.gate_type, inputs)
            faulty[name] = value
            if name in self._output_set:
                detected |= value != good_block[name]
        return detected

    # -- public API --------------------------------------------------------
    def run(
        self,
        patterns: TestSet,
        faults: Sequence[object],
        drop_detected: bool = True,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``faults`` (see module docs)."""
        stats = self.last_run_stats = _new_stats()
        early = _validate_run(patterns, self.circuit.n_test_pins, faults)
        if early is not None:
            return early
        faults = _unique_faults(faults)
        n_patterns = len(patterns)
        with obs.span(f"logic_sim/{self.circuit.name}/naive"):
            good_values = self._logic.simulate(patterns.matrix)
        first_detect: List[Optional[int]] = [None] * len(faults)
        observable = [self._structurally_observable(f.net) for f in faults]

        # Blocking only exists to give dropping something to skip; without
        # dropping a single full-width pass avoids the per-block overhead
        # (results are block-size-invariant either way).
        block_size = self.block_patterns if drop_detected else n_patterns
        with obs.span(f"fault_sim/{self.circuit.name}/naive/grade"):
            for block in _blocks(n_patterns, block_size):
                stats["blocks"] += 1
                start, width = block.start, len(block)
                good_block = {
                    net: arr[start : block.stop] for net, arr in good_values.items()
                }
                pending = 0
                for index, fault in enumerate(faults):
                    if first_detect[index] is not None:
                        if drop_detected:
                            stats["dropped_block_evaluations"] += 1
                            continue
                    if not observable[index]:
                        continue  # structurally unobservable: undetected, no work
                    stats["cone_evaluations"] += 1
                    detecting = self._simulate_fault_block(fault, good_block, width)
                    hits = np.flatnonzero(detecting)
                    if hits.size:
                        if first_detect[index] is None:
                            first_detect[index] = start + int(hits[0])
                    else:
                        pending += 1
                if drop_detected and pending == 0:
                    break
        result = _assemble(faults, first_detect, n_patterns)
        _flush_run_telemetry(stats, result)
        return result


def _lowest_bit(value: int) -> int:
    """Index of the least-significant set bit of a positive big-int."""
    return (value & -value).bit_length() - 1


def packed_first_detects(
    program,
    good: Sequence[int],
    n_patterns: int,
    sites: Sequence[Optional[int]],
    stuck_values: Sequence[int],
    block_patterns: int = DROP_BLOCK_PATTERNS,
    drop_detected: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> List[Optional[int]]:
    """First-detecting pattern index per fault site.

    Args:
        program: compiled circuit.
        good: good-machine value lanes for **all** ``n_patterns`` patterns
            (one big-int lane per value-table row).
        n_patterns: total pattern count the lanes cover.
        sites: fault-site row per fault (``None`` for unknown nets, which are
            never detected).
        stuck_values: stuck value (0/1) per fault, aligned with ``sites``.
        block_patterns: patterns per fault-dropping block.
        drop_detected: skip a fault's cone in blocks after its detecting one.
        stats: optional counter dict updated in place (``blocks``,
            ``cone_evaluations``, ``dropped_block_evaluations``).

    Returns:
        One entry per fault: the index of the first detecting pattern, or
        ``None``.
    """
    if stats is None:
        stats = _new_stats()
    n_faults = len(sites)
    first_detect: List[Optional[int]] = [None] * n_faults
    if n_patterns <= 0 or n_faults == 0:
        return first_detect

    # Blocking only pays off when dropping can skip later blocks; run a
    # single full-width pass otherwise (results are block-size-invariant).
    block_size = max(1, int(block_patterns)) if drop_detected else n_patterns
    blocks = _blocks(n_patterns, block_size)
    # Pre-serialise the good lanes when blocks fall on byte boundaries:
    # slicing a byte window per block is O(block) per net instead of the
    # O(n_patterns) a full-lane `>> start` costs, keeping good-block
    # extraction linear in the pattern count across all blocks.
    byte_aligned = block_size % 8 == 0 and len(blocks) > 1
    if byte_aligned:
        total_bytes = (n_patterns + 7) // 8
        good_bytes = [lane.to_bytes(total_bytes, "little") for lane in good]

    stuck_flags = [bool(value) for value in stuck_values]
    for block in blocks:
        stats["blocks"] += 1
        start, width = block.start, len(block)
        block_mask = (1 << width) - 1
        if byte_aligned:
            lo, hi = start // 8, (block.stop + 7) // 8
            good_block = [
                int.from_bytes(raw[lo:hi], "little") & block_mask
                for raw in good_bytes
            ]
        elif start:
            good_block = [(lane >> start) & block_mask for lane in good]
        else:
            good_block = [lane & block_mask for lane in good]
        pending = 0
        for index in range(n_faults):
            row = sites[index]
            if row is None:
                continue
            if first_detect[index] is not None:
                if drop_detected:
                    stats["dropped_block_evaluations"] += 1
                    continue
            cone = program.cone(row)
            if not cone.detect_rows and not cone.site_observable:
                continue  # structurally unobservable: undetected, no work
            stats["cone_evaluations"] += 1
            forced = block_mask if stuck_flags[index] else 0
            diff = (good_block[row] ^ forced) if cone.site_observable else 0
            faulty: Dict[int, int] = {row: forced}
            fget = faulty.get
            node_prog = program.node_prog
            # Inline opcode dispatch: this duplicates evaluate_lanes on
            # purpose (the faulty-dict overlay lookup per source is the
            # hot path; an indirection-parameterised shared interpreter
            # measurably slows it).  Any opcode change must be mirrored
            # in evaluate_lanes; the every-gate-type parity tests in
            # tests/test_engine.py catch divergence.
            for pos in cone.positions:
                op, out, src = node_prog[pos]
                if op == OP_AND or op == OP_NAND:
                    acc = fget(src[0])
                    if acc is None:
                        acc = good_block[src[0]]
                    for r in src[1:]:
                        v = fget(r)
                        acc &= good_block[r] if v is None else v
                    if op == OP_NAND:
                        acc ^= block_mask
                elif op == OP_OR or op == OP_NOR:
                    acc = fget(src[0])
                    if acc is None:
                        acc = good_block[src[0]]
                    for r in src[1:]:
                        v = fget(r)
                        acc |= good_block[r] if v is None else v
                    if op == OP_NOR:
                        acc ^= block_mask
                elif op == OP_XOR or op == OP_XNOR:
                    acc = fget(src[0])
                    if acc is None:
                        acc = good_block[src[0]]
                    for r in src[1:]:
                        v = fget(r)
                        acc ^= good_block[r] if v is None else v
                    if op == OP_XNOR:
                        acc ^= block_mask
                elif op == OP_NOT:
                    v = fget(src[0])
                    acc = (good_block[src[0]] if v is None else v) ^ block_mask
                elif op == OP_BUF:
                    v = fget(src[0])
                    acc = good_block[src[0]] if v is None else v
                elif op == OP_CONST0:
                    acc = 0
                else:  # OP_CONST1
                    acc = block_mask
                faulty[out] = acc
            for obs in cone.detect_rows:
                diff |= faulty[obs] ^ good_block[obs]
            if diff:
                if first_detect[index] is None:
                    first_detect[index] = start + _lowest_bit(diff)
            else:
                pending += 1
        if drop_detected and pending == 0:
            break
    return first_detect


def packed_first_detects_faults(
    program,
    good: Sequence[int],
    n_patterns: int,
    sites: Sequence[Optional[int]],
    stuck_values: Sequence[int],
    block_patterns: int = DROP_BLOCK_PATTERNS,
    drop_detected: bool = True,
    stats: Optional[Dict[str, int]] = None,
) -> List[Optional[int]]:
    """Fault-parallel counterpart of :func:`packed_first_detects`.

    Instead of packing patterns into lanes and looping over faults, this
    kernel packs up to :data:`FAULT_WORD_LANES` faults into one big-int word
    (one bit-lane per fault) and loops over patterns: each pattern is
    replayed once through the union of the packed faults' cones with every
    fault site forced to its stuck value *in its own lane only*, and a
    single XOR against the broadcast good-machine value yields the
    detection bit of all packed faults at once.  A lane can only diverge
    from the good machine inside its own fault's cone, so diffing the union
    of the detect rows attributes detections to the right lanes by
    construction.  Because patterns are visited in ascending order, the
    first pattern whose diff word sets a lane *is* that fault's
    first-detecting pattern — bit-identical to the lanes kernel.

    Fault sites driven by gates inside the union cone (one packed fault
    upstream of another's site) are re-forced lane-wise after the driving
    gate writes, and detection words are masked with
    :func:`fault_lane_mask` so the unpopulated tail lanes of the last fault
    word can never scatter onto nonexistent faults.

    Fault dropping works on the same :data:`DROP_BLOCK_PATTERNS` blocks as
    the lanes kernel — ``cone_evaluations`` counts one per still-undetected
    fault per block, identical across kernels — and a fully
    detected fault word stops replaying patterns immediately.

    Args: see :func:`packed_first_detects`; ``good`` is the same big-int
    lanes representation, ``stats`` additionally accumulates
    ``fault_words``.
    """
    if stats is None:
        stats = _new_stats()
    n_faults = len(sites)
    first_detect: List[Optional[int]] = [None] * n_faults
    if n_patterns <= 0 or n_faults == 0:
        return first_detect

    # Only gradeable faults occupy lanes; unknown nets and structurally
    # unobservable sites are undetected with no work, as in every kernel.
    gradeable: List[int] = []
    for index in range(n_faults):
        row = sites[index]
        if row is None:
            continue
        cone = program.cone(row)
        if not cone.detect_rows and not cone.site_observable:
            continue  # structurally unobservable: undetected, no work
        gradeable.append(index)
    if not gradeable:
        return first_detect

    block_size = max(1, int(block_patterns)) if drop_detected else n_patterns
    blocks = _blocks(n_patterns, block_size)
    # Same pre-serialisation trick as the lanes kernel: byte-window slices
    # keep good-block extraction linear in the pattern count across blocks.
    byte_aligned = block_size % 8 == 0 and len(blocks) > 1
    if byte_aligned:
        total_bytes = (n_patterns + 7) // 8
        good_bytes = [lane.to_bytes(total_bytes, "little") for lane in good]

    stuck_flags = [bool(value) for value in stuck_values]
    node_prog = program.node_prog
    full = fault_lane_mask(FAULT_WORD_LANES)
    # `blocks` reports pattern blocks processed, like the lanes kernel: the word that survives furthest defines how much of the
    # pattern axis was walked (a no-drop run is one full-width block).
    blocks_processed = 0
    for word_lo in range(0, len(gradeable), FAULT_WORD_LANES):
        word = gradeable[word_lo : word_lo + FAULT_WORD_LANES]
        stats["fault_words"] += 1
        # Per-site lane masks: `keep` clears exactly the lanes whose fault
        # lives on the row (their good bits are replaced by `stuck`).
        site_lanes: Dict[int, int] = {}
        stuck: Dict[int, int] = {}
        union_positions: set = set()
        union_detects: set = set()
        observable_rows: set = set()
        for lane, index in enumerate(word):
            row = sites[index]
            site_lanes[row] = site_lanes.get(row, 0) | (1 << lane)
            if stuck_flags[index]:
                stuck[row] = stuck.get(row, 0) | (1 << lane)
            else:
                stuck.setdefault(row, 0)
            cone = program.cone(row)
            union_positions.update(cone.positions)
            union_detects.update(cone.detect_rows)
            if cone.site_observable:
                observable_rows.add(row)
        keep = {row: full ^ lanes for row, lanes in site_lanes.items()}
        # Node positions are topological by construction, so the sorted
        # union replays every packed cone in one consistent pass.
        positions = [node_prog[pos] for pos in sorted(union_positions)]
        check_rows = sorted(union_detects | observable_rows)
        needed = set(check_rows) | set(site_lanes)
        for _op, _out, src in positions:
            needed.update(src)
        needed_rows = sorted(needed)

        undet = fault_lane_mask(len(word))
        word_blocks = 0
        for block in blocks:
            word_blocks += 1
            active = bin(undet).count("1")
            stats["cone_evaluations"] += active
            stats["dropped_block_evaluations"] += len(word) - active
            start, width = block.start, len(block)
            block_mask = (1 << width) - 1
            if byte_aligned:
                lo, hi = start // 8, (block.stop + 7) // 8
                good_block = {
                    row: int.from_bytes(good_bytes[row][lo:hi], "little")
                    & block_mask
                    for row in needed_rows
                }
            elif start:
                good_block = {
                    row: (good[row] >> start) & block_mask for row in needed_rows
                }
            else:
                good_block = {row: good[row] & block_mask for row in needed_rows}
            for offset in range(width):
                # Broadcast each needed good bit across all fault lanes,
                # then force the fault sites lane-wise.
                gcast = {
                    row: -((bits >> offset) & 1) & full
                    for row, bits in good_block.items()
                }
                vals = dict(gcast)
                for row, keep_lanes in keep.items():
                    vals[row] = (gcast[row] & keep_lanes) | stuck[row]
                # Inline opcode dispatch, mirroring packed_first_detects
                # (see the note there); operands always resolve through
                # `vals`, which overlays faulty values on the broadcasts.
                for op, out, src in positions:
                    if op == OP_AND or op == OP_NAND:
                        acc = vals[src[0]]
                        for r in src[1:]:
                            acc &= vals[r]
                        if op == OP_NAND:
                            acc ^= full
                    elif op == OP_OR or op == OP_NOR:
                        acc = vals[src[0]]
                        for r in src[1:]:
                            acc |= vals[r]
                        if op == OP_NOR:
                            acc ^= full
                    elif op == OP_XOR or op == OP_XNOR:
                        acc = vals[src[0]]
                        for r in src[1:]:
                            acc ^= vals[r]
                        if op == OP_XNOR:
                            acc ^= full
                    elif op == OP_NOT:
                        acc = vals[src[0]] ^ full
                    elif op == OP_BUF:
                        acc = vals[src[0]]
                    elif op == OP_CONST0:
                        acc = 0
                    else:  # OP_CONST1
                        acc = full
                    keep_lanes = keep.get(out)
                    if keep_lanes is not None:
                        # The gate drives another packed fault's site:
                        # re-force those lanes so the stuck value survives.
                        acc = (acc & keep_lanes) | stuck[out]
                    vals[out] = acc
                diff = 0
                for row in check_rows:
                    diff |= vals[row] ^ gcast[row]
                # fault_lane_mask discipline: `undet` never leaves the
                # populated lanes, so tail-lane garbage cannot record.
                new = diff & undet
                if new:
                    pattern_index = start + offset
                    while new:
                        lane = _lowest_bit(new)
                        first_detect[word[lane]] = pattern_index
                        new &= new - 1
                    undet &= full ^ diff
                    if drop_detected and not undet:
                        break
            if drop_detected and not undet:
                break
        blocks_processed = max(blocks_processed, word_blocks)
    stats["blocks"] += blocks_processed
    return first_detect


class PackedFaultSimulator:
    """Bit-packed fault simulator over the compiled program.

    The cone of each fault is compiled once into flat ``(op, out_row,
    src_rows)`` triples and re-evaluated per fault-dropping block on big-int
    lanes (a handful of C-level big-int bitwise ops per block — no gate
    objects, no name dictionaries, no NumPy dispatch), one fault per pass
    (``lanes``) or 64 faults per pass (``faults``); see the module docstring
    for the mode trade-off.

    Args:
        circuit: circuit under test (compiled here if no ``program`` given).
        block_patterns: fault-dropping block size.
        program: reuse an already-compiled program for ``circuit``.
        mode: ``"auto"``, ``"lanes"`` or ``"faults"``; ``None``
            resolves through :func:`resolve_fault_mode` (``REPRO_FAULT_MODE``).
    """

    def __init__(
        self,
        circuit: Circuit,
        block_patterns: int = DROP_BLOCK_PATTERNS,
        program: "Optional[object]" = None,
        mode: Optional[str] = None,
    ) -> None:
        self.circuit = circuit
        self.mode = resolve_fault_mode(mode)
        self.block_patterns = max(1, int(block_patterns))
        self.program = program if program is not None else compile_circuit(circuit)
        self.last_run_stats: Dict[str, int] = _new_stats()

    def run(
        self,
        patterns: TestSet,
        faults: Sequence[object],
        drop_detected: bool = True,
    ) -> FaultSimulationResult:
        """Fault-simulate ``patterns`` against ``faults`` (see module docs)."""
        program = self.program
        stats = self.last_run_stats = _new_stats()
        early = _validate_run(patterns, program.n_inputs, faults)
        if early is not None:
            return early
        faults = _unique_faults(faults)
        n_patterns = len(patterns)
        matrix = check_pattern_matrix(patterns.matrix, program.n_inputs)
        kernel = resolve_grading_kernel(self.mode, n_patterns, len(faults))
        stats["fault_mode"] = kernel

        # Resolve fault sites once; faults on unknown nets can never be
        # detected (matching the naive simulator's empty-cone behaviour).
        sites: List[Optional[int]] = [program.row_of(f.net) for f in faults]
        stuck_values = [1 if f.stuck_value else 0 for f in faults]
        # The lanes and faults kernels share the big-int good machine.
        full_mask = (1 << n_patterns) - 1
        with obs.span(f"logic_sim/{program.name}/{kernel}"):
            good = evaluate_lanes(program, pack_lanes(matrix), full_mask)
        grade = packed_first_detects_faults if kernel == "faults" else packed_first_detects
        with obs.span(f"fault_sim/{program.name}/{kernel}/grade"):
            first_detect = grade(
                program,
                good,
                n_patterns,
                sites,
                stuck_values,
                block_patterns=self.block_patterns,
                drop_detected=drop_detected,
                stats=stats,
            )
        result = _assemble(faults, first_detect, n_patterns)
        _flush_run_telemetry(stats, result)
        return result
