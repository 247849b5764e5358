"""Test-generation driver: PODEM over a collapsed fault list with fault dropping.

This is the offline replacement for the paper's TetraMax run: it walks the
collapsed fault list in deterministic order, generates a cube per undetected
fault, and fault-simulates a randomly filled copy of each new cube to drop
every other fault it happens to detect.  The order in which cubes are emitted
*is* the "tool ordering" used by Table II of the paper.

Each drop sweep grades one filled cube against *all* remaining faults — the
shape where pattern-parallel kernels degenerate to one fault at a time.
The fault simulator therefore runs the sweep on the fault-parallel
fault-word kernel
(:func:`~repro.engine.fault.packed_first_detects_faults`) whenever at least
8 faults remain, grading 64 remaining faults per machine word per cube
instead of looping the python interpreter over every fault; shorter lists
stay on the pattern-parallel ``lanes`` kernel, which is faster there (see
:func:`~repro.engine.fault.resolve_grading_kernel`).

PODEM runs serially, in fault-list order, in the calling process, so one
circuit's cubes are always generated by one engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault
from repro.atpg.podem import PodemEngine
from repro.circuit.netlist import Circuit
from repro.cubes.bits import BIT_DTYPE, X
from repro.cubes.cube import TestCube, TestSet


@dataclass
class ATPGResult:
    """Output of a full ATPG run.

    Attributes:
        cubes: the generated test cubes in generation ("tool") order.
        circuit_name: name of the circuit the cubes target.
        detected_faults: faults covered, mapped to the cube index that first
            detects them (via the random-filled copy used for dropping).
        untestable_faults: faults PODEM proved redundant.
        aborted_faults: faults abandoned at the backtrack limit.
        total_faults: size of the collapsed fault list.
    """

    cubes: TestSet
    circuit_name: str
    detected_faults: Dict[StuckAtFault, int] = field(default_factory=dict)
    untestable_faults: List[StuckAtFault] = field(default_factory=list)
    aborted_faults: List[StuckAtFault] = field(default_factory=list)
    total_faults: int = 0

    @property
    def fault_coverage(self) -> float:
        """Detected / total collapsed faults (testable or not)."""
        return len(self.detected_faults) / self.total_faults if self.total_faults else 1.0

    @property
    def x_percent(self) -> float:
        """Average percentage of X bits in the cubes (the paper's Table I metric)."""
        return 100.0 * self.cubes.x_fraction


def _random_fill(cube: TestCube, rng: np.random.Generator) -> np.ndarray:
    bits = np.array(cube.bits, dtype=BIT_DTYPE)
    mask = bits == X
    bits[mask] = rng.integers(0, 2, size=int(mask.sum())).astype(BIT_DTYPE)
    return bits


def generate_test_cubes(
    circuit: Circuit,
    max_faults: Optional[int] = None,
    max_patterns: Optional[int] = None,
    backtrack_limit: int = 100,
    drop_with_fault_sim: bool = True,
    seed: int = 0,
) -> ATPGResult:
    """Generate a stuck-at test-cube set for ``circuit``.

    Args:
        circuit: circuit under test.
        max_faults: optionally cap the number of target faults (the cap is a
            deterministic stratified sample of the collapsed list, keeping the
            run time of the large benchmarks under control).
        max_patterns: optionally stop once this many cubes were emitted.
        backtrack_limit: PODEM abort threshold per fault.
        drop_with_fault_sim: fault-simulate a random fill of each new cube and
            drop the other faults it detects (the standard ATPG flow).  When
            disabled every target fault gets its own cube.
        seed: seed for the random fill used during dropping.

    Returns:
        An :class:`ATPGResult` whose ``cubes`` are in generation order.
    """
    faults = collapse_faults(circuit)
    if max_faults is not None and len(faults) > max_faults:
        stride = len(faults) / max_faults
        faults = [faults[int(i * stride)] for i in range(max_faults)]

    engine = PodemEngine(circuit, backtrack_limit=backtrack_limit)
    simulator = FaultSimulator(circuit) if drop_with_fault_sim else None
    rng = np.random.default_rng(seed)

    result = ATPGResult(
        cubes=TestSet([]),
        circuit_name=circuit.name,
        total_faults=len(faults),
    )
    cube_list: List[TestCube] = []
    remaining: Dict[StuckAtFault, None] = dict.fromkeys(faults)

    for fault in faults:
        if fault not in remaining:
            continue
        if max_patterns is not None and len(cube_list) >= max_patterns:
            break
        podem = engine.generate(fault)
        if podem.status == "untestable":
            result.untestable_faults.append(fault)
            remaining.pop(fault, None)
            continue
        if podem.status == "aborted":
            result.aborted_faults.append(fault)
            remaining.pop(fault, None)
            continue

        cube = podem.cube
        cube_index = len(cube_list)
        cube_list.append(cube)
        result.detected_faults[fault] = cube_index
        remaining.pop(fault, None)

        if simulator is not None and remaining:
            filled = _random_fill(cube, rng)
            batch = TestSet.from_matrix(filled.reshape(1, -1))
            sim = simulator.run(batch, list(remaining.keys()))
            for dropped in sim.detected:
                result.detected_faults[dropped] = cube_index
                remaining.pop(dropped, None)

    result.cubes = TestSet(cube_list) if cube_list else TestSet([])
    return result
