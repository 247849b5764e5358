"""Test-generation driver: PODEM over a collapsed fault list with fault dropping.

This is the offline replacement for the paper's TetraMax run: it walks the
collapsed fault list in deterministic order, generates a cube per undetected
fault, and fault-simulates a randomly filled copy of each new cube to drop
every other fault it happens to detect.  The order in which cubes are emitted
*is* the "tool ordering" used by Table II of the paper.

Each drop sweep grades one filled cube against *all* remaining faults — the
shape where pattern-parallel kernels degenerate to one fault at a time.
Under the packed backends the sweep therefore runs the fault-parallel
fault-word kernel (``mode="auto"`` resolves to ``"faults"`` for this shape;
see :func:`~repro.engine.fault.packed_first_detects_faults`), grading 64
remaining faults per machine word per cube instead of looping the python
interpreter over every fault.

Generation can fan out across worker processes: the collapsed fault list
is partitioned into chunks and each worker runs the compiled ternary PODEM
engine on its chunk (:class:`~repro.cluster.atpg.ClusterPodemScheduler`,
over the shared spawn pool or the cluster backend's transport), with
detected-fault drops broadcast between chunk submissions.  Because
per-fault PODEM runs are deterministic and the driver merges strictly in
fault-list order — consuming the dropping RNG in that same order — the
resulting :class:`ATPGResult` is bit-identical to a serial run for any
``jobs`` value, including the inline fallback when no pool is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.atpg.collapse import collapse_faults
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault
from repro.atpg.podem import PodemEngine
from repro.circuit.netlist import Circuit
from repro.cubes.bits import BIT_DTYPE, X
from repro.cubes.cube import TestCube, TestSet
from repro.cluster.atpg import ClusterPodemScheduler
from repro.cluster.backend import ClusterBackend
from repro.engine.backend import SimulationBackend
from repro.engine.pool import parse_jobs, resolve_jobs


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
    def test_coverage(self) -> float:
        """Detected / testable faults (untestable faults excluded)."""
        testable = self.total_faults - len(self.untestable_faults)
        return len(self.detected_faults) / testable if testable else 1.0

    @property
    def x_percent(self) -> float:
        """Average percentage of X bits in the cubes (the paper's Table I metric)."""
        return 100.0 * self.cubes.x_fraction


def _random_fill(cube: TestCube, rng: np.random.Generator) -> np.ndarray:
    bits = np.array(cube.bits, dtype=BIT_DTYPE)
    mask = bits == X
    bits[mask] = rng.integers(0, 2, size=int(mask.sum())).astype(BIT_DTYPE)
    return bits


#: Fault lists below this size always generate inline: shipping the compiled
#: program and paying per-chunk IPC cannot amortise over a handful of PODEM
#: runs (the fault-sim analogue is the chunk-plan minimums of
#: :func:`~repro.cluster.protocol.plan_chunks`).  Results are identical
#: either way — this only bounds overhead.
MIN_POOLED_PODEM_FAULTS = 32


def _podem_scheduler(
    engine: PodemEngine, faults: Sequence[StuckAtFault], jobs: Optional[int]
) -> Optional[ClusterPodemScheduler]:
    """Build a pooled PODEM scheduler, or ``None`` for serial generation.

    Pooled generation engages for an explicit ``jobs`` > 1, or — mirroring
    how fault simulation fans out — automatically under the cluster backend.
    It requires the compiled implication engine (the workers run it); with
    the dict reference in effect generation stays serial regardless of
    ``jobs``.  The cluster backend schedules over its resolved transport
    (``REPRO_TRANSPORT``); every other backend over the ``mp`` transport,
    i.e. the shared spawn pool.
    """
    if engine.implementation != "compiled":
        return None
    is_cluster = isinstance(engine.backend, ClusterBackend)
    if jobs is None:
        if not is_cluster:
            return None
        jobs = resolve_jobs(engine.backend.jobs)
    else:
        jobs = parse_jobs(jobs)
    if jobs <= 1 or len(faults) < MIN_POOLED_PODEM_FAULTS:
        return None
    program = engine.program
    scheduler = ClusterPodemScheduler(
        program,
        sites=[program.net_index[fault.net] for fault in faults],
        stuck_values=[fault.stuck_value for fault in faults],
        backtrack_limit=engine.backtrack_limit,
        transport=engine.backend.transport if is_cluster else "mp",
        jobs=jobs,
    )
    return scheduler if scheduler.pooled else None


def generate_test_cubes(
    circuit: Circuit,
    max_faults: Optional[int] = None,
    max_patterns: Optional[int] = None,
    backtrack_limit: int = 100,
    drop_with_fault_sim: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Union[str, SimulationBackend, None] = None,
    atpg_mode: Optional[str] = None,
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
        jobs: worker processes for cube generation; ``None`` fans out only
            under the cluster backend (resolving through ``REPRO_JOBS``),
            ``1`` forces a serial run.  Results are bit-identical for every
            value and every cluster transport.
        backend: simulation backend for PODEM and the dropping fault sim
            (registry default when omitted).
        atpg_mode: PODEM implication implementation (``"auto"`` / ``"dict"``
            / ``"compiled"``); ``None`` resolves through ``REPRO_ATPG_MODE``
            and the backend preference.

    Returns:
        An :class:`ATPGResult` whose ``cubes`` are in generation order.
    """
    faults = collapse_faults(circuit)
    if max_faults is not None and len(faults) > max_faults:
        stride = len(faults) / max_faults
        faults = [faults[int(i * stride)] for i in range(max_faults)]

    engine = PodemEngine(
        circuit, backtrack_limit=backtrack_limit, backend=backend, mode=atpg_mode
    )
    simulator = (
        FaultSimulator(circuit, backend=backend)
        if drop_with_fault_sim
        else None
    )
    scheduler = _podem_scheduler(engine, faults, jobs)
    rng = np.random.default_rng(seed)

    result = ATPGResult(
        cubes=TestSet([]),
        circuit_name=circuit.name,
        total_faults=len(faults),
    )
    cube_list: List[TestCube] = []
    remaining: Dict[StuckAtFault, None] = dict.fromkeys(faults)
    index_of = {fault: index for index, fault in enumerate(faults)}

    for index, fault in enumerate(faults):
        if fault not in remaining:
            continue
        if max_patterns is not None and len(cube_list) >= max_patterns:
            break
        if scheduler is not None:
            podem = engine.result_from_raw(fault, scheduler.fetch(index))
        else:
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
                if scheduler is not None:
                    scheduler.drop(index_of[dropped])

    result.cubes = TestSet(cube_list) if cube_list else TestSet([])
    return result
