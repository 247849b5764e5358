"""The ``cluster`` simulation backend: shard work units over a transport.

Registers ``"cluster"`` in the engine's backend registry so every existing
surface — ``FaultSimulator``, ``PowerEstimator``, ``generate_test_cubes``,
the experiment runner — can fan work out over a cluster transport with
nothing but ``REPRO_BACKEND=cluster`` (and optionally
``REPRO_TRANSPORT=local|mp``).  Logic simulation stays in
process (one compiled pass — shipping it out would cost more than it
saves); fault simulation fans out through
:class:`~repro.cluster.fault_sim.ClusterFaultSimulator`, and the ATPG
driver picks up :class:`~repro.cluster.atpg.ClusterPodemScheduler` for
cube generation.  The compiled-program memoisation is inherited from
:class:`~repro.engine.backend.PackedBackend`, so parent and workers agree
on a single program per circuit.
"""

from __future__ import annotations

from typing import Optional

from repro.circuit.netlist import Circuit
from repro.cluster.fault_sim import ClusterFaultSimulator
from repro.engine.backend import PackedBackend, available_backends, register_backend


class ClusterBackend(PackedBackend):
    """Backend pairing the packed logic simulator with cluster fault grading.

    Args:
        transport: transport name pinned for every simulator this backend
            builds; ``None`` resolves per run (``REPRO_TRANSPORT`` /
            runner ``--transport``).
        jobs: worker count pinned likewise (``None``: ``REPRO_JOBS``).
    """

    name = "cluster"

    def __init__(
        self, transport: Optional[str] = None, jobs: Optional[int] = None
    ) -> None:
        super().__init__()
        self.transport = transport
        self.jobs = jobs

    def fault_simulator(self, circuit: Circuit) -> ClusterFaultSimulator:
        return ClusterFaultSimulator(
            circuit,
            transport=self.transport,
            jobs=self.jobs,
            program=self.compiled_program(circuit),
        )


if "cluster" not in available_backends():
    register_backend(ClusterBackend())
