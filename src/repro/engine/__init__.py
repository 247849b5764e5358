"""Compiled bit-packed simulation engine with pluggable backends.

The engine compiles a :class:`~repro.circuit.netlist.Circuit` once into a
flat array program (:mod:`repro.engine.compile`), evaluates it bit-parallel
with one big-int lane per net holding every pattern
(:mod:`repro.engine.packed`), and grades fault lists with cone-restricted
re-evaluation and real fault dropping, one fault per pass on pattern lanes
(``lanes``) or 64 faults per word (``faults``) (:mod:`repro.engine.fault`).
:mod:`repro.engine.backend` exposes the registry through which the ATPG, power and experiment layers pick an
implementation without changing their public APIs: ``naive`` (the
dict-walking reference) or ``packed``, both in process.
:mod:`repro.engine.pool` sizes and owns the shared spawn pool that the
experiment runner's ``--jobs N`` cells run on (see
:mod:`repro.experiments.runner`).
"""

from repro.engine.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND_NAME,
    NaiveBackend,
    PackedBackend,
    SimulationBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
)
from repro.engine.compile import CompiledCircuit, compile_circuit
from repro.engine.fault import (
    DROP_BLOCK_PATTERNS,
    FAULT_MODE_ENV_VAR,
    FAULT_MODES,
    FAULT_WORD_LANES,
    FAULTS_MODE_MAX_PATTERNS,
    FAULTS_MODE_FAULTS_PER_PATTERN,
    FaultSimulationResult,
    NaiveFaultSimulator,
    PackedFaultSimulator,
    fault_lane_mask,
    resolve_fault_mode,
    resolve_grading_kernel,
)
from repro.engine.packed import PackedLogicSimulator
from repro.engine.ternary import (
    ATPG_MODE_ENV_VAR,
    ATPG_MODES,
    CompiledTernaryPodem,
    resolve_atpg_mode,
)
from repro.engine.pool import (
    JOBS_ENV_VAR,
    default_jobs,
    parse_jobs,
    resolve_jobs,
    set_default_jobs,
    shutdown_worker_pool,
    worker_pool,
)

__all__ = [
    "ATPG_MODE_ENV_VAR",
    "ATPG_MODES",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND_NAME",
    "DROP_BLOCK_PATTERNS",
    "FAULT_MODE_ENV_VAR",
    "FAULT_MODES",
    "FAULT_WORD_LANES",
    "FAULTS_MODE_MAX_PATTERNS",
    "FAULTS_MODE_FAULTS_PER_PATTERN",
    "JOBS_ENV_VAR",
    "CompiledCircuit",
    "CompiledTernaryPodem",
    "FaultSimulationResult",
    "NaiveBackend",
    "NaiveFaultSimulator",
    "PackedBackend",
    "PackedFaultSimulator",
    "PackedLogicSimulator",
    "SimulationBackend",
    "available_backends",
    "compile_circuit",
    "default_backend_name",
    "default_jobs",
    "fault_lane_mask",
    "get_backend",
    "parse_jobs",
    "register_backend",
    "resolve_atpg_mode",
    "resolve_fault_mode",
    "resolve_grading_kernel",
    "resolve_jobs",
    "set_default_backend",
    "set_default_jobs",
    "shutdown_worker_pool",
    "worker_pool",
]
