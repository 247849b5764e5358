"""Simulation backend registry.

A *backend* bundles a logic-simulator and a fault-simulator factory under a
name.  Consumers (``FaultSimulator``, ``PowerEstimator``, the experiment
runner) resolve a backend by name through :func:`get_backend` instead of
hard-wiring a simulator class, so swapping the whole simulation substrate —
or registering a new one with :func:`register_backend` — is a one-line
change that leaves every public API untouched.

Resolution order for the backend name:

1. the explicit ``name`` argument (or a ready :class:`SimulationBackend`
   instance, passed through unchanged);
2. the process-wide default set with :func:`set_default_backend`
   (the experiment runner's ``--backend`` flag uses this);
3. the ``REPRO_BACKEND`` environment variable;
4. ``"packed"`` — the compiled bit-parallel engine.

The ``"naive"`` backend is the original dict-walking reference
implementation; it stays registered both as the parity oracle for the
engine tests and as an escape hatch (``REPRO_BACKEND=naive``).
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Union

from repro import envvars
from repro.circuit.netlist import Circuit
from repro.circuit.simulator import LogicSimulator
from repro.engine.compile import CompiledCircuit, compile_circuit
from repro.engine.fault import NaiveFaultSimulator, PackedFaultSimulator
from repro.engine.packed import PackedLogicSimulator

#: Environment variable overriding the default backend name.
BACKEND_ENV_VAR = envvars.BACKEND.name

DEFAULT_BACKEND_NAME = "packed"


class SimulationBackend:
    """Factory pair for one simulation implementation.

    Subclasses set :attr:`name` and implement the two factories; instances
    are registered once and shared process-wide, so any state they keep must
    be a pure cache (idempotent and safe to share between callers).
    """

    name: str = "?"

    #: PODEM implication implementation the backend prefers when
    #: ``REPRO_ATPG_MODE`` is ``auto`` (see :mod:`repro.engine.ternary`):
    #: every compiled backend uses the ternary array engine, the naive
    #: backend keeps the dict reference as the oracle.
    atpg_mode: str = "compiled"

    def logic_simulator(self, circuit: Circuit):
        """Build a logic simulator (``simulate``/``observe_outputs``/... surface)."""
        raise NotImplementedError

    def fault_simulator(self, circuit: Circuit):
        """Build a fault simulator (``run(patterns, faults, drop_detected)``)."""
        raise NotImplementedError


class NaiveBackend(SimulationBackend):
    """The original pure-NumPy, dict-per-net reference implementation."""

    name = "naive"
    atpg_mode = "dict"

    def logic_simulator(self, circuit: Circuit) -> LogicSimulator:
        return LogicSimulator(circuit)

    def fault_simulator(self, circuit: Circuit) -> NaiveFaultSimulator:
        return NaiveFaultSimulator(circuit)


class PackedBackend(SimulationBackend):
    """Compiled bit-packed engine (64 patterns per machine word).

    Each circuit is compiled exactly once per process: the compiled program
    (and with it the fault-cone cache) is shared by every simulator built
    for that circuit.  The cache holds circuits weakly and is invalidated
    through :meth:`Circuit.structure_token`, so mutating a netlist after
    simulating it triggers a clean recompile instead of stale results.
    """

    name = "packed"

    def __init__(self) -> None:
        self._programs: "weakref.WeakKeyDictionary[Circuit, Tuple[object, CompiledCircuit]]" = (
            weakref.WeakKeyDictionary()
        )

    def compiled_program(self, circuit: Circuit) -> CompiledCircuit:
        """The process-wide compiled program for ``circuit`` (memoised)."""
        entry = self._programs.get(circuit)
        if entry is not None:
            token, program = entry
            if circuit.structure_token() is token:
                return program
        program = compile_circuit(circuit)
        self._programs[circuit] = (circuit.structure_token(), program)
        return program

    def logic_simulator(self, circuit: Circuit) -> PackedLogicSimulator:
        return PackedLogicSimulator(circuit, program=self.compiled_program(circuit))

    def fault_simulator(self, circuit: Circuit) -> PackedFaultSimulator:
        return PackedFaultSimulator(circuit, program=self.compiled_program(circuit))


_REGISTRY: Dict[str, SimulationBackend] = {}
_default_name: Optional[str] = None


def register_backend(backend: SimulationBackend, overwrite: bool = False) -> None:
    """Register a backend under ``backend.name``.

    Args:
        backend: the backend instance (must be stateless / reusable).
        overwrite: allow replacing an existing registration.

    Raises:
        ValueError: when the name is taken and ``overwrite`` is false.
    """
    if backend.name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def available_backends() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def default_backend_name() -> str:
    """The name used when no backend is requested explicitly."""
    if _default_name is not None:
        return _default_name
    return envvars.BACKEND.read() or DEFAULT_BACKEND_NAME


def set_default_backend(name: Optional[str]) -> Optional[str]:
    """Set (or with ``None`` clear) the process-wide default backend.

    Returns:
        The previous override (``None`` if none was set), so callers can
        restore it: ``previous = set_default_backend("naive"); ...;
        set_default_backend(previous)``.

    Raises:
        KeyError: for unregistered names.
    """
    global _default_name
    if name is not None and name not in _REGISTRY:
        raise KeyError(f"unknown backend {name!r}; registered: {available_backends()}")
    previous = _default_name
    _default_name = name
    return previous


def get_backend(name: Union[str, SimulationBackend, None] = None) -> SimulationBackend:
    """Resolve a backend (see the module docstring for the resolution order).

    Raises:
        KeyError: for unregistered names.
    """
    if isinstance(name, SimulationBackend):
        return name
    key = name or default_backend_name()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown backend {key!r}; registered: {available_backends()}"
        ) from None


register_backend(NaiveBackend())
register_backend(PackedBackend())
