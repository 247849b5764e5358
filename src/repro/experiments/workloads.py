"""Workload construction: circuit + tool-ordered cube set per benchmark.

A *workload* bundles everything one experiment row needs: the (possibly
scaled) stand-in circuit, the test-cube set in generation ("tool") order, and
bookkeeping about how the cubes were produced.

Two cube sources exist, chosen per profile:

* ``"podem"`` — the full ATPG flow (collapse, PODEM, fault-dropping).  Used
  for the small circuits where the pure-Python engine is fast; the cube
  X density is whatever the flow produces.
* ``"synthetic"`` — the calibrated cube generator targeting the X density the
  paper reports in Table I.  Used for the medium/large profiles, where
  running PODEM in pure Python would dominate the experiment runtime.

Workloads are cached in memory (per process), because every table of the
evaluation reuses the same workloads.  PODEM cube sets are also cached on
disk.  Synthetic sets are not: they depend only on ``(n_pins, n_patterns,
x_fraction, seed)``, and regenerating one costs about what a cache hit spends
digesting the circuit for its key.

Environment variables
---------------------
``REPRO_INCLUDE_LARGE=1``
    also build the largest profiles (b14–b22), scaled to a tractable size.
``REPRO_FULL_SCALE=1``
    do not scale the large profiles (slow; full-size circuits and cube sets).
``REPRO_CACHE_DIR``
    directory for the on-disk cache of PODEM cube sets (default
    ``.repro_cache`` in the working directory); set to ``0`` or ``off`` to
    disable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro import envvars
from repro.atpg.tpg import generate_test_cubes
from repro.benchmarks_data.profiles import BenchmarkProfile, get_profile
from repro.circuit.library import itc99_like
from repro.circuit.netlist import Circuit
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set

#: Circuits at or below this gate count run the full PODEM flow by default.
ATPG_GATE_LIMIT = 250
#: Large profiles are scaled so their stand-in circuit stays below this size.
SCALED_GATE_TARGET = 2500
#: ATPG knobs chosen to keep the pure-Python flow fast.
ATPG_MAX_FAULTS = 150
ATPG_BACKTRACK_LIMIT = 15


@dataclass
class Workload:
    """One benchmark's circuit and tool-ordered cube set.

    Attributes:
        name: benchmark name (``b01`` ... ``b22``).
        profile: the Table I profile the workload reproduces.
        circuit: the stand-in circuit (possibly scaled for large profiles).
        cubes: partially specified test cubes in generation order.
        cube_source: ``"podem"`` or ``"synthetic"``.
        scale: circuit scaling factor applied (1.0 = full published size).
    """

    name: str
    profile: BenchmarkProfile
    circuit: Circuit
    cubes: TestSet
    cube_source: str
    scale: float = 1.0

    @property
    def x_percent(self) -> float:
        """Measured X density of the cube set, as a percentage."""
        return 100.0 * self.cubes.x_fraction


def _cache_dir() -> Optional[Path]:
    value = envvars.CACHE_DIR.read()
    if value is None:
        return None
    path = Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def include_large_profiles() -> bool:
    """Whether the harness should also build the largest ITC'99 profiles."""
    return envvars.INCLUDE_LARGE.read()


def full_scale() -> bool:
    """Whether large profiles should be built at their full published size."""
    return envvars.FULL_SCALE.read()


def default_workload_names(include_large: Optional[bool] = None) -> List[str]:
    """Benchmarks the experiments run over, in size order."""
    from repro.benchmarks_data.profiles import default_benchmark_names

    if include_large is None:
        include_large = include_large_profiles()
    return default_benchmark_names(include_large=include_large)


def _load_cached_cubes(key: str, n_pins: int) -> Optional[TestSet]:
    directory = _cache_dir()
    if directory is None:
        return None
    path = directory / f"{key}.npz"
    if not path.exists():
        return None
    try:
        data = np.load(path)["cubes"]
    except Exception:  # pragma: no cover  # repro: allow[R6] corrupt cache
        return None  # entries are discarded and rebuilt from scratch
    if data.ndim != 2 or data.shape[1] != n_pins:
        return None
    return TestSet.from_matrix(data.astype(np.int8))


def _store_cached_cubes(key: str, cubes: TestSet) -> None:
    directory = _cache_dir()
    if directory is None:
        return
    # Write-to-temp + atomic rename: parallel experiment cells may build the
    # same workload concurrently, and a torn .npz must never be observable
    # (a half-written file would otherwise poison every later run).
    path = directory / f"{key}.npz"
    temp = directory / f".{key}.{os.getpid()}.tmp.npz"
    try:
        np.savez_compressed(temp, cubes=cubes.matrix)
        os.replace(temp, path)
    except Exception:  # pragma: no cover  # repro: allow[R6] the cache is an
        # optimisation; a full disk must not fail the experiment itself
        try:
            temp.unlink()
        except OSError:
            pass


def _cube_cache_key(profile: BenchmarkProfile, circuit: Circuit, seed: int) -> str:
    """Disk-cache key for one workload's PODEM cube set.

    The key must change whenever *anything* that shaped the cubes changes:
    besides the profile/seed/shape it therefore includes the circuit's
    content digest (an edited netlist must not be served another netlist's
    cubes) and the ATPG knobs (a changed backtrack limit, fault cap or
    dropping mode produces different cubes from the same circuit).
    """
    knobs = f"bt{ATPG_BACKTRACK_LIMIT}_mf{ATPG_MAX_FAULTS}_drop1"
    return (
        f"{profile.name}_podem_s{seed}_{circuit.n_test_pins}x{profile.n_patterns}"
        f"_{circuit.structure_digest()[:12]}_{knobs}"
    )


def _build_podem_cubes(circuit: Circuit, profile: BenchmarkProfile, seed: int) -> TestSet:
    result = generate_test_cubes(
        circuit,
        max_faults=ATPG_MAX_FAULTS,
        backtrack_limit=ATPG_BACKTRACK_LIMIT,
        seed=seed,
    )
    cubes = result.cubes
    if len(cubes) < 4:
        # Degenerate circuits (nearly everything untestable) fall back to the
        # synthetic generator so downstream experiments still have material.
        return _build_synthetic_cubes(circuit, profile, seed)
    return cubes


def _build_synthetic_cubes(circuit: Circuit, profile: BenchmarkProfile, seed: int) -> TestSet:
    spec = CubeSetSpec(
        n_pins=circuit.n_test_pins,
        n_patterns=profile.n_patterns,
        x_fraction=min(profile.x_fraction, 0.97),
        seed=seed,
    )
    return generate_cube_set(spec)


@lru_cache(maxsize=None)
def build_workload(name: str, seed: int = 0) -> Workload:
    """Build (or fetch from cache) the workload for one benchmark.

    Args:
        name: benchmark name from Table I (``b01`` ... ``b22``).
        seed: seed controlling circuit generation, ATPG dropping order and the
            synthetic cube generator.
    """
    profile = get_profile(name)

    scale = 1.0
    if profile.gates > SCALED_GATE_TARGET and not full_scale():
        scale = SCALED_GATE_TARGET / profile.gates
    circuit = itc99_like(profile.name, scale=None if scale == 1.0 else scale, seed=seed)

    if profile.gates <= ATPG_GATE_LIMIT:
        source = "podem"
        cache_key = _cube_cache_key(profile, circuit, seed)
        cubes = _load_cached_cubes(cache_key, circuit.n_test_pins)
        if cubes is None:
            cubes = _build_podem_cubes(circuit, profile, seed)
            _store_cached_cubes(cache_key, cubes)
    else:
        source = "synthetic"
        cubes = _build_synthetic_cubes(circuit, profile, seed)

    return Workload(
        name=profile.name,
        profile=profile,
        circuit=circuit,
        cubes=cubes,
        cube_source=source,
        scale=scale,
    )


def build_workloads(names: Optional[List[str]] = None, seed: int = 0) -> List[Workload]:
    """Build workloads for ``names`` (default: the default benchmark list)."""
    return [build_workload(name, seed=seed) for name in (names or default_workload_names())]
