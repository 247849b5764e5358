"""Packed engine vs reference engines: simulation benchmarks.

The package ships one simulation engine, the compiled packed one; the naive
references it replaced live in ``tests/reference_engines.py``, so run this
from the repository root with ``PYTHONPATH=src:.``.  Two entry points:

* ``pytest benchmarks/bench_engine.py --benchmark-only`` — pytest-benchmark
  timings of logic simulation, fault simulation and power estimation on the
  harness's benchmark profiles, one run per engine (``naive``, ``packed``).
* ``PYTHONPATH=src:. python benchmarks/bench_engine.py`` — a standalone
  speedup report (wall-clock, a fresh simulator per run, built exactly like
  production callers build them; the packed engine's compile-once program
  cache is therefore in play, as designed) used to record the headline
  numbers in ``CHANGES.md``.  Results are asserted identical between the
  engines before any timing is reported, and the full timing table is also
  written to ``BENCH_engine.json`` (per profile, per engine, plus speedups
  and the git SHA) so the perf trajectory is machine-readable.

The standalone mode also sweeps the fault-parallel ``faults`` kernel (64
faults per word) against pattern-parallel ``lanes`` on the
many-faults/few-patterns shapes it is designed for, per profile, records
which kernel each shape resolves to, and times PODEM end to end with the
fault-packed drop sweep on vs off (byte-identical ``ATPGResult``s asserted
first, the kernel pinned with ``tests/helpers.py::grading_kernel``).

Acceptance gates:

* packed must be at least 5x faster than naive on the largest profile (the
  engine-subsystem gate);
* the ``faults`` kernel must be at least 2x faster than ``lanes`` on the
  largest profile's many-faults/few-patterns shape (single-core lane
  packing, so always enforced);
* telemetry (``repro.obs``) may cost at most 2% on the largest profile's
  packed fault kernel — measured with tracing *enabled* vs disabled, which
  bounds the disabled-mode overhead from above (the disabled path runs a
  strict subset of the enabled path's work: no-op attribute calls only).

The standalone mode also records a traced pass's per-kernel span breakdown
in a new ``obs`` section of ``BENCH_engine.json``, and ``--metrics PATH``
(or ``REPRO_METRICS``) additionally writes that pass as a standalone
metrics artifact (see ``repro.obs.metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import envvars
from repro.atpg.collapse import collapse_faults
from repro.atpg.podem import PodemEngine
from repro.atpg.tpg import generate_test_cubes
from repro.core.dpfill import dp_fill
from repro.cubes.cube import TestSet
from repro.engine.fault import (
    FAULTS_MODE_MAX_PATTERNS,
    PackedFaultSimulator,
    resolve_grading_kernel,
)
from repro.engine.packed import PackedLogicSimulator
from repro.experiments.workloads import Workload, build_workload, default_workload_names
from repro.obs import metrics as obs_metrics
from repro.obs import timeline as obs_timeline
from repro.obs import recorder as obs
from repro.power.estimator import PowerEstimator
from tests.helpers import grading_kernel
from tests.reference_engines import (
    DictPodemEngine,
    LogicSimulator,
    NaiveFaultSimulator,
    naive_power_estimator,
)

#: Logic-simulator, fault-simulator and power-estimator factories per
#: engine: the references of ``tests/reference_engines.py`` and the packed
#: engine (which reads each circuit's process-wide compiled program).
ENGINES = {
    "naive": (LogicSimulator, NaiveFaultSimulator, naive_power_estimator),
    "packed": (PackedLogicSimulator, PackedFaultSimulator, PowerEstimator),
}
BACKENDS = list(ENGINES)

#: Pattern widths for the fault-parallel kernel sweep: the
#: many-faults/few-patterns shapes the ``faults`` kernel is designed for
#: (PODEM's drop sweep grades a single filled cube), the auto-threshold
#: edge, and two widths past the crossover back to lanes.
FAULT_PARALLEL_WIDTHS = [1, 4, 8, 32]
#: Profile for the pytest-benchmark kernel comparison.
FAULT_PARALLEL_PROFILE = "b08"
#: ``faults`` must beat lanes by this factor on the largest profile's
#: many-faults/few-patterns shape.
FAULT_PARALLEL_GATE_SPEEDUP = 2.0
#: Fault cap for the PODEM end-to-end A/B (the workload builder's value).
FAULT_PARALLEL_ATPG_FAULTS = 150

#: ATPG sweep knobs: faults per profile (stratified sample of the collapsed
#: list — the dict reference needs tens of seconds per hundred faults on the
#: largest profile, which is the point of the sweep) and the PODEM backtrack
#: limit (the workload builder's value).
ATPG_BENCH_FAULTS = 32
ATPG_BENCH_BACKTRACKS = 15
#: Compiled ternary PODEM must beat the dict reference by this factor on the
#: largest profile (the ATPG acceptance gate).
ATPG_GATE_SPEEDUP = 3.0

#: Tracing may cost at most this much on the largest profile's packed fault
#: kernel, enabled vs disabled (the observability acceptance gate).
OBS_GATE_OVERHEAD_PCT = 2.0
#: Best-of repeats for the overhead measurement (the margin is small, so
#: more repeats than the throughput sweeps use; off/on runs interleave so
#: machine drift hits both sides equally).
OBS_OVERHEAD_REPEATS = 9

#: Mirrors ``conftest.bench_names`` (kept local so ``python
#: benchmarks/bench_engine.py`` works without pytest's conftest loading).
BENCH_NAMES = ["b01", "b03", "b08", "b04", "b12"]

#: Where the standalone mode drops its machine-readable results.
BENCH_JSON = Path("BENCH_engine.json")


def bench_names() -> List[str]:
    """Benchmark names the engine comparison runs over."""
    if envvars.BENCH_FULL.read():
        return default_workload_names()
    return list(BENCH_NAMES)


def _filled_patterns(workload: Workload) -> TestSet:
    return dp_fill(workload.cubes).filled


# -- pytest-benchmark harness ----------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", bench_names())
def test_bench_logic_simulation(benchmark, name, backend):
    workload = build_workload(name)
    patterns = _filled_patterns(workload)
    simulator = ENGINES[backend][0](workload.circuit)
    values = benchmark(lambda: simulator.simulate(patterns.matrix))
    assert len(values) > 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", bench_names())
def test_bench_fault_simulation(benchmark, name, backend):
    workload = build_workload(name)
    patterns = _filled_patterns(workload)
    faults = collapse_faults(workload.circuit)
    simulator = ENGINES[backend][1](workload.circuit)
    result = benchmark(lambda: simulator.run(patterns, faults))
    assert result.n_patterns == len(patterns)


def _wide_patterns(circuit, n_patterns: int) -> TestSet:
    """A deterministic random pattern set of the requested width."""
    rng = np.random.default_rng(7)
    return TestSet.from_matrix(
        rng.integers(0, 2, size=(n_patterns, circuit.n_test_pins)).astype(np.int8)
    )


@pytest.mark.parametrize("fault_mode", ["lanes", "faults"])
def test_bench_fault_parallel_shape(benchmark, fault_mode):
    # The many-faults/few-patterns shape the fault-parallel kernel targets.
    workload = build_workload(FAULT_PARALLEL_PROFILE)
    patterns = _wide_patterns(workload.circuit, 8)
    faults = collapse_faults(workload.circuit)
    simulator = PackedFaultSimulator(workload.circuit)
    with grading_kernel(fault_mode):
        result = benchmark(lambda: simulator.run(patterns, faults))
    assert result.n_patterns == 8


def _sampled_faults(circuit, cap: int = ATPG_BENCH_FAULTS):
    faults = collapse_faults(circuit)
    if len(faults) <= cap:
        return faults
    stride = len(faults) / cap
    return [faults[int(i * stride)] for i in range(cap)]


@pytest.mark.parametrize("atpg_mode", ["dict", "compiled"])
@pytest.mark.parametrize("name", ["b01", "b08"])
def test_bench_podem(benchmark, name, atpg_mode):
    # Only the small profiles: the dict reference needs tens of seconds per
    # round on the larger ones (the standalone sweep covers those once).
    workload = build_workload(name)
    faults = _sampled_faults(workload.circuit)
    engine = (DictPodemEngine if atpg_mode == "dict" else PodemEngine)(
        workload.circuit, backtrack_limit=ATPG_BENCH_BACKTRACKS
    )
    results = benchmark(lambda: [engine.generate(fault) for fault in faults])
    assert len(results) == len(faults)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", bench_names())
def test_bench_power_estimation(benchmark, name, backend):
    workload = build_workload(name)
    patterns = _filled_patterns(workload)
    estimator = ENGINES[backend][2](workload.circuit)
    report = benchmark(lambda: estimator.estimate(patterns))
    assert report.peak_power_uw >= 0.0


# -- standalone speedup report ---------------------------------------------
def _time_best(build: Callable[[], Callable[[], object]], repeats: int = 3) -> Tuple[float, object]:
    """Best wall-clock of ``repeats`` cold runs (a fresh callable per run)."""
    best, result = float("inf"), None
    for _ in range(repeats):
        run = build()
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        )
    except Exception:
        return "unknown"


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _write_json(
    rows: List[dict],
    largest: dict,
    fault_parallel: dict,
    atpg: dict,
    obs_section: dict,
) -> None:
    payload = {
        "schema": 9,
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "available_cores": _available_cores(),
        "backends": list(BACKENDS),
        "profiles": rows,
        "largest": largest,
        "fault_parallel": fault_parallel,
        "atpg": atpg,
        "obs": obs_section,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {BENCH_JSON.resolve()}")


def _fault_parallel_sweep() -> dict:
    """Two-way kernel sweep on the many-faults/few-patterns shapes.

    For every benchmark profile, time ``lanes`` vs ``faults``
    across :data:`FAULT_PARALLEL_WIDTHS` over the full collapsed fault list
    (parity asserted before any timing is reported), record which kernel
    the run's shape resolves to at each width, and finish with a PODEM
    end-to-end A/B: ``generate_test_cubes`` with the fault-packed drop sweep
    pinned off (``lanes``) vs on (``faults``), byte-identical
    ``ATPGResult``s asserted first.  Returns the ``fault_parallel`` section
    for ``BENCH_engine.json``.
    """
    names = bench_names()
    print("\nfault-parallel kernel (64 faults/word) vs lanes, per profile:")
    header = (
        f"{'circuit':>8} {'faults':>6} {'pats':>5} {'lanes (ms)':>11} "
        f"{'faults (ms)':>12} {'vs lanes':>8} {'auto':>7}"
    )
    print(header)
    print("-" * len(header))
    rows: List[dict] = []
    for name in names:
        workload = build_workload(name)
        circuit = workload.circuit
        faults = collapse_faults(circuit)
        widths: List[dict] = []
        for n_patterns in FAULT_PARALLEL_WIDTHS:
            patterns = _wide_patterns(circuit, n_patterns)
            timings: Dict[str, float] = {}
            results = {}
            for kernel in ("lanes", "faults"):
                with grading_kernel(kernel):
                    t_kernel, res = _time_best(
                        lambda: lambda: PackedFaultSimulator(circuit).run(patterns, faults),
                        repeats=2,
                    )
                timings[kernel] = t_kernel
                results[kernel] = res
            assert list(results["lanes"].detected.items()) == list(
                results["faults"].detected.items()
            ), (name, n_patterns)
            assert results["lanes"].undetected == results["faults"].undetected, (
                name,
                n_patterns,
            )
            speedup = timings["lanes"] / timings["faults"]
            auto_kernel = resolve_grading_kernel(n_patterns, len(faults))
            widths.append(
                {
                    "patterns": n_patterns,
                    "seconds": dict(timings),
                    "faults_speedup_vs_lanes": speedup,
                    "auto_kernel": auto_kernel,
                }
            )
            print(
                f"{name:>8} {len(faults):>6} {n_patterns:>5} "
                f"{timings['lanes'] * 1000:>11.1f} "
                f"{timings['faults'] * 1000:>12.1f} {speedup:>7.2f}x {auto_kernel:>7}"
            )
        rows.append(
            {
                "circuit": name,
                "gates": circuit.n_gates,
                "faults": len(faults),
                "widths": widths,
            }
        )

    largest = max(rows, key=lambda row: row["gates"])
    gate_widths = [w for w in largest["widths"] if w["auto_kernel"] == "faults"]
    gate_row = max(gate_widths, key=lambda w: w["faults_speedup_vs_lanes"])
    print(
        f"largest profile ({largest['circuit']}): faults kernel "
        f"{gate_row['faults_speedup_vs_lanes']:.2f}x vs lanes at "
        f"{gate_row['patterns']} patterns "
        f"(gate: >= {FAULT_PARALLEL_GATE_SPEEDUP:.0f}x; auto picks faults up to "
        f"{FAULTS_MODE_MAX_PATTERNS} patterns)"
    )

    # PODEM end to end: the drop sweep's one-fault tail, collapsed vs not.
    circuit = build_workload(largest["circuit"]).circuit
    atpg_kwargs = dict(
        max_faults=FAULT_PARALLEL_ATPG_FAULTS,
        backtrack_limit=ATPG_BENCH_BACKTRACKS,
        seed=0,
    )
    with grading_kernel("lanes"):
        t_lanes, res_lanes = _time_best(
            lambda: lambda: generate_test_cubes(circuit, **atpg_kwargs), repeats=2
        )
    with grading_kernel("faults"):
        t_faults, res_faults = _time_best(
            lambda: lambda: generate_test_cubes(circuit, **atpg_kwargs), repeats=2
        )
    assert np.array_equal(res_lanes.cubes.matrix, res_faults.cubes.matrix)
    assert res_lanes.cubes.names == res_faults.cubes.names
    assert list(res_lanes.detected_faults.items()) == list(
        res_faults.detected_faults.items()
    )
    assert res_lanes.untestable_faults == res_faults.untestable_faults
    assert res_lanes.aborted_faults == res_faults.aborted_faults
    podem_speedup = t_lanes / t_faults
    print(
        f"PODEM end to end on {largest['circuit']}: per-fault drop sweep "
        f"{t_lanes * 1000:.0f}ms, fault-packed {t_faults * 1000:.0f}ms "
        f"({podem_speedup:.2f}x, byte-identical ATPGResult)"
    )
    return {
        "widths": list(FAULT_PARALLEL_WIDTHS),
        "profiles": rows,
        "auto_max_patterns": FAULTS_MODE_MAX_PATTERNS,
        "gate_circuit": largest["circuit"],
        "gate_patterns": gate_row["patterns"],
        "faults_gate_speedup": gate_row["faults_speedup_vs_lanes"],
        "podem_drop": {
            "circuit": largest["circuit"],
            "max_faults": FAULT_PARALLEL_ATPG_FAULTS,
            "seconds": {"lanes": t_lanes, "faults": t_faults},
            "speedup": podem_speedup,
        },
    }


def _atpg_sweep() -> dict:
    """Time dict vs compiled PODEM per profile.

    Parity — statuses, cubes, decision/backtrack counters — is asserted
    before any timing is reported.  Returns the machine-readable section
    for ``BENCH_engine.json``.
    """
    names = bench_names()
    print("\nPODEM test generation (dict reference vs compiled ternary engine):")
    header = (
        f"{'circuit':>8} {'gates':>6} {'faults':>6} "
        f"{'dict (ms)':>10} {'compiled (ms)':>14} {'speedup':>8}"
    )
    print(header)
    print("-" * len(header))
    rows: List[dict] = []
    for name in names:
        workload = build_workload(name)
        circuit = workload.circuit
        faults = _sampled_faults(circuit)
        dict_engine = DictPodemEngine(circuit, backtrack_limit=ATPG_BENCH_BACKTRACKS)
        compiled_engine = PodemEngine(circuit, backtrack_limit=ATPG_BENCH_BACKTRACKS)
        reference = [dict_engine.generate(fault) for fault in faults]
        candidate = [compiled_engine.generate(fault) for fault in faults]
        for ref, res in zip(reference, candidate):
            assert ref.status == res.status, (name, ref.fault)
            assert ref.backtracks == res.backtracks, (name, ref.fault)
            assert ref.decisions == res.decisions, (name, ref.fault)
            if ref.detected:
                assert np.array_equal(
                    np.asarray(ref.cube.bits), np.asarray(res.cube.bits)
                ), (name, ref.fault)
        t_dict, _ = _time_best(
            lambda: lambda: [dict_engine.generate(fault) for fault in faults],
            repeats=2,
        )
        t_compiled, _ = _time_best(
            lambda: lambda: [compiled_engine.generate(fault) for fault in faults],
            repeats=2,
        )
        speedup = t_dict / t_compiled
        rows.append(
            {
                "circuit": name,
                "gates": circuit.n_gates,
                "faults": len(faults),
                "seconds": {"dict": t_dict, "compiled": t_compiled},
                "compiled_speedup": speedup,
            }
        )
        print(
            f"{name:>8} {circuit.n_gates:>6} {len(faults):>6} "
            f"{t_dict * 1000:>10.1f} {t_compiled * 1000:>14.1f} {speedup:>7.1f}x"
        )
    largest_row = max(rows, key=lambda row: row["gates"])
    print(
        f"largest profile ({largest_row['circuit']}): compiled "
        f"{largest_row['compiled_speedup']:.1f}x vs dict "
        f"(gate: >= {ATPG_GATE_SPEEDUP:.0f}x)"
    )
    return {
        "backtrack_limit": ATPG_BENCH_BACKTRACKS,
        "profiles": rows,
        "largest": {
            "circuit": largest_row["circuit"],
            "compiled_speedup": largest_row["compiled_speedup"],
        },
    }


def _obs_sweep(
    largest_row: dict,
    metrics_path: Optional[str],
    trace_path: Optional[str] = None,
) -> dict:
    """Measure tracing overhead and record a traced per-kernel breakdown.

    The overhead number times the packed fault kernel on the largest
    profile with tracing enabled vs disabled.  The instrumentation flushes
    counters once per run — never per inner-loop iteration — so the enabled
    run bounds the disabled-mode overhead from above: with tracing off the
    same call sites hit a no-op :class:`~repro.obs.recorder.NullRecorder`,
    a strict subset of the enabled path's work.

    A dedicated traced pass (fault simulation plus a compiled-PODEM sample)
    then supplies the per-kernel span breakdown for ``BENCH_engine.json``'s
    ``obs`` section and, when a path is configured, the standalone metrics
    artifact.
    """
    name = largest_row["circuit"]
    workload = build_workload(name)
    circuit = workload.circuit
    patterns = _filled_patterns(workload)
    faults = collapse_faults(circuit)

    def build() -> Callable[[], object]:
        simulator = PackedFaultSimulator(circuit)
        return lambda: simulator.run(patterns, faults)

    was_enabled = obs.enabled()
    obs.disable()
    build()()  # warm every cache before either timing pass
    # Interleave off/on runs and alternate which side goes first each round:
    # machine drift over the measurement window then hits both sides equally
    # instead of biasing whichever consistently ran second.
    t_disabled = t_enabled = float("inf")
    for i in range(OBS_OVERHEAD_REPEATS):
        order = (False, True) if i % 2 == 0 else (True, False)
        for with_tracing in order:
            if with_tracing:
                obs.enable()
                t_enabled = min(t_enabled, _time_best(build, repeats=1)[0])
            else:
                obs.disable()
                t_disabled = min(t_disabled, _time_best(build, repeats=1)[0])
    obs.enable()
    overhead_pct = (t_enabled / t_disabled - 1.0) * 100.0

    # Dedicated traced pass: one fault-simulation run plus a compiled-PODEM
    # sample, so the span table covers both kernels on the same profile.
    # The timeline tier stays off for the overhead measurement above — the
    # gate certifies the default configuration — and turns on here only
    # when a trace artifact was requested.
    timeline_here = False
    if trace_path and not obs.timeline_enabled():
        obs.enable_timeline()
        timeline_here = True
    obs.reset()
    build()()
    engine = PodemEngine(circuit, backtrack_limit=ATPG_BENCH_BACKTRACKS)
    for fault in _sampled_faults(circuit):
        engine.generate(fault)
    snap = obs.snapshot()
    meta = {"tool": "bench_engine", "circuit": name, "pass": "traced-breakdown"}
    written = obs_metrics.maybe_write_metrics(metrics_path, meta=meta)
    if trace_path:
        obs_timeline.write_trace(trace_path, obs_metrics.metrics_payload(meta=meta))
    if timeline_here:
        obs.enable_timeline(False)
    if not was_enabled:
        obs.disable()

    spans = [
        {"path": path, "count": row[0], "total_s": row[1], "max_s": row[2]}
        for path, row in sorted(snap["spans"].items())
    ]
    print(
        f"\ntracing overhead on {name} (packed fault kernel): "
        f"off {t_disabled * 1000:.1f}ms, on {t_enabled * 1000:.1f}ms "
        f"({overhead_pct:+.2f}%, gate <= {OBS_GATE_OVERHEAD_PCT:.0f}%)"
    )
    header = f"{'span':<40} {'count':>6} {'total (ms)':>11} {'max (ms)':>9}"
    print(header)
    print("-" * len(header))
    for row in spans:
        print(
            f"{row['path']:<40} {row['count']:>6} "
            f"{row['total_s'] * 1000:>11.1f} {row['max_s'] * 1000:>9.1f}"
        )
    if written:
        print(f"metrics written: {written}")
    if trace_path:
        print(f"trace written: {trace_path} (load it at https://ui.perfetto.dev)")
    return {
        "circuit": name,
        "overhead": {
            "seconds": {"disabled": t_disabled, "enabled": t_enabled},
            "enabled_overhead_pct": overhead_pct,
            "gate_pct": OBS_GATE_OVERHEAD_PCT,
        },
        "counters": dict(sorted(snap["counters"].items())),
        "spans": spans,
        "metrics_path": written,
        "trace_path": trace_path,
    }


def build_parser() -> argparse.ArgumentParser:
    """Standalone-mode command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_engine.py",
        description="Packed-engine speedup report; writes BENCH_engine.json.",
    )
    parser.add_argument(
        "--metrics",
        default="",
        help="also write the traced pass's telemetry as a metrics JSON "
        "artifact at PATH (default: the REPRO_METRICS environment variable)",
    )
    parser.add_argument(
        "--trace-out",
        default="",
        metavar="TRACE_JSON",
        help="also export the traced pass as a Chrome trace-event JSON at "
        "PATH (turns on the timeline tier for that pass only; view at "
        "https://ui.perfetto.dev)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Print the engine speedup table; write ``BENCH_engine.json``."""
    args = build_parser().parse_args(argv)
    metrics_path = obs_metrics.resolve_metrics_path(args.metrics or None)
    trace_path = args.trace_out or None
    names: List[str] = bench_names()
    rows: List[dict] = []
    for name in names:
        workload = build_workload(name)
        circuit = workload.circuit
        patterns = _filled_patterns(workload)
        faults = collapse_faults(circuit)

        timings: Dict[str, Dict[str, float]] = {}
        results = {}
        for backend_name, (logic, fault, power) in ENGINES.items():
            t_logic, _ = _time_best(
                lambda: lambda: logic(circuit).simulate(patterns.matrix)
            )
            t_fault, res = _time_best(
                lambda: lambda: fault(circuit).run(patterns, faults),
                repeats=2,
            )
            t_power, _ = _time_best(lambda: lambda: power(circuit).estimate(patterns))
            timings[backend_name] = {"logic": t_logic, "fault": t_fault, "power": t_power}
            results[backend_name] = res
        reference = results["naive"]
        for backend_name in BACKENDS[1:]:
            other = results[backend_name]
            assert list(reference.detected.items()) == list(other.detected.items()), (
                name,
                backend_name,
            )
            assert reference.undetected == other.undetected, (name, backend_name)
        rows.append(
            {
                "circuit": name,
                "gates": circuit.n_gates,
                "patterns": len(patterns),
                "faults": len(faults),
                "seconds": timings,
                "fault_speedup_packed_vs_naive": timings["naive"]["fault"]
                / timings["packed"]["fault"],
            }
        )

    header = (
        f"{'circuit':>8} {'gates':>6} {'pats':>5} {'faults':>6} "
        f"{'fault n/p (ms)':>17} {'p/n speedup':>11}"
    )
    print(header)
    print("-" * len(header))
    largest_row = max(rows, key=lambda row: row["gates"])
    for row in rows:
        fn = row["seconds"]["naive"]["fault"] * 1000
        fp = row["seconds"]["packed"]["fault"] * 1000
        marker = "  <- largest" if row["circuit"] == largest_row["circuit"] else ""
        print(
            f"{row['circuit']:>8} {row['gates']:>6} {row['patterns']:>5} {row['faults']:>6} "
            f"{fn:>8.1f}/{fp:<8.1f} "
            f"{row['fault_speedup_packed_vs_naive']:>10.1f}x{marker}"
        )

    packed_speedup = largest_row["fault_speedup_packed_vs_naive"]
    largest = {
        "circuit": largest_row["circuit"],
        "fault_speedup_packed_vs_naive": packed_speedup,
    }
    print(
        f"\nlargest profile ({largest_row['circuit']}): packed {packed_speedup:.1f}x vs naive"
    )
    fault_parallel = _fault_parallel_sweep()
    atpg = _atpg_sweep()
    obs_section = _obs_sweep(largest_row, metrics_path, trace_path)
    _write_json(rows, largest, fault_parallel, atpg, obs_section)

    code = 0
    if packed_speedup < 5.0:
        print("WARNING: packed below the 5x acceptance threshold")
        code = 1
    if fault_parallel["faults_gate_speedup"] < FAULT_PARALLEL_GATE_SPEEDUP:
        print(
            f"WARNING: faults kernel below the {FAULT_PARALLEL_GATE_SPEEDUP:.0f}x "
            "acceptance threshold vs lanes on the largest profile's "
            "many-faults/few-patterns shape"
        )
        code = 1
    if atpg["largest"]["compiled_speedup"] < ATPG_GATE_SPEEDUP:
        print(
            f"WARNING: compiled PODEM below the {ATPG_GATE_SPEEDUP:.0f}x "
            "acceptance threshold vs the dict reference on the largest profile"
        )
        code = 1
    if obs_section["overhead"]["enabled_overhead_pct"] > OBS_GATE_OVERHEAD_PCT:
        print(
            f"WARNING: tracing overhead above the {OBS_GATE_OVERHEAD_PCT:.0f}% "
            "acceptance threshold on the largest profile's packed fault kernel"
        )
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
