"""Which public entry point belongs to which layer, and the per-layer metrics.

:func:`install` hooks the program for one repetition.  Untraced, only the
hooks the output checks need are installed (fills, DP-fill, power grades).
Traced, every entry point below also records spans and counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

from perfbench import checks
from perfbench.spans import Probe, subclasses

#: Layers whose self time is reported, in report order; ``experiments.glue``
#: is the residual (wall minus every named layer) and is computed, not traced.
TIMED_LAYERS: List[str] = [
    "circuit.generate",
    "atpg.generate",
    "cubes.generate",
    "cubes.metrics",
    "orderings.tool",
    "orderings.isa",
    "orderings.xstat",
    "orderings.i-ordering",
    "core.extract",
    "core.bcp",
    "core.reconstruct",
    "core.dp_fill",
    "filling.mt",
    "filling.r",
    "filling.zero",
    "filling.one",
    "filling.b",
    "filling.adj",
    "power.setup",
    "power.estimate",
    "engine.simulate",
]

#: Counts taken in traced runs: (metric, unit, better).
COUNTS: List[Tuple[str, str, str]] = [
    ("circuit.gates", "count", "lower"),
    ("atpg.faults_targeted", "count", "lower"),
    ("atpg.detected", "count", "higher"),
    ("atpg.aborted", "count", "lower"),
    ("atpg.detected_frac", "frac", "higher"),
    ("cubes.cells", "count", "lower"),
    ("orderings.i-ordering.candidates", "count", "lower"),
    ("core.intervals", "count", "lower"),
    ("core.certified_optimal", "count", "higher"),
    ("filling.calls", "count", "lower"),
    ("power.patterns", "count", "lower"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    timed = [(f"{layer}_s", "s", "lower") for layer in TIMED_LAYERS]
    tail = [
        ("experiments.glue_s", "s", "lower"),
        ("trace.coverage", "frac", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return timed + COUNTS + tail


FILL_LAYERS: Dict[str, str] = {
    "MT-fill": "filling.mt",
    "R-fill": "filling.r",
    "0-fill": "filling.zero",
    "1-fill": "filling.one",
    "B-fill": "filling.b",
    "Adj-fill": "filling.adj",
    "DP-fill": "core.dp_fill",  # a thin adapter over dp_fill
}


def install(probe: Probe, counts: Counter, ledger: checks.Ledger, traced: bool) -> None:
    """Hook every entry point of the layer map into ``probe``.

    ``counts`` receives ``dp_fill.results`` / ``core.certified_optimal`` in every
    run (the end-to-end certified fraction needs them) and the per-layer
    counts in traced runs.
    """
    from repro.core.intervals import ExtractionPlan
    from repro.engine.packed import PackedLogicSimulator
    from repro.filling.base import Filler
    from repro.orderings.base import Ordering
    from repro.power.estimator import PowerEstimator

    def count(fn):
        return fn if traced else None

    def layer(name):
        return name if traced else None

    def on_dp_fill(args, kwargs, report):
        source = kwargs.get("patterns", args[0] if args else None)
        counts["dp_fill.results"] += 1
        counts["core.certified_optimal"] += bool(report.is_certified_optimal)
        counts["core.intervals"] += report.interval_count
        ledger.op(checks.fill_problem(source.matrix, report.filled.matrix))
        ledger.op(checks.dp_problem(report))

    def on_fill(args, kwargs, filled):
        counts["filling.calls"] += 1
        ledger.op(checks.fill_problem(args[1].matrix, filled.matrix))

    def on_estimate(args, kwargs, report):
        counts["power.patterns"] += len(args[1])
        ledger.op(checks.power_problem(report))

    def on_atpg(args, kwargs, result):
        counts["atpg.faults_targeted"] += result.total_faults
        counts["atpg.detected"] += len(result.detected_faults)
        counts["atpg.aborted"] += len(result.aborted_faults)

    probe.function(
        "repro.circuit.library", "itc99_like", layer("circuit.generate"),
        count(lambda a, k, circuit: counts.update({"circuit.gates": circuit.n_gates})),
    )
    probe.function("repro.atpg.tpg", "generate_test_cubes", layer("atpg.generate"), count(on_atpg))
    probe.function(
        "repro.cubes.generator", "generate_cube_set", layer("cubes.generate"),
        count(lambda a, k, cubes: counts.update({"cubes.cells": cubes.matrix.size})),
    )
    for name in ("toggle_profile", "peak_toggles", "total_toggles", "stretch_histogram"):
        probe.function("repro.cubes.metrics", name, layer("cubes.metrics"))

    for cls in subclasses(Ordering):
        if "order" in vars(cls):
            probe.method(cls, "order", layer(f"orderings.{cls.name}"))
    probe.function(
        "repro.core.ordering", "interleaved_ordering", layer("orderings.i-ordering"),
        count(lambda a, k, result: counts.update({"orderings.i-ordering.candidates": result.iterations})),
    )

    probe.method(ExtractionPlan, "from_test_set", layer("core.extract"))
    probe.function("repro.core.intervals", "extract_intervals", layer("core.extract"))
    probe.function("repro.core.bcp", "solve_weighted_bcp", layer("core.bcp"))
    probe.function("repro.core.intervals", "apply_assignment", layer("core.reconstruct"))
    probe.function("repro.core.dpfill", "dp_fill", layer("core.dp_fill"), on_dp_fill)

    for cls in subclasses(Filler):
        if "fill" not in vars(cls):
            continue
        # DPFill.fill returns dp_fill's set, which on_dp_fill already checks.
        hook = count(lambda a, k, r: counts.update({"filling.calls": 1})) if cls.name == "DP-fill" else on_fill
        probe.method(cls, "fill", layer(FILL_LAYERS.get(cls.name, f"filling.{cls.name}")), hook)

    probe.method(PowerEstimator, "__init__", layer("power.setup"))
    probe.method(PowerEstimator, "estimate", layer("power.estimate"), on_estimate)
    # Power grading enters the simulator through net_value_matrix.
    for name in ("simulate", "net_value_matrix"):
        probe.method(PackedLogicSimulator, name, layer("engine.simulate"))
