"""Tests of the benchmark's own code: span arithmetic, names, checks, generators."""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, layers, rep, run
from perfbench.spans import Probe, Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, LongSetsWorkload, PaperWorkload

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- spans --------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0, -1),
        Span("mid", 1.0, 6.0, 0),
        Span("leaf", 2.0, 3.5, 1),
        Span("leaf", 4.0, 5.0, 1),
        Span("mid", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx({"outer": 3.0, "mid": 4.5, "leaf": 2.5})


def test_self_time_of_repeated_and_same_layer_nested_spans():
    # A layer calling into itself (InterleavedOrdering.order -> interleaved_ordering)
    # must not count the inner call twice.
    spans = [
        Span("orderings", 0.0, 4.0, -1),
        Span("orderings", 0.5, 3.5, 0),
        Span("core", 1.0, 2.0, 1),
        Span("orderings", 5.0, 6.0, -1),
    ]
    totals = self_times(spans)
    assert totals == pytest.approx({"orderings": 4.0, "core": 1.0})
    assert sum(totals.values()) == pytest.approx(5.0)  # = the two top-level spans


def test_tracer_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("a")
    inner = tracer.begin("b")
    tracer.end(inner)
    tracer.end(outer)
    tracer.end(tracer.begin("a"))
    assert tracer.dump() == [("a", 0.0, 3.0, -1), ("b", 1.0, 2.0, 0), ("a", 4.0, 5.0, -1)]
    assert self_times(tracer.spans) == {"a": 3.0, "b": 1.0}


def test_tracer_rejects_out_of_order_close():
    tracer = Tracer()
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


# -- names --------------------------------------------------------------------
def test_metric_and_workload_names_follow_the_grammar():
    names = [name for name, _ in run.END_TO_END] + [name for name, _, _ in layers.per_layer_metrics()]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    units = [unit for _, unit in run.END_TO_END] + [unit for _, unit, _ in layers.per_layer_metrics()]
    for unit in units:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_what_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer_metrics()
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


# -- checks -------------------------------------------------------------------
def _cubes():
    from repro.cubes.cube import TestSet

    return TestSet.from_matrix(np.array([[0, 2, 1], [2, 2, 0], [1, 0, 2]], dtype=np.int8))


def test_fill_problem_flags_left_x_and_changed_care_bits():
    source = _cubes().matrix
    good = np.where(source == checks.X, 0, source)
    assert checks.fill_problem(source, good) is None
    left_x = good.copy()
    left_x[1, 1] = checks.X
    assert "unfilled" in checks.fill_problem(source, left_x)
    flipped = good.copy()
    flipped[0, 0] = 1
    assert "care bits" in checks.fill_problem(source, flipped)


def test_corrupted_fill_is_counted_not_raised():
    from repro.cubes.cube import TestSet
    from repro.filling.base import Filler

    class CorruptFill(Filler):
        name = "corrupt-fill"

        def fill(self, patterns):
            matrix = np.where(patterns.matrix == checks.X, 0, patterns.matrix)
            matrix[0, 0] = 1 - matrix[0, 0]  # flip a care bit
            return TestSet.from_matrix(matrix)

    ledger = checks.Ledger()
    probe = Probe(Tracer(), on_check=lambda seconds: None)
    layers.install(probe, Counter(), ledger, traced=True)
    try:
        CorruptFill().fill(_cubes())
    finally:
        probe.restore()
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "care bits changed" in ledger.problems[0]
    assert not hasattr(vars(CorruptFill)["fill"], "__wrapped__")  # restored


def test_ledger_counts_exceptions_and_row_checks():
    ledger = checks.Ledger()
    ledger.error("artifact 2", ValueError("boom"))
    row = {"circuit": "b01", "MT-fill": 3, "DP-fill": 4}
    ledger.op(checks.row_minimum_problem(row, ["MT-fill", "DP-fill"]))
    ledger.op(checks.technique_problem({"Tool": 5, "Adj-fill": 6, "Proposed": 5}))
    assert (ledger.attempted, ledger.failed) == (3, 2)


# -- generators and one repetition -------------------------------------------
def test_long_sets_generator_is_deterministic_in_its_seed():
    workload = LongSetsWorkload(name="tiny", why="", profile="b01", n_patterns=24)
    circuit_a, cubes_a = workload.setup(3)
    circuit_b, cubes_b = workload.setup(3)
    _, cubes_c = workload.setup(4)
    assert circuit_a.structure_digest() == circuit_b.structure_digest()
    assert np.array_equal(cubes_a.matrix, cubes_b.matrix)
    assert not np.array_equal(cubes_a.matrix, cubes_c.matrix)


def test_paper_generator_is_deterministic_in_its_seed(monkeypatch):
    from repro.experiments.workloads import build_workload

    monkeypatch.setenv("REPRO_CACHE_DIR", "off")
    workload = PaperWorkload(name="tiny", why="", names=["b01", "b03"])
    build_workload.cache_clear()
    first = [w.cubes.matrix for w in workload.setup(5)]
    build_workload.cache_clear()
    second = [w.cubes.matrix for w in workload.setup(5)]
    build_workload.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(first, second))


def test_pass_seeds_depend_only_on_the_run_seed():
    workload = WORKLOADS["paper-default"]
    assert run.pass_seeds(workload, 7) == run.pass_seeds(workload, 7)
    assert not set(run.pass_seeds(workload, 7)) & set(run.pass_seeds(workload, 8))
    assert run.pass_seeds(workload, 0)[0] == 0  # seed 0 reproduces `dpfill-experiments --seed 0`


def test_traced_repetition_restores_the_program_and_covers_its_wall():
    from repro.core import dpfill
    from repro.filling import simple

    before = (dpfill.dp_fill, vars(simple.MinimumTransitionFill)["fill"])
    workload = LongSetsWorkload(name="tiny", why="", profile="b01", n_patterns=24)
    result = rep.run(workload, seed=1, traced=True)
    assert (dpfill.dp_fill, vars(simple.MinimumTransitionFill)["fill"]) == before
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["dp_fill_certified"] == result["dp_fill_results"] > 0
    metrics = result["layers"]
    assert {name for name, _, _ in layers.per_layer_metrics()} - set(metrics) == {"trace.overhead_s"}
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert metrics["filling.calls"] > 0 and metrics["circuit.gates"] > 0
