"""Integration tests for the experiment harness (profiles, workloads, tables, runner)."""

from __future__ import annotations

import pytest

from repro.benchmarks_data.paper_results import (
    FILL_COLUMNS,
    PAPER_TABLE2,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PAPER_TABLE6,
    improvement_percent,
)
from repro.benchmarks_data.profiles import all_profiles, default_benchmark_names, get_profile
from repro.experiments import figure1, figure2, table1, table2, table4, table5, table6
from repro.experiments.fill_sweep import FILL_METHODS
from repro.experiments.report import TableResult, percent_improvement, render_markdown, render_table
from repro.experiments.runner import build_parser, run_all
from repro.experiments.techniques import TECHNIQUES, apply_all_techniques, apply_technique
from repro.experiments.workloads import build_workload

SMALL = ["b01", "b03"]


class TestProfilesAndPaperData:
    def test_all_table1_benchmarks_present(self):
        names = {p.name for p in all_profiles()}
        for expected in ("b01", "b12", "b19", "b22"):
            assert expected in names

    def test_profile_lookup(self):
        profile = get_profile("B12")
        assert profile.test_pins == 126 and profile.gates == 1600
        with pytest.raises(KeyError):
            get_profile("c6288")

    def test_pin_split_is_consistent(self):
        for profile in all_profiles():
            assert profile.primary_inputs + profile.flip_flops == profile.test_pins
            assert 0 < profile.x_fraction < 1

    def test_default_names_ordering_and_large_flag(self):
        small = default_benchmark_names()
        everything = default_benchmark_names(include_large=True)
        assert set(small) < set(everything)
        assert "b19" in everything and "b19" not in small

    def test_paper_tables_are_consistent(self):
        # Every benchmark in Table II also appears in Tables IV, V and VI.
        assert set(PAPER_TABLE2) == set(PAPER_TABLE4) == set(PAPER_TABLE5) == set(PAPER_TABLE6)
        for name, row in PAPER_TABLE2.items():
            assert set(row) == set(FILL_COLUMNS)
            # The paper's DP-fill column is the row minimum (its optimality claim).
            assert row["DP-fill"] == min(row.values()), name

    def test_improvement_percent(self):
        assert improvement_percent(100, 50) == 50.0
        assert improvement_percent(0, 50) == 0.0


class TestWorkloads:
    def test_workload_consistency(self):
        workload = build_workload("b03")
        assert workload.cubes.n_pins == workload.circuit.n_test_pins
        assert len(workload.cubes) >= 4
        assert workload.cube_source in ("podem", "synthetic")

    def test_workloads_are_cached(self):
        assert build_workload("b03") is build_workload("b03")

    def test_synthetic_workload_matches_profile_density(self):
        workload = build_workload("b04")
        assert workload.cube_source == "synthetic"
        assert abs(workload.x_percent - workload.profile.x_percent) < 12.0

    def test_large_profile_is_scaled(self):
        workload = build_workload("b17")
        assert workload.scale < 1.0
        assert workload.circuit.n_gates <= 3000


class TestWorkloadCacheKey:
    """An edited netlist or changed ATPG knobs must never serve stale cubes."""

    @staticmethod
    def _fresh_circuit(name: str):
        from repro.circuit.library import itc99_like

        return itc99_like(name, seed=0)

    def test_key_tracks_circuit_structure(self):
        from repro.circuit.gates import GateType
        from repro.experiments.workloads import _cube_cache_key

        profile = get_profile("b01")
        edited = self._fresh_circuit("b01")
        before = _cube_cache_key(profile, edited, seed=0)
        assert edited.structure_digest()[:12] in before
        inputs = edited.combinational_inputs
        edited.add_gate("extra_probe", GateType.AND, [inputs[0], inputs[1]])
        edited.add_output("extra_probe")
        assert _cube_cache_key(profile, edited, seed=0) != before

    def test_key_tracks_atpg_knobs(self, monkeypatch):
        import repro.experiments.workloads as workloads_module
        from repro.experiments.workloads import _cube_cache_key

        profile = get_profile("b01")
        circuit = self._fresh_circuit("b01")
        before = _cube_cache_key(profile, circuit, seed=0)
        monkeypatch.setattr(workloads_module, "ATPG_BACKTRACK_LIMIT", 99)
        changed_limit = _cube_cache_key(profile, circuit, seed=0)
        assert changed_limit != before
        monkeypatch.setattr(workloads_module, "ATPG_MAX_FAULTS", 7)
        assert _cube_cache_key(profile, circuit, seed=0) != changed_limit

    @staticmethod
    def _cached_files(directory):
        return sorted(path for path in directory.rglob("*") if path.is_file())

    def test_synthetic_workload_writes_no_cache_file(self, tmp_path, monkeypatch):
        cache = tmp_path / "cube-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        build_workload.cache_clear()
        try:
            assert build_workload("b04").cube_source == "synthetic"
        finally:
            build_workload.cache_clear()
        assert not cache.exists() or self._cached_files(cache) == []

    def test_podem_workload_round_trips_through_one_cache_file(self, tmp_path, monkeypatch):
        import repro.experiments.workloads as workloads_module

        cache = tmp_path / "cube-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        build_workload.cache_clear()
        try:
            cold = build_workload("b01")
            assert cold.cube_source == "podem"
            files = self._cached_files(cache)
            assert len(files) == 1 and files[0].suffix == ".npz"
            build_workload.cache_clear()

            def no_atpg(*args, **kwargs):
                raise AssertionError("a warm rebuild must load the cached cubes")

            monkeypatch.setattr(workloads_module, "_build_podem_cubes", no_atpg)
            warm = build_workload("b01")
        finally:
            build_workload.cache_clear()
        assert warm is not cold
        assert self._cached_files(cache) == files
        assert warm.cubes.matrix.dtype == cold.cubes.matrix.dtype
        assert warm.cubes.matrix.tobytes() == cold.cubes.matrix.tobytes()

    def test_structure_digest_is_content_stable(self):
        a = self._fresh_circuit("b01")
        b = self._fresh_circuit("b01")
        assert a is not b
        assert a.structure_digest() == b.structure_digest()


class TestReportRendering:
    def _table(self) -> TableResult:
        return TableResult(
            title="demo",
            columns=["circuit", "value"],
            rows=[{"circuit": "b01", "value": 4}, {"circuit": "b02", "value": None}],
            notes=["a note"],
        )

    def test_render_table_contains_all_cells(self):
        text = render_table(self._table())
        assert "demo" in text and "b01" in text and "note: a note" in text
        assert "-" in text  # the None cell

    def test_render_markdown(self):
        text = render_markdown(self._table())
        assert text.count("|") > 6 and "### demo" in text

    def test_column_and_row_lookup(self):
        table = self._table()
        assert table.column("value") == [4, None]
        assert table.row_for("circuit", "b02")["value"] is None
        assert table.row_for("circuit", "b99") is None

    def test_percent_improvement(self):
        assert percent_improvement(10, 5) == 50.0
        assert percent_improvement(0, 5) is None
        assert percent_improvement(None, 5) is None


class TestTables:
    def test_table1_rows(self):
        result = table1.run(SMALL)
        assert [row["circuit"] for row in result.rows] == SMALL
        for row in result.rows:
            assert 0 <= row["X% (measured)"] <= 100

    def test_table2_dpfill_is_row_minimum(self):
        result = table2.run(SMALL)
        for row in result.rows:
            values = [row[m] for m in FILL_METHODS]
            assert row["DP-fill"] == min(values)

    def test_table4_never_worse_than_table2_for_dpfill(self):
        tool = table2.run(SMALL)
        iord = table4.run(SMALL)
        for a, b in zip(tool.rows, iord.rows):
            assert b["DP-fill"] <= a["DP-fill"]

    def test_table5_columns_and_improvements(self):
        result = table5.run(SMALL)
        for row in result.rows:
            assert set(TECHNIQUES) <= set(row)
            assert row["Proposed"] <= row["Tool"]
            if row["%impr Tool"] is not None:
                assert row["%impr Tool"] >= 0

    def test_table6_power_columns(self):
        result = table6.run(SMALL)
        for row in result.rows:
            for technique in TECHNIQUES:
                assert row[f"{technique} (uW)"] >= 0.0

    def test_figure1_reproduces_suboptimality(self):
        result = figure1.run()
        assert result.optimum_peak < result.xstat_peak
        table = figure1.as_table(result)
        assert len(table.rows) == 2

    def test_figure2_panels(self):
        result = figure2.run(SMALL)
        assert len(result.panel_a) == 2 and len(result.panel_b) == 2
        assert {series.ordering for series in result.panel_c} == {"tool", "xstat", "i-ordering"}
        tables = figure2.as_tables(result)
        assert len(tables) == 3


class TestTechniques:
    def test_all_techniques_fill_completely(self):
        workload = build_workload("b03")
        outcomes = apply_all_techniques(workload.cubes)
        assert set(outcomes) == set(TECHNIQUES)
        for outcome in outcomes.values():
            assert outcome.filled.is_fully_specified()
            assert outcome.peak_input_toggles >= 0

    def test_unknown_technique_rejected(self):
        workload = build_workload("b01")
        with pytest.raises(KeyError):
            apply_technique("Magic", workload.cubes)

    def test_proposed_is_best_or_tied_on_x_rich_sets(self):
        workload = build_workload("b04")  # synthetic, X-dominated
        outcomes = apply_all_techniques(workload.cubes)
        proposed = outcomes["Proposed"].peak_input_toggles
        assert proposed <= outcomes["Tool"].peak_input_toggles
        assert proposed <= outcomes["Adj-fill"].peak_input_toggles


class TestRunner:
    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args([])
        assert args.seed == 0 and args.out == ""

    def test_run_all_selected_artifacts(self):
        results = run_all(artifacts=["fig1"], names=SMALL)
        assert set(results) == {"fig1"}
        assert results["fig1"][0].rows

    def test_main_writes_report(self, tmp_path, capsys):
        from repro.experiments.runner import main

        out_file = tmp_path / "report.txt"
        code = main(["--artifacts", "fig1", "--benchmarks", "b01", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists() and "Figure 1" in out_file.read_text()
        captured = capsys.readouterr()
        assert "experiment report" in captured.out
