"""Telemetry tests (``repro.obs``): recorder primitives and counter parity.

The observability contract mirrors the engine's determinism contract: with
tracing on, the *scheduling-independent* counters — cone evaluations, run /
pattern / fault / detection totals, PODEM backtracks and decisions — must
sum to identical values whichever simulator executed the run (the
packed engine or the naive reference).  Scheduling-dependent counters
(``fault_sim.blocks``, ``fault_sim.dropped_block_evaluations``) are
deliberately outside that set.

On top of parity, the suite checks the recorder itself (null/enabled paths,
span merging, the event cap), the metrics artifact writer and the runner's
``--metrics`` flag.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.atpg.collapse import collapse_faults
from repro.atpg.podem import PodemEngine
from repro.circuit.generator import CircuitSpec, generate_circuit
from repro.circuit.library import b01_like_fsm
from repro.engine import PackedFaultSimulator
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs
from tests.helpers import grading_kernel
from tests.reference_engines import DictPodemEngine, NaiveFaultSimulator


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with tracing off (fresh recorder state)."""
    obs.disable()
    yield
    obs.disable()


def _medium_circuit():
    return generate_circuit(CircuitSpec("cluster_med", 10, 12, 300, seed=4))


def _patterns(circuit, n=160, seed=1):
    from repro.cubes.cube import TestSet

    rng = np.random.default_rng(seed)
    return TestSet.from_matrix(
        rng.integers(0, 2, size=(n, circuit.n_test_pins)).astype(np.int8)
    )


#: Counters that must be exactly equal across the engine and its reference —
#: sourced from the declared manifest so the parity contract and the static
#: analyzer's R5 rule cannot drift apart.  Scheduling-dependent counters
#: (blocks, dropped_block_evaluations) are outside DETERMINISTIC by design;
#: the podem.* members are exercised by the ATPG parity suite, not here.
PARITY_KEYS = tuple(
    sorted(k for k in obs_manifest.DETERMINISTIC if k.startswith("fault_sim."))
)


def _traced_counters(run):
    """Counters collected by ``run()`` under a fresh enabled recorder."""
    obs.disable()
    obs.enable()
    run()
    counters = obs.snapshot()["counters"]
    obs.disable()
    return counters


def _parity_subset(counters):
    return {key: counters.get(key) for key in PARITY_KEYS}


# -- recorder primitives -----------------------------------------------------
class TestRecorder:
    def test_disabled_is_noop(self):
        assert not obs.enabled()
        obs.counter("x", 5)
        obs.event("boom", detail="ignored")
        with obs.span("a/b"):
            pass
        assert obs.snapshot() == {
            "counters": {},
            "spans": {},
            "events": [],
            "intervals": [],
        }

    def test_null_span_is_shared(self):
        # The disabled hot path must not allocate per call.
        assert obs.span("a") is obs.span("b")

    def test_enable_records(self):
        obs.enable()
        obs.counter("x")
        obs.counter("x", 2)
        obs.event("kind", task_id="t1")
        with obs.span("fault_sim/c/grade"):
            pass
        snap = obs.snapshot()
        assert snap["counters"]["x"] == 3
        assert snap["events"][0]["kind"] == "kind"
        assert snap["events"][0]["task_id"] == "t1"
        count, total, peak = snap["spans"]["fault_sim/c/grade"]
        assert count == 1 and total >= 0.0 and peak == total

    def test_add_counters_skips_labels(self):
        obs.enable()
        obs.add_counters(
            {"cone_evaluations": 7, "mode": "lanes", "dropped": True},
            prefix="fault_sim.",
        )
        counters = obs.snapshot()["counters"]
        assert counters == {"fault_sim.cone_evaluations": 7}

    def test_span_table_merges_repeats(self):
        obs.enable()
        for _ in range(3):
            with obs.span("k"):
                pass
        count, total, peak = obs.snapshot()["spans"]["k"]
        assert count == 3 and total >= peak >= 0.0

    def test_event_cap_counts_drops(self):
        recorder = obs.enable()
        for i in range(obs.MAX_EVENTS + 25):
            recorder.event("e", i=i)
        snap = obs.snapshot()
        assert len(snap["events"]) == obs.MAX_EVENTS
        assert snap["counters"]["obs.events_dropped"] == 25

# -- metrics artifacts -------------------------------------------------------
class TestMetrics:
    def test_resolve_path_precedence(self, monkeypatch):
        monkeypatch.delenv(obs_metrics.METRICS_ENV_VAR, raising=False)
        assert obs_metrics.resolve_metrics_path(None) is None
        monkeypatch.setenv(obs_metrics.METRICS_ENV_VAR, "env.json")
        assert obs_metrics.resolve_metrics_path(None) == "env.json"
        assert obs_metrics.resolve_metrics_path("cli.json") == "cli.json"

    def test_write_metrics_schema(self, tmp_path):
        obs.enable()
        obs.counter("fault_sim.runs")
        obs.event("cache_write_failed", detail="t9")
        with obs.span("fault_sim/c/grade"):
            pass
        path = tmp_path / "sub" / "metrics.json"
        payload = obs_metrics.write_metrics(str(path), meta={"tool": "test"})
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == obs_metrics.METRICS_SCHEMA
        assert on_disk["enabled"] is True
        assert on_disk["counters"] == {"fault_sim.runs": 1}
        (span,) = on_disk["spans"]
        assert span["path"] == "fault_sim/c/grade" and span["count"] == 1
        assert on_disk["events"][0]["kind"] == "cache_write_failed"
        assert on_disk["meta"]["tool"] == "test"
        # Since schema 2, the meta block snapshots every set REPRO_* knob, and
        # truncated records whether any ring-buffer cap dropped data.
        assert "env" in on_disk["meta"]
        assert on_disk["truncated"] is False
        if not obs.timeline_enabled():  # off unless REPRO_TIMELINE=1 forces it
            assert on_disk["intervals"] == []
        assert sorted(on_disk["clock"]) == ["pid", "wall_anchor_s"]

    def test_maybe_write_without_path_is_noop(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs_metrics.METRICS_ENV_VAR, raising=False)
        assert obs_metrics.maybe_write_metrics(None) is None


# -- engine counters ---------------------------------------------------------
class TestEngineTelemetry:
    def test_packed_counters_describe_the_run(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        result = PackedFaultSimulator(circuit).run(patterns, faults)
        counters = _traced_counters(
            lambda: PackedFaultSimulator(circuit).run(patterns, faults)
        )
        assert counters["fault_sim.runs"] == 1
        assert counters["fault_sim.patterns"] == len(patterns)
        assert counters["fault_sim.faults"] == len(faults)
        assert counters["fault_sim.detected"] == result.detected_count
        assert counters["fault_sim.cone_evaluations"] > 0

    def test_naive_matches_packed(self):
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        packed = _traced_counters(
            lambda: PackedFaultSimulator(circuit).run(patterns, faults)
        )
        naive = _traced_counters(
            lambda: NaiveFaultSimulator(circuit).run(patterns, faults)
        )
        assert _parity_subset(naive) == _parity_subset(packed)

    @pytest.mark.parametrize("fault_mode", ["lanes", "faults"])
    def test_fault_modes_match(self, fault_mode):
        # cone_evaluations is kernel-specific work accounting, so it is only
        # comparable between runs using the same mode; the run totals are
        # mode-invariant.
        circuit = _medium_circuit()
        patterns = _patterns(circuit)
        faults = collapse_faults(circuit)
        keys = [key for key in PARITY_KEYS if key != "fault_sim.cone_evaluations"]
        reference = _traced_counters(
            lambda: PackedFaultSimulator(circuit).run(patterns, faults)
        )
        with grading_kernel(fault_mode):
            counters = _traced_counters(
                lambda: PackedFaultSimulator(circuit).run(patterns, faults)
            )
        assert {k: counters.get(k) for k in keys} == {
            k: reference.get(k) for k in keys
        }
        assert counters["fault_sim.cone_evaluations"] > 0

    def test_podem_counters_match_results(self):
        circuit = b01_like_fsm()
        faults = collapse_faults(circuit)[:24]
        engine = PodemEngine(circuit, backtrack_limit=15)
        results = [engine.generate(fault) for fault in faults]
        counters = _traced_counters(
            lambda: [
                PodemEngine(circuit, backtrack_limit=15).generate(fault)
                for fault in faults
            ]
        )
        assert counters["podem.faults"] == len(faults)
        assert counters["podem.backtracks"] == sum(r.backtracks for r in results)
        assert counters["podem.decisions"] == sum(r.decisions for r in results)

    def test_podem_dict_matches_compiled(self):
        # The reference records no telemetry of its own: the compiled
        # engine's podem.* counters must equal the sums of its results.
        circuit = b01_like_fsm()
        faults = collapse_faults(circuit)[:24]
        reference = DictPodemEngine(circuit, backtrack_limit=15)
        results = [reference.generate(fault) for fault in faults]
        engine = PodemEngine(circuit, backtrack_limit=15)
        counters = _traced_counters(lambda: [engine.generate(fault) for fault in faults])
        expected = {
            "podem.faults": len(faults),
            "podem.backtracks": sum(r.backtracks for r in results),
            "podem.decisions": sum(r.decisions for r in results),
        }
        for status in {r.status for r in results}:
            expected[f"podem.status.{status}"] = sum(r.status == status for r in results)
        assert {k: v for k, v in counters.items() if k.startswith("podem.")} == expected

    def test_disabled_run_records_nothing(self):
        circuit = b01_like_fsm()
        patterns = _patterns(circuit, 64)
        faults = collapse_faults(circuit)
        PackedFaultSimulator(circuit).run(patterns, faults)
        obs.enable()
        assert obs.snapshot()["counters"] == {}


# -- runner integration ------------------------------------------------------
class TestRunnerMetrics:
    @pytest.fixture()
    def cold_cubes(self, tmp_path, monkeypatch):
        """Point the cube cache at an empty dir so the run does real ATPG
        and fault-sim work (warm caches would leave the counters empty)."""
        from repro.experiments.workloads import build_workload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cube-cache"))
        build_workload.cache_clear()
        yield
        build_workload.cache_clear()

    def test_metrics_flag_writes_artifact(self, tmp_path, cold_cubes):
        from repro.experiments.runner import main

        path = tmp_path / "metrics.json"
        code = main(
            ["--artifacts", "1", "--benchmarks", "b01", "--metrics", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == obs_metrics.METRICS_SCHEMA
        assert payload["enabled"] is True
        assert payload["counters"].get("fault_sim.runs", 0) >= 1
        assert payload["counters"].get("podem.faults", 0) >= 1
        paths = [span["path"] for span in payload["spans"]]
        assert any(p.startswith("runner/") for p in paths)
        assert any(p.startswith("fault_sim/") for p in paths)
        assert payload["meta"]["tool"] == "dpfill-experiments"
        # --metrics implied tracing for the run only; it must not leak.
        assert not obs.enabled()

    def test_env_var_also_writes(self, tmp_path, monkeypatch, cold_cubes):
        from repro.experiments.runner import main

        path = tmp_path / "env-metrics.json"
        monkeypatch.setenv(obs_metrics.METRICS_ENV_VAR, str(path))
        code = main(["--artifacts", "1", "--benchmarks", "b01"])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == obs_metrics.METRICS_SCHEMA
        assert payload["counters"].get("fault_sim.runs", 0) >= 1


# -- counters manifest -------------------------------------------------------
class TestManifest:
    """The declared telemetry grammar (consumed by analysis rule R5)."""

    def test_manifest_is_internally_consistent(self):
        assert list(obs_manifest.validate()) == []

    def test_every_declared_counter_parses(self):
        for name in obs_manifest.COUNTERS:
            assert obs_manifest.COUNTER_GRAMMAR.match(name), name

    def test_parity_keys_are_declared_and_deterministic(self):
        assert PARITY_KEYS  # sourcing from the manifest must not empty the set
        for key in PARITY_KEYS:
            assert obs_manifest.is_declared(key)
            assert key in obs_manifest.DETERMINISTIC

    def test_dynamic_status_family_is_declared(self):
        assert obs_manifest.is_declared("podem.status.detected")
        assert obs_manifest.is_declared("podem.status.untestable")
        assert not obs_manifest.is_declared("nonsense.counter")

    def test_scheduling_dependent_counters_excluded(self):
        assert "fault_sim.blocks" not in obs_manifest.DETERMINISTIC
        assert "fault_sim.dropped_block_evaluations" not in obs_manifest.DETERMINISTIC
