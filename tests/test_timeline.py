"""Timeline tier tests: clock anchoring, interval recording, trace export,
run reports, and the bench-history ledger.

The timeline contract extends the counter-parity contract one axis further:
span *intervals* and events share one wall-clock axis (per-recorder clock
anchor), and export as Chrome trace-event JSON whose per-process tracks a
viewer can read directly.  The run report is a pure consumer of the same
payloads, and the history ledger turns ``BENCH_engine.json`` overwrites
into an append-only trajectory.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import __main__ as obs_cli
from repro.obs import history as obs_history
from repro.obs import recorder as obs
from repro.obs import report as obs_report
from repro.obs import timeline

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")

#: The synthetic payload behind ``tests/data/golden_trace.json`` — fixed
#: wall times so the exported trace is byte-stable.
GOLDEN_PAYLOAD = {
    "schema": 4,
    "enabled": True,
    "truncated": False,
    "counters": {},
    "spans": [],
    "events": [
        {"ts": 1000.0005, "kind": "worker_joined", "worker": "w-aa11"},
        {
            "ts": 1000.0160,
            "kind": "task_retried",
            "task_id": "t-2",
            "transport": "queue",
        },
    ],
    "intervals": [
        {
            "path": "runner.cluster",
            "start_s": 1000.0,
            "dur_s": 0.020,
            "pid": 10,
        },
        {
            "path": "fault_sim/b12/lanes/grade",
            "start_s": 1000.001,
            "dur_s": 0.008,
            "pid": 11,
        },
        {
            "path": "fault_sim/b12/lanes/grade",
            "start_s": 1000.011,
            "dur_s": 0.006,
            "pid": 11,
        },
    ],
    "clock": {"wall_anchor_s": 1000.0, "pid": 10},
    "meta": {"tool": "golden"},
}


@pytest.fixture(autouse=True)
def _clean_recorder():
    obs.disable()
    yield
    obs.disable()


# -- clock anchoring ----------------------------------------------------------
class TestClockAnchor:
    def test_event_ts_is_wall_time(self):
        obs.enable()
        before = time.time()
        obs.event("probe")
        after = time.time()
        ts = obs.snapshot()["events"][0]["ts"]
        assert before - 0.001 <= ts <= after + 0.001

    def test_interval_start_is_wall_time(self):
        obs.enable()
        obs.enable_timeline()
        before = time.time()
        with obs.span("fault_sim/c/grade"):
            time.sleep(0.002)
        after = time.time()
        (interval,) = obs.snapshot()["intervals"]
        assert before - 0.001 <= interval["start_s"]
        assert interval["start_s"] + interval["dur_s"] <= after + 0.001

    def test_events_and_intervals_share_one_axis(self):
        obs.enable()
        obs.enable_timeline()
        obs.event("first")
        with obs.span("fault_sim/c/grade"):
            pass
        obs.event("last")
        snap = obs.snapshot()
        first, last = snap["events"][0]["ts"], snap["events"][1]["ts"]
        (interval,) = snap["intervals"]
        assert first <= interval["start_s"]
        assert interval["start_s"] + interval["dur_s"] <= last + 0.001


# -- interval recording -------------------------------------------------------
class TestTimelineRecorder:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.TIMELINE_ENV_VAR, raising=False)
        obs.enable()
        assert not obs.timeline_enabled()
        with obs.span("fault_sim/c/grade"):
            pass
        snap = obs.snapshot()
        assert snap["intervals"] == []
        assert snap["spans"]["fault_sim/c/grade"][0] == 1  # spans still fold

    def test_env_var_turns_timeline_on(self, monkeypatch):
        monkeypatch.setenv(obs.TIMELINE_ENV_VAR, "1")
        obs.enable()
        assert obs.timeline_enabled()

    def test_enable_timeline_records_attributed_intervals(self):
        obs.enable()
        obs.enable_timeline()
        with obs.span("fault_sim/c/grade"):
            pass
        (interval,) = obs.snapshot()["intervals"]
        assert sorted(interval) == ["dur_s", "path", "pid", "start_s"]
        assert interval["path"] == "fault_sim/c/grade"
        assert interval["pid"] == os.getpid()
        assert interval["dur_s"] >= 0.0

    def test_clock_block_names_the_process(self):
        obs.enable()
        clock = obs.snapshot()["clock"]
        assert sorted(clock) == ["pid", "wall_anchor_s"]
        assert clock["pid"] == os.getpid()
        assert isinstance(clock["wall_anchor_s"], float)

    def test_interval_cap_counts_drops(self):
        obs.enable()
        obs.enable_timeline()
        for _ in range(obs.MAX_INTERVALS + 25):
            with obs.span("k"):
                pass
        snap = obs.snapshot()
        assert len(snap["intervals"]) == obs.MAX_INTERVALS
        assert snap["counters"]["obs.intervals_dropped"] == 25
        # The span table itself is uncapped: every repeat still folded.
        assert snap["spans"]["k"][0] == obs.MAX_INTERVALS + 25

    def test_reset_clears_intervals(self):
        obs.enable()
        obs.enable_timeline()
        with obs.span("k"):
            pass
        obs.reset()
        assert obs.snapshot()["intervals"] == []


# -- track math ---------------------------------------------------------------
class TestTrackMath:
    def test_merged_busy_unions_overlaps(self):
        rows = [
            {"start_s": 0.0, "dur_s": 1.0},
            {"start_s": 0.5, "dur_s": 1.0},  # overlaps the first
            {"start_s": 3.0, "dur_s": 1.0},
        ]
        busy, gaps = timeline.merged_busy(rows)
        assert busy == pytest.approx(2.5)
        assert gaps == [(1.5, 3.0)]

    def test_tracks_group_by_pid(self):
        grouped = timeline.tracks(GOLDEN_PAYLOAD["intervals"])
        labels = [timeline.track_label(key) for key in grouped]
        assert labels == ["pid-10", "pid-11"]
        assert len(grouped[11]) == 2

    def test_span_bounds_cover_events_too(self):
        bounds = timeline.span_bounds(
            GOLDEN_PAYLOAD["intervals"], GOLDEN_PAYLOAD["events"]
        )
        assert bounds == (1000.0, 1000.020)


# -- Chrome trace export ------------------------------------------------------
class TestTraceExport:
    def test_golden_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        timeline.write_trace(str(out), GOLDEN_PAYLOAD)
        produced = out.read_text()
        golden = open(
            os.path.join(GOLDEN_DIR, "golden_trace.json"), encoding="utf-8"
        ).read()
        assert produced == golden

    def test_trace_shape_is_viewer_compatible(self):
        trace = timeline.trace_payload(GOLDEN_PAYLOAD)
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["t0_wall_s"] == 1000.0
        phases = {entry["ph"] for entry in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}
        for entry in trace["traceEvents"]:
            if entry["ph"] == "X":
                assert isinstance(entry["ts"], float)
                assert isinstance(entry["dur"], float)
                assert entry["ts"] >= 0.0
        # One thread-name track per pid plus the events track.
        threads = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert threads == ["pid-10", "pid-11", "events"]
        # Span records carry no args; process names carry the bare pid.
        assert not any(
            "args" in e for e in trace["traceEvents"] if e["ph"] == "X"
        )
        processes = [
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert processes == ["repro 10", "repro 11"]

    def test_empty_payload_exports_cleanly(self, tmp_path):
        out = tmp_path / "trace.json"
        timeline.write_trace(str(out), {"intervals": [], "events": []})
        assert json.loads(out.read_text())["traceEvents"] == []


# -- run report ---------------------------------------------------------------
class TestRunReport:
    def test_report_structure_from_golden(self):
        text = obs_report.render_report(GOLDEN_PAYLOAD)
        assert "tool: golden" in text
        assert "timeline" in text
        assert "makespan" in text
        assert "pid-11" in text
        assert "<- parent" in text  # clock pid matches the pid-10 track
        assert "task_retried" in text

    def test_report_without_timeline_still_renders(self):
        payload = dict(GOLDEN_PAYLOAD, intervals=[], events=[])
        text = obs_report.render_report(payload)
        assert "tool: golden" in text
        assert "makespan" not in text


# -- bench history ledger -----------------------------------------------------
class TestHistory:
    def _bench(self, sha, stamp, packed=12.0):
        return {
            "schema": 9,
            "git_sha": sha,
            "timestamp": stamp,
            "python": "3.x",
            "available_cores": 8,
            "profiles": [
                {
                    "circuit": "b12",
                    "seconds": {"packed": {"fault": 0.5}},
                    "fault_speedup_packed_vs_naive": packed,
                }
            ],
            "fault_parallel": {"faults_gate_speedup": 2.0},
            "atpg": {"largest": {"compiled_speedup": 10.0}},
            "obs": {"overhead": {"enabled_overhead_pct": 0.5}},
        }

    def test_append_is_idempotent(self, tmp_path):
        bench = tmp_path / "bench.json"
        ledger = tmp_path / "history.jsonl"
        bench.write_text(json.dumps(self._bench("aaa", "t1")))
        record, appended = obs_history.append(str(bench), str(ledger))
        assert appended and record["git_sha"] == "aaa"
        assert record["profiles"]["b12"]["fault_speedup_packed_vs_naive"] == 12.0
        assert record["gates"]["obs_overhead_pct"] == 0.5
        _, again = obs_history.append(str(bench), str(ledger))
        assert not again
        assert len(obs_history.load_history(str(ledger))) == 1

    def test_compare_flags_synthetic_regression(self, tmp_path):
        ledger = tmp_path / "history.jsonl"
        for sha, stamp, packed in (("aaa", "t1", 12.0), ("bbb", "t2", 4.0)):
            bench = tmp_path / f"{sha}.json"
            bench.write_text(json.dumps(self._bench(sha, stamp, packed=packed)))
            obs_history.append(str(bench), str(ledger))
        history = obs_history.load_history(str(ledger))
        regressions = obs_history.compare(history, threshold=0.6)
        assert [r["key"] for r in regressions] == [
            "fault_speedup_packed_vs_naive"
        ]
        assert regressions[0]["profile"] == "b12"
        assert regressions[0]["ratio"] == pytest.approx(4.0 / 12.0)
        text, rendered = obs_history.render_compare(history, threshold=0.6)
        assert "REGRESSIONS:" in text and rendered == regressions

    def test_compare_passes_within_threshold(self, tmp_path):
        ledger = tmp_path / "history.jsonl"
        for sha, stamp, packed in (("aaa", "t1", 12.0), ("bbb", "t2", 11.0)):
            bench = tmp_path / f"{sha}.json"
            bench.write_text(json.dumps(self._bench(sha, stamp, packed=packed)))
            obs_history.append(str(bench), str(ledger))
        history = obs_history.load_history(str(ledger))
        assert obs_history.compare(history, threshold=0.6) == []
        text, _ = obs_history.render_compare(history, threshold=0.6)
        assert "no regressions beyond the threshold" in text

    def test_history_cli_append_and_strict_compare(self, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        ledger = tmp_path / "history.jsonl"
        bench.write_text(json.dumps(self._bench("aaa", "t1", packed=12.0)))
        assert (
            obs_cli.main(
                ["history", "append", "--bench", str(bench), "--history", str(ledger)]
            )
            == 0
        )
        bench.write_text(json.dumps(self._bench("bbb", "t2", packed=1.0)))
        assert (
            obs_cli.main(
                ["history", "append", "--bench", str(bench), "--history", str(ledger)]
            )
            == 0
        )
        assert (
            obs_cli.main(["history", "compare", "--history", str(ledger)]) == 0
        )
        assert (
            obs_cli.main(
                ["history", "compare", "--history", str(ledger), "--strict"]
            )
            == 1
        )
        capsys.readouterr()

    def test_torn_ledger_line_is_skipped(self, tmp_path):
        ledger = tmp_path / "history.jsonl"
        ledger.write_text('{"git_sha": "aaa", "timestamp": "t1"}\n{"torn...\n')
        assert len(obs_history.load_history(str(ledger))) == 1

    def test_repo_ledger_matches_committed_bench(self):
        """The committed ledger parses and its newest entry is comparable.

        Only committed state is read: ``BENCH_engine.json`` is a build
        artifact (gitignored), so it is absent on a clean checkout.
        """
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ledger = os.path.join(root, "BENCH_history.jsonl")
        with open(ledger, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        history = obs_history.load_history(ledger)
        assert history and len(history) == len(lines), "a ledger line does not parse"
        latest = history[-1]
        for key in ("git_sha", "timestamp", "profiles"):
            assert key in latest, key
        assert latest["profiles"]
        for entry in latest["profiles"].values():
            assert any(key in entry for key in obs_history.COMPARE_KEYS)
        obs_history.render_compare(history)


# -- CLI surface --------------------------------------------------------------
class TestCli:
    def test_export_trace_cli(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(GOLDEN_PAYLOAD))
        out = tmp_path / "trace.json"
        assert obs_cli.main(["export-trace", str(metrics), "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        capsys.readouterr()

    def test_missing_metrics_file_is_a_clean_error(self, tmp_path, capsys):
        assert (
            obs_cli.main(["export-trace", str(tmp_path / "missing.json")]) == 2
        )
        assert "error" in capsys.readouterr().err


# -- runner integration -------------------------------------------------------
class TestRunnerTraceOut:
    @pytest.fixture()
    def cold_cubes(self, tmp_path, monkeypatch):
        from repro.experiments.workloads import build_workload

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cube-cache"))
        build_workload.cache_clear()
        yield
        build_workload.cache_clear()

    def test_trace_out_writes_viewable_trace(self, tmp_path, cold_cubes):
        from repro.experiments.runner import main

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "--artifacts",
                "1",
                "--benchmarks",
                "b01",
                "--trace-out",
                str(trace_path),
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete, "trace has no span intervals"
        names = {e["name"] for e in complete}
        assert any(name.startswith("runner/") for name in names)
        # --trace-out implied tracing + timeline for the run only.
        assert not obs.enabled()
        assert not obs.timeline_enabled()
