"""Static analyzer tests (``repro.analysis``).

Covers the rule fixtures (one firing and one quiet module per rule under
``tests/analysis_fixtures/``), inline-suppression and baseline round
trips, the CLI contract (exit codes, JSON format), the acceptance
demonstrations — deleting a ``fault_lane_mask`` application or adding an
undeclared ``REPRO_*`` read must make the pass fail — and the gate the
CI job enforces: ``src/`` analyzes to zero unsuppressed findings.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.core import fingerprint_of, iter_python_files, load_module

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "analysis_fixtures"


def analyze(*paths):
    return run_analysis([Path(p) for p in paths], ROOT)


def rules_in(report, filename):
    return {
        f.rule for f in report.findings if f.path.endswith(filename)
    }


@pytest.fixture(scope="module")
def fixture_report():
    return analyze(FIXTURES)


# -- per-rule fixtures: one positive, one negative each ----------------------
class TestRuleFixtures:
    @pytest.mark.parametrize(
        "bad,good,rule",
        [
            ("r1_unseeded.py", "r1_seeded.py", "R1"),
            ("r2_fault_tail_unmasked.py", "r2_fault_tail_masked.py", "R2"),
            ("r3_direct_read.py", "r3_registry.py", "R3"),
            ("r4_closure.py", "r4_module_level.py", "R4"),
            ("r5_rogue_counter.py", "r5_declared.py", "R5"),
            ("r6_swallow.py", "r6_visible.py", "R6"),
        ],
    )
    def test_rule_fires_and_stays_quiet(self, fixture_report, bad, good, rule):
        assert rule in rules_in(fixture_report, bad)
        assert rules_in(fixture_report, good) == set()

    def test_r1_catches_every_source_kind(self, fixture_report):
        messages = [
            f.message
            for f in fixture_report.findings
            if f.path.endswith("r1_unseeded.py")
        ]
        text = "\n".join(messages)
        assert "random.shuffle" in text
        assert "np.random.rand" in text
        assert "time.time" in text
        assert "uuid.uuid4" in text
        assert "os.urandom" in text
        assert "iteration over a set" in text

    def test_r2_catches_fault_word_tail_lanes(self, fixture_report):
        messages = [
            f.message
            for f in fixture_report.findings
            if f.path.endswith("r2_fault_tail_unmasked.py")
        ]
        assert any("FAULT_WORD_LANES" in m for m in messages)
        assert any("fault_lane_mask" in m for m in messages)

    def test_r3_distinguishes_bypass_from_undeclared(self, fixture_report):
        messages = [
            f.message
            for f in fixture_report.findings
            if f.path.endswith("r3_direct_read.py")
        ]
        assert any("bypasses" in m for m in messages)
        assert any("not declared" in m for m in messages)

    def test_r6_documented_swallow_is_suppressed_not_dropped(self, fixture_report):
        suppressed = [
            f
            for f in fixture_report.suppressed
            if f.path.endswith("r6_visible.py") and f.rule == "R6"
        ]
        assert len(suppressed) == 1

    def test_findings_are_structured(self, fixture_report):
        finding = fixture_report.findings[0]
        payload = finding.as_dict()
        assert set(payload) == {"rule", "path", "line", "message", "fingerprint"}
        assert payload["line"] >= 1
        assert len(payload["fingerprint"]) == 16


# -- acceptance demonstrations ----------------------------------------------
class TestAcceptance:
    def test_src_is_clean(self):
        report = analyze(ROOT / "src")
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        # The deliberate allows (the workload cache) are visible as
        # suppressions, not silently absent.
        assert sorted(
            (f.rule, Path(f.path).name) for f in report.suppressed
        ) == [("R6", "workloads.py"), ("R6", "workloads.py")]

    def test_deleting_tail_mask_fails_the_pass(self, tmp_path):
        """The real fault-word kernel minus its fault_lane_mask applications."""
        source = (ROOT / "src" / "repro" / "engine" / "fault.py").read_text()
        head, sep, body = source.partition("def packed_first_detects_faults(")
        assert sep, "fault.py must define packed_first_detects_faults"
        kernel, nxt, tail = body.partition("\ndef ")
        assert "fault_lane_mask(" in kernel
        # Strip every fault_lane_mask line from the kernel only; the helper's
        # own definition and its other callers stay untouched.
        kernel = "\n".join(
            line for line in kernel.splitlines() if "fault_lane_mask" not in line
        )
        target = tmp_path / "repro" / "engine" / "fault.py"
        target.parent.mkdir(parents=True)
        target.write_text(head + sep + kernel + nxt + tail)
        report = run_analysis([target], tmp_path)
        r2 = [f for f in report.findings if f.rule == "R2"]
        assert r2, "removing fault_lane_mask from fault.py must trip R2"
        assert any("packed_first_detects_faults" in f.message for f in r2)

    def test_undeclared_env_read_fails_the_pass(self, tmp_path):
        target = tmp_path / "repro" / "newmod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import os\n\n\ndef knob():\n"
            '    return os.getenv("REPRO_BRAND_NEW_KNOB")\n'
        )
        report = run_analysis([target], tmp_path)
        assert any(
            f.rule == "R3" and "REPRO_BRAND_NEW_KNOB" in f.message
            for f in report.findings
        )

    def test_rogue_counter_fails_the_pass(self, tmp_path):
        target = tmp_path / "repro" / "newmod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "from repro.obs import recorder as obs\n\n\ndef f():\n"
            '    obs.counter("cluster.brand_new_counter")\n'
        )
        report = run_analysis([target], tmp_path)
        assert any(f.rule == "R5" for f in report.findings)


# -- suppression and baseline round trips ------------------------------------
class TestSuppression:
    def _violating_module(self, tmp_path, comment=""):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "import os\n\n\ndef knob():\n"
            f'    return os.getenv("REPRO_NOPE"){comment}\n'
        )
        return target

    def test_inline_allow_suppresses(self, tmp_path):
        target = self._violating_module(
            tmp_path, comment="  # repro: allow[R3] fixture"
        )
        report = run_analysis([target], tmp_path)
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["R3"]

    def test_allow_on_line_above(self, tmp_path):
        target = tmp_path / "repro" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "import os\n\n\ndef knob():\n"
            "    # repro: allow[R3] reading around the registry on purpose\n"
            '    return os.getenv("REPRO_NOPE")\n'
        )
        report = run_analysis([target], tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_wildcard_allow(self, tmp_path):
        target = self._violating_module(tmp_path, comment="  # repro: allow[*]")
        report = run_analysis([target], tmp_path)
        assert report.findings == []

    def test_allow_for_other_rule_does_not_suppress(self, tmp_path):
        target = self._violating_module(tmp_path, comment="  # repro: allow[R6]")
        report = run_analysis([target], tmp_path)
        assert [f.rule for f in report.findings] == ["R3"]

    def test_baseline_round_trip(self, tmp_path):
        target = self._violating_module(tmp_path)
        report = run_analysis([target], tmp_path)
        assert len(report.findings) == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, report.findings)
        accepted = load_baseline(baseline)
        assert accepted == {f.fingerprint for f in report.findings}
        # Fingerprints are content-addressed: unrelated line shifts keep
        # them valid, editing the offending line invalidates them.
        fp = report.findings[0].fingerprint
        assert fp == fingerprint_of(
            "R3", report.findings[0].path, 'return os.getenv("REPRO_NOPE")'
        )

    def test_malformed_baseline_is_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"fingerprints": []}')
        with pytest.raises(ValueError, match="version-1"):
            load_baseline(bad)

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        report = run_analysis([target], tmp_path)
        assert [f.rule for f in report.findings] == ["parse"]


# -- CLI ---------------------------------------------------------------------
class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        code = analysis_main(["--root", str(ROOT), "src"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one_human(self, capsys):
        code = analysis_main(["--root", str(ROOT), "tests/analysis_fixtures"])
        out = capsys.readouterr().out
        assert code == 1
        assert "R1:" in out and "R6:" in out

    def test_json_format(self, capsys):
        code = analysis_main(
            ["--root", str(ROOT), "--format", "json", "tests/analysis_fixtures"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["files_checked"] >= 12
        rules = {f["rule"] for f in payload["findings"]}
        assert {"R1", "R2", "R3", "R4", "R5", "R6"} <= rules
        assert payload["suppressed"]

    def test_missing_path_exits_two(self, capsys):
        assert analysis_main(["--root", str(ROOT), "no/such/dir"]) == 2

    def test_write_baseline_then_accept(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = analysis_main(
            [
                "--root",
                str(ROOT),
                "--baseline",
                str(baseline),
                "--write-baseline",
                "tests/analysis_fixtures",
            ]
        )
        assert code == 0
        capsys.readouterr()
        code = analysis_main(
            [
                "--root",
                str(ROOT),
                "--baseline",
                str(baseline),
                "tests/analysis_fixtures",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "baselined" in out

    def test_missing_baseline_exits_two(self, tmp_path):
        code = analysis_main(
            [
                "--root",
                str(ROOT),
                "--baseline",
                str(tmp_path / "missing.json"),
                "src",
            ]
        )
        assert code == 2


# -- discovery ---------------------------------------------------------------
class TestDiscovery:
    def test_pycache_and_hidden_dirs_skipped(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "h.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["real.py"]

    def test_duplicate_paths_deduped(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        files = list(iter_python_files([tmp_path, target]))
        assert len(files) == 1

    def test_load_module_relpath_is_posix(self, tmp_path):
        target = tmp_path / "pkg" / "mod.py"
        target.parent.mkdir()
        target.write_text("x = 1\n")
        module, err = load_module(target, tmp_path)
        assert err is None
        assert module.relpath == "pkg/mod.py"
