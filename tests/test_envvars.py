"""Environment-variable registry tests (``repro.envvars``).

The registry is the single source of truth for every ``REPRO_*`` knob:
strict parsers (bad values fail loudly with the variable named), one
declaration per variable, and a rendered README table the R3 analyzer
rule locks against drift.  These tests pin the parser error contracts,
the declaration invariants, resolution through real environment values,
and the table/README machinery.
"""

from __future__ import annotations

import pytest

from repro import envvars


class TestParsers:
    def test_parse_jobs_accepts_positive(self):
        assert envvars.parse_jobs("4") == 4
        assert envvars.parse_jobs(2) == 2

    @pytest.mark.parametrize("bad", ["0", "-1", "x", "1.5", ""])
    def test_parse_jobs_rejects(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            envvars.parse_jobs(bad, source="REPRO_JOBS")

    def test_parse_jobs_names_its_source(self):
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envvars.parse_jobs("zero", source="REPRO_JOBS")

    @pytest.mark.parametrize(
        "token,expected",
        [("1", True), ("true", True), ("YES", True), ("on", True),
         ("0", False), ("false", False), ("No", False), ("off", False)],
    )
    def test_parse_flag_tokens(self, token, expected):
        assert envvars.parse_flag(token, "REPRO_TRACE") is expected

    def test_parse_flag_rejects_garbage(self):
        with pytest.raises(ValueError, match="REPRO_TRACE"):
            envvars.parse_flag("maybe", "REPRO_TRACE")


class TestRegistry:
    def test_all_declarations_are_repro_prefixed(self):
        assert envvars.REGISTRY
        for name, var in envvars.REGISTRY.items():
            assert name == var.name
            assert name.startswith("REPRO_")
            assert var.doc  # every knob is documented

    def test_declare_rejects_foreign_prefix(self):
        with pytest.raises(ValueError, match="REPRO_"):
            envvars.declare("OTHER_THING", envvars.parse_string, doc="x")

    def test_declare_rejects_duplicates(self):
        existing = next(iter(envvars.REGISTRY))
        with pytest.raises(ValueError, match="already declared"):
            envvars.declare(existing, envvars.parse_string, doc="x")

    def test_is_declared(self):
        assert envvars.is_declared("REPRO_JOBS")
        assert not envvars.is_declared("REPRO_NOT_A_THING")

    def test_known_knobs_present(self):
        expected = {
            "REPRO_JOBS", "REPRO_TRACE", "REPRO_TIMELINE",
            "REPRO_METRICS", "REPRO_CACHE_DIR", "REPRO_INCLUDE_LARGE",
            "REPRO_FULL_SCALE", "REPRO_BENCH_FULL",
        }
        assert expected == set(envvars.REGISTRY)


class TestResolution:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert envvars.JOBS.read() is None
        assert not envvars.JOBS.is_set()

    def test_set_value_is_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 3 ")
        assert envvars.JOBS.read() == 3
        assert envvars.JOBS.is_set()
        assert envvars.JOBS.raw() == "3"

    def test_bad_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            envvars.JOBS.read()

    def test_empty_string_means_unset_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "")
        assert envvars.TRACE.read() is False  # parse_flag default path

    def test_cache_dir_empty_and_off_disable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        assert envvars.CACHE_DIR.read() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert envvars.CACHE_DIR.read() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/cache")
        assert envvars.CACHE_DIR.read() == "/tmp/cache"
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert envvars.CACHE_DIR.read() == ".repro_cache"


class TestTable:
    def test_render_table_lists_every_variable(self):
        table = envvars.render_table()
        for name in envvars.REGISTRY:
            assert f"`{name}`" in table

    def test_readme_block_is_marker_wrapped(self):
        block = envvars.readme_block()
        assert block.startswith(envvars.TABLE_BEGIN)
        assert block.endswith(envvars.TABLE_END)

    def test_update_readme_round_trip(self, tmp_path):
        target = tmp_path / "README.md"
        target.write_text(
            "# Title\n\n"
            f"{envvars.TABLE_BEGIN}\nstale\n{envvars.TABLE_END}\n\ntail\n"
        )
        assert envvars.update_readme(str(target)) is True
        assert envvars.render_table() in target.read_text()
        assert envvars.update_readme(str(target)) is False  # idempotent

    def test_update_readme_requires_markers(self, tmp_path):
        target = tmp_path / "README.md"
        target.write_text("# Title\n")
        with pytest.raises(ValueError, match="markers"):
            envvars.update_readme(str(target))

    def test_repo_readme_table_is_current(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        text = readme.read_text()
        inner = text.split(envvars.TABLE_BEGIN, 1)[1].split(
            envvars.TABLE_END, 1
        )[0].strip()
        assert inner == envvars.render_table().strip()
