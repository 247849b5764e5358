"""Behaviour lock: the ``dpfill-experiments --seed 0`` report, byte for byte.

The files under ``tests/data/`` hold the report body (every rendered table,
i.e. the text between the header and the runtime line) for the default
profiles and for ``REPRO_INCLUDE_LARGE=1`` (the large profiles, scaled).
A change that moves the engine and its references together cannot hide
from this test the way it can from the parity suites.  A change that alters
the report on purpose regenerates both files and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.workloads import build_workload

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden, include_large",
    [
        pytest.param(
            "golden_report_default.txt", False, id="golden_report_default.txt-False"
        ),
        pytest.param(
            "golden_report_large.txt", True, id="golden_report_large.txt-True"
        ),
    ],
)
def test_report_body_matches_golden(golden, include_large, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    if include_large:
        monkeypatch.setenv("REPRO_INCLUDE_LARGE", "1")
    else:
        monkeypatch.delenv("REPRO_INCLUDE_LARGE", raising=False)
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
    out = tmp_path / "report.txt"
    # Build every workload from scratch: cold cube cache, no in-process reuse.
    build_workload.cache_clear()
    try:
        assert runner.main(["--seed", "0", "--out", str(out)]) == 0
    finally:
        build_workload.cache_clear()
    capsys.readouterr()
    header, body = out.read_text().split("\n\n", 1)
    assert header.startswith("DP-fill reproduction - experiment report")
    assert body == (DATA / golden).read_text()
