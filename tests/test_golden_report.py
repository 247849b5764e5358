"""Behaviour lock: the ``dpfill-experiments --seed 0`` report, byte for byte.

The files under ``tests/data/`` hold the report body (every rendered table,
i.e. the text between the header and the runtime line) for the default
profiles and for ``REPRO_INCLUDE_LARGE=1`` (the large profiles, scaled).
A change that moves the engine and its references together cannot hide
from this test the way it can from the parity suites.  On the default profiles
the same file also locks the multi-process path: ``--jobs 2`` with the cells
on the worker pool, and ``--jobs 2`` on an in-process fake pool that runs
them newest-first, so out-of-order cell merging is locked on any machine.  A change that alters the report on purpose regenerates both files
and says why.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.pool import shutdown_worker_pool
from repro.experiments import runner
from repro.experiments.workloads import build_workload
from tests.helpers import NewestFirstPool

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "golden, include_large, args, lifo",
    [
        pytest.param(
            "golden_report_default.txt",
            False,
            [],
            False,
            id="golden_report_default.txt-False",
        ),
        pytest.param(
            "golden_report_large.txt",
            True,
            [],
            False,
            id="golden_report_large.txt-True",
        ),
        pytest.param(
            "golden_report_default.txt",
            False,
            ["--jobs", "2"],
            False,
            id="golden_report_default.txt-jobs2",
        ),
        pytest.param(
            "golden_report_default.txt",
            False,
            ["--jobs", "2"],
            True,
            id="golden_report_default.txt-jobs2-lifo",
        ),
    ],
)
def test_report_body_matches_golden(
    golden, include_large, args, lifo, tmp_path, monkeypatch, capsys
):
    if lifo:
        monkeypatch.setattr(runner, "worker_pool", lambda jobs: NewestFirstPool())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    if include_large:
        monkeypatch.setenv("REPRO_INCLUDE_LARGE", "1")
    else:
        monkeypatch.delenv("REPRO_INCLUDE_LARGE", raising=False)
    monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
    out = tmp_path / "report.txt"
    # Build every workload from scratch: cold cube cache, no in-process reuse,
    # and pool workers spawned under this environment.
    build_workload.cache_clear()
    shutdown_worker_pool()
    try:
        assert runner.main(["--seed", "0", *args, "--out", str(out)]) == 0
    finally:
        build_workload.cache_clear()
        shutdown_worker_pool()
    capsys.readouterr()
    header, body = out.read_text().split("\n\n", 1)
    assert header.startswith("DP-fill reproduction - experiment report")
    assert body == (DATA / golden).read_text()
