"""Shared machinery for the ordering x X-filling sweeps (Tables II-IV).

Each of the three tables fixes a test-vector ordering and reports the peak
input toggles of every X-filling method on every benchmark.  The sweep logic
is identical; only the ordering changes.

Both steps go through :mod:`repro.experiments.memo`, keyed by the content
of the cube set (a blake2b digest of its matrix and shape) and the registry
name: an ordering runs once per cube set and a fill once per ordered set,
so Table V and Fig. 2 reuse the sweeps' orderings, and Table V's Tool,
XStat and Proposed columns the sweeps' fills.  The memo keeps an ordering
as its permutation and a fill as its peak plus its bit-packed matrix (the
one-pass MT, R, 0 and 1 fills as their peak alone), never as an ``int8``
matrix; holding the ordered and filled sets raised full-scale peak RSS by
7%.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cubes.cube import TestSet
from repro.experiments import memo
from repro.experiments.report import TableResult
from repro.experiments.workloads import build_workloads

#: The filling methods of Tables II-IV, in the paper's column order.
FILL_METHODS: List[str] = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill"]


def apply_ordering(ordering_name: str, cubes: TestSet) -> TestSet:
    """Order a cube set by the named ordering algorithm."""
    return memo.ordering(ordering_name, cubes).ordered


def peak_toggles_by_fill(ordered_cubes: TestSet, fill_methods: Optional[List[str]] = None) -> Dict[str, int]:
    """Peak input toggles of each filling method on an already-ordered cube set."""
    return memo.fill_peaks(ordered_cubes, fill_methods or FILL_METHODS)


def fill_sweep_table(
    title: str,
    ordering_name: str,
    names: Optional[List[str]] = None,
    seed: int = 0,
    paper_table: Optional[Dict[str, Dict[str, float]]] = None,
) -> TableResult:
    """Build one of the Tables II-IV.

    Args:
        title: table title.
        ordering_name: registered ordering to apply before filling.
        names: benchmark names (default benchmark list).
        seed: workload seed.
        paper_table: the corresponding published table; when given, the
            paper's DP-fill column is appended for side-by-side comparison.
    """
    workloads = build_workloads(names, seed=seed)
    columns = ["circuit"] + FILL_METHODS
    if paper_table is not None:
        columns.append("DP-fill (paper)")
    result = TableResult(title=title, columns=columns)

    for workload in workloads:
        ordered = apply_ordering(ordering_name, workload.cubes)
        row: Dict[str, object] = {"circuit": workload.name}
        row.update(peak_toggles_by_fill(ordered))
        if paper_table is not None:
            paper_row = paper_table.get(workload.name, {})
            row["DP-fill (paper)"] = paper_row.get("DP-fill")
        result.rows.append(row)

    result.notes.append(
        f"ordering: {ordering_name}; DP-fill is provably optimal for each ordering, so its"
        " column must be the row minimum"
    )
    return result
