"""Figure 2 reproduction: I-Ordering search behaviour and X-stretch statistics.

The paper's Fig. 2 has three panels:

* **2(a)** — the peak input toggles achieved at each iteration (interleave
  size ``k``) of Algorithm 3, for a given circuit;
* **2(b)** — the number of iterations until convergence versus ``log2(n)``
  over all circuits (the empirical O(log n) claim);
* **2(c)** — the distribution of don't-care stretch lengths of the ordered
  pin matrix under the tool, X-Stat and I- orderings (shown for b19 in the
  paper; reproduced for the largest workload in the default set).

Every ordering comes from :mod:`repro.experiments.memo`, keyed by the
content of the cube set and the ordering name, so the I-Ordering trace of
panels (a)/(b) and the three ordered sets of panel (c) are the runs Tables
II-V already made on the same cube sets.  The memo keeps only their
permutations, peaks and traces and rebuilds each ordered set on demand;
holding the ordered sets themselves raised full-scale peak RSS by 7%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cubes.metrics import StretchStats, stretch_histogram
from repro.experiments import memo
from repro.experiments.report import TableResult
from repro.experiments.workloads import build_workloads


@dataclass
class Figure2aSeries:
    """Iteration trace of Algorithm 3 for one circuit (Fig. 2(a))."""

    circuit: str
    k_values: List[int] = field(default_factory=list)
    peak_values: List[int] = field(default_factory=list)


@dataclass
class Figure2bPoint:
    """One circuit's iteration count vs log2(pattern count) (Fig. 2(b))."""

    circuit: str
    n_patterns: int
    log2_n: float
    iterations: int


@dataclass
class Figure2cSeries:
    """X-stretch statistics of one ordering of one circuit (Fig. 2(c))."""

    circuit: str
    ordering: str
    stats: StretchStats

    def bucket_counts(self) -> Dict[str, int]:
        """Histogram bucketed for plotting/reporting."""
        return self.stats.bucketed()


@dataclass
class Figure2Result:
    """All three panels of Fig. 2."""

    panel_a: List[Figure2aSeries] = field(default_factory=list)
    panel_b: List[Figure2bPoint] = field(default_factory=list)
    panel_c: List[Figure2cSeries] = field(default_factory=list)


def run(names: Optional[List[str]] = None, seed: int = 0) -> Figure2Result:
    """Reproduce all three panels of Fig. 2.

    Args:
        names: benchmarks to include (default benchmark list).
        seed: workload seed.

    Panel (c) is drawn for the workload in ``names`` with the most test
    pins (the paper uses b19).
    """
    workloads = build_workloads(names, seed=seed)
    result = Figure2Result()
    for workload in workloads:
        ordering = memo.ordering("i-ordering", workload.cubes)
        result.panel_a.append(
            Figure2aSeries(
                circuit=workload.name,
                k_values=[step.k for step in ordering.trace],
                peak_values=[step.peak for step in ordering.trace],
            )
        )
        result.panel_b.append(
            Figure2bPoint(
                circuit=workload.name,
                n_patterns=len(workload.cubes),
                log2_n=math.log2(max(len(workload.cubes), 2)),
                iterations=ordering.iterations,
            )
        )

    target = max(workloads, key=lambda w: w.circuit.n_test_pins)
    for ordering_name in ("tool", "xstat", "i-ordering"):
        ordered = memo.ordering(ordering_name, target.cubes).ordered
        result.panel_c.append(
            Figure2cSeries(
                circuit=target.name,
                ordering=ordering_name,
                stats=stretch_histogram(ordered),
            )
        )
    return result


def as_tables(result: Figure2Result) -> List[TableResult]:
    """Format the three panels as report tables."""
    table_a = TableResult(
        title="Figure 2(a) - I-Ordering iterations vs peak input toggles",
        columns=["circuit", "k values", "peak toggles per k"],
    )
    for series in result.panel_a:
        table_a.rows.append(
            {
                "circuit": series.circuit,
                "k values": " ".join(str(k) for k in series.k_values),
                "peak toggles per k": " ".join(str(p) for p in series.peak_values),
            }
        )

    table_b = TableResult(
        title="Figure 2(b) - optimum iteration count vs log2(n)",
        columns=["circuit", "patterns", "log2(n)", "iterations"],
    )
    for point in result.panel_b:
        table_b.rows.append(
            {
                "circuit": point.circuit,
                "patterns": point.n_patterns,
                "log2(n)": round(point.log2_n, 2),
                "iterations": point.iterations,
            }
        )

    table_c = TableResult(
        title="Figure 2(c) - don't-care stretch statistics by ordering",
        columns=["circuit", "ordering", "stretches", "mean length", "max length", "buckets"],
    )
    for series in result.panel_c:
        table_c.rows.append(
            {
                "circuit": series.circuit,
                "ordering": series.ordering,
                "stretches": series.stats.total_stretches,
                "mean length": round(series.stats.mean_length, 2),
                "max length": series.stats.max_length,
                "buckets": str(series.bucket_counts()),
            }
        )
    return [table_a, table_b, table_c]
