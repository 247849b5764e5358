"""Table VI reproduction: peak circuit (capture) power per technique.

Every technique's filled pattern set is applied to the stand-in circuit and
graded by the capacitance-weighted switching-power model.  Absolute
microwatt values are not comparable to the paper's (different netlists and a
synthetic extraction); the reproduced claims are the ranking of techniques
and the growth of the improvement with circuit size.
"""

from __future__ import annotations

from typing import List, Optional

from repro.benchmarks_data.paper_results import PAPER_TABLE6
from repro.experiments.report import TableResult, percent_improvement
from repro.experiments.techniques import TECHNIQUES, apply_all_techniques
from repro.experiments.workloads import build_workloads
from repro.power.estimator import PowerEstimator

COLUMNS = (
    ["circuit"]
    + [f"{name} (uW)" for name in TECHNIQUES]
    + ["%impr Tool", "%impr XStat", "input/circuit corr", "Proposed (paper, uW)"]
)


def run(names: Optional[List[str]] = None, seed: int = 0) -> TableResult:
    """Reproduce Table VI over the default (or given) benchmarks."""
    workloads = build_workloads(names, seed=seed)
    result = TableResult(
        title="Table VI - peak capture power (uW): proposed vs existing techniques",
        columns=COLUMNS,
    )
    for workload in workloads:
        estimator = PowerEstimator(workload.circuit, seed=seed)
        outcomes = apply_all_techniques(workload.cubes)
        row = {"circuit": workload.name}
        # One simulation pass grades every technique's fill.
        filled = [outcomes[technique].filled for technique in TECHNIQUES]
        reports = dict(zip(TECHNIQUES, estimator.estimate_many(filled)))
        for technique, report in reports.items():
            row[f"{technique} (uW)"] = round(report.peak_power_uw, 1)
        proposed = reports["Proposed"].peak_power_uw
        row["%impr Tool"] = round(percent_improvement(reports["Tool"].peak_power_uw, proposed) or 0.0, 1)
        row["%impr XStat"] = round(percent_improvement(reports["XStat"].peak_power_uw, proposed) or 0.0, 1)
        row["input/circuit corr"] = round(
            reports["Proposed"].activity.input_circuit_correlation(), 2
        )
        paper_row = PAPER_TABLE6.get(workload.name, {})
        row["Proposed (paper, uW)"] = paper_row.get("Proposed")
        result.rows.append(row)
    result.notes.append(
        "power values use the synthetic 45nm-flavoured capacitance extraction; compare"
        " rankings and improvement factors, not absolute microwatts"
    )
    return result
