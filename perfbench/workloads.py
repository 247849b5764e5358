"""The benchmark's workloads: seeded generators, the timed program calls, and grading.

Each workload has three steps, run by :mod:`perfbench.rep` in a fresh
interpreter per repetition:

* ``setup(seed)`` builds the inputs (circuits, plus PODEM or synthetic cubes);
* ``reproduce(built, seed, ledger)`` drives the program's public experiment
  functions from built inputs to tables or grades;
* ``grade(output, ledger)`` checks the output and extracts the answer metrics
  (untimed).

The program only ever receives what the generator built from the seed.  This
module imports ``repro`` lazily, so ``perfbench/run.py`` can read the workload
table without loading the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench import checks

FILL_COLUMNS = ["MT-fill", "R-fill", "0-fill", "1-fill", "B-fill", "DP-fill"]


@dataclass
class Answer:
    """Answer of one reproduction, plus the text its digest covers.

    ``proposed`` and ``xstat`` are Σ peak input toggles over the Table V
    rows; ``perfbench/run.py`` turns them into ``proposed_peak_toggles`` and
    ``proposed_over_xstat``.
    """

    proposed: int
    xstat: int
    proposed_peak_power_uw: float
    text: str


@dataclass
class PaperWorkload:
    """All eight artefacts of ``dpfill-experiments`` over a benchmark list.

    Args:
        names: benchmark names, ``None`` for the program's default list.
        env: extra environment for the repetition (e.g. full-scale circuits).
        seeds_per_pass: consecutive workload seeds one pass runs.
        reference_digests: digest of the rendered tables for known seeds.
    """

    name: str
    why: str
    names: Optional[List[str]]
    env: Dict[str, str] = field(default_factory=dict)
    seeds_per_pass: int = 1
    reference_digests: Dict[int, str] = field(default_factory=dict)

    def setup(self, seed: int):
        from repro.experiments.workloads import build_workloads

        return build_workloads(self.names, seed=seed)

    def reproduce(self, built, seed: int, ledger: checks.Ledger):
        from repro.experiments import runner

        tables = {}
        for artifact in runner.ARTIFACTS:
            try:
                tables[artifact] = runner.run_all([artifact], self.names, seed=seed, jobs=1)[artifact]
            except Exception as exc:  # one failed artefact must not end the run
                ledger.error(f"artifact {artifact}", exc)
        return tables

    def grade(self, tables, ledger: checks.Ledger) -> Answer:
        from repro.experiments.report import render_table
        from repro.experiments.runner import ARTIFACTS

        for artifact in ("2", "3", "4"):
            for row in _rows(tables, artifact):
                ledger.op(checks.row_minimum_problem(row, FILL_COLUMNS))
        table5 = _rows(tables, "5")
        for row in table5:
            ledger.op(checks.technique_problem(row))
        parts = []
        for artifact in ARTIFACTS:
            for table in tables.get(artifact, []):
                parts += [render_table(table), ""]
        return Answer(
            proposed=sum(row["Proposed"] for row in table5),
            xstat=sum(row["XStat"] for row in table5),
            proposed_peak_power_uw=float(sum(row["Proposed (uW)"] for row in _rows(tables, "6"))),
            # Byte for byte what `dpfill-experiments` prints between its
            # header and its runtime line.
            text="\n".join(parts) + "\n",
        )


def _rows(tables, artifact: str) -> List[dict]:
    return tables[artifact][0].rows if artifact in tables else []


@dataclass
class LongSetsWorkload:
    """The Tables II-VI flow on one full-size circuit with a long cube set.

    The circuit and the synthetic cube set (``n_patterns`` cubes at the
    profile's X density) are built from the seed; the program's experiment
    functions then order, fill, apply the techniques and grade power.
    """

    name: str
    why: str
    profile: str
    n_patterns: int
    env: Dict[str, str] = field(default_factory=dict)
    seeds_per_pass: int = 1
    reference_digests: Dict[int, str] = field(default_factory=dict)

    def setup(self, seed: int):
        from repro.benchmarks_data.profiles import get_profile
        from repro.circuit.library import itc99_like
        from repro.cubes.generator import CubeSetSpec, generate_cube_set

        profile = get_profile(self.profile)
        circuit = itc99_like(self.profile, seed=seed)
        spec = CubeSetSpec(
            n_pins=circuit.n_test_pins,
            n_patterns=self.n_patterns,
            x_fraction=profile.x_fraction,
            seed=seed,
        )
        return circuit, generate_cube_set(spec)

    def reproduce(self, built, seed: int, ledger: checks.Ledger):
        from repro.experiments import fill_sweep, techniques
        from repro.power.estimator import PowerEstimator

        circuit, cubes = built
        sweeps = {}
        for ordering in ("tool", "xstat", "i-ordering"):
            try:
                ordered = fill_sweep.apply_ordering(ordering, cubes)
                sweeps[ordering] = fill_sweep.peak_toggles_by_fill(ordered)
            except Exception as exc:  # count it and go on with the next ordering
                ledger.error(f"sweep {ordering}", exc)
        peaks, power = {}, {}
        try:
            outcomes = techniques.apply_all_techniques(cubes)
            estimator = PowerEstimator(circuit, seed=seed)
        except Exception as exc:  # no techniques, no power grades
            ledger.error("techniques", exc)
            return sweeps, peaks, power
        for name, outcome in outcomes.items():
            peaks[name] = outcome.peak_input_toggles
            try:
                power[name] = estimator.estimate(outcome.filled).peak_power_uw
            except Exception as exc:  # count it and grade the next technique
                ledger.error(f"power {name}", exc)
        return sweeps, peaks, power

    def grade(self, output, ledger: checks.Ledger) -> Answer:
        sweeps, peaks, power = output
        for ordering, row in sweeps.items():
            ledger.op(checks.row_minimum_problem(dict(row, circuit=ordering), FILL_COLUMNS))
        if len(peaks) == len(power) == 5:
            ledger.op(checks.technique_problem(peaks))
        return Answer(
            proposed=peaks.get("Proposed", 0),
            xstat=peaks.get("XStat", 0),
            proposed_peak_power_uw=power.get("Proposed", 0.0),
            text=json.dumps({"sweeps": sweeps, "peaks": peaks, "power": power}, sort_keys=True),
        )


WORKLOADS = {
    w.name: w
    for w in [
        PaperWorkload(
            name="paper-default",
            why="the shipped reproduction: all 8 artefacts on the 13 default profiles, "
            "cold cube cache; PODEM and per-call overhead of many tiny fills dominate",
            names=None,
            seeds_per_pass=4,
            # `dpfill-experiments --seed 0`: the tables it prints, byte for byte.
            reference_digests={0: "33fab6681d807f1b289ba0b123dcd3c25b8c5061c8a36e4ec87bfd2f5858ef21"},
        ),
        PaperWorkload(
            name="paper-fullscale",
            why="all 8 artefacts on full-size b17+b18 (28k-76k gates, wide cube sets): "
            "circuit generation, XStat/MT fill, power and interval extraction dominate",
            names=["b17", "b18"],
            env={"REPRO_FULL_SCALE": "1"},
            seeds_per_pass=2,
        ),
        LongSetsWorkload(
            name="long-sets",
            why="Tables II-VI flow on full-size b14 with 2048 cubes: stresses the pattern "
            "axis (I-Ordering search, O(n^2) ISA/XStat tours) instead of the pin axis",
            profile="b14",
            n_patterns=2048,
            seeds_per_pass=4,
        ),
    ]
}
