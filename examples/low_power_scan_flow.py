#!/usr/bin/env python
"""Full low-power scan-test flow on a circuit, from ATPG to capture power.

This is the paper's complete pipeline in miniature:

1. build a circuit (an ITC'99-profile stand-in, b08-sized),
2. run the PODEM ATPG to get don't-care-rich test cubes and measure coverage,
3. apply three techniques — the tool baseline, X-Stat, and the proposed
   I-Ordering + DP-fill — to the same cube set,
4. verify that X-filling did not lose any fault coverage,
5. estimate the peak capture power of the filled sets with the
   capacitance-weighted switching model (Table VI's metric).

Run with ``python examples/low_power_scan_flow.py``.
"""

from __future__ import annotations

from repro.atpg import FaultSimulator, collapse_faults, generate_test_cubes
from repro.circuit import itc99_like
from repro.experiments.techniques import TECHNIQUES, apply_all_techniques
from repro.power import PowerEstimator


def main() -> None:
    # 1. Circuit: a b08-profile stand-in (about 200 gates, 30 test pins).
    circuit = itc99_like("b08")
    stats = circuit.stats()
    print(f"circuit {circuit.name}: {stats['gates']} gates, {stats['flip_flops']} flip-flops, "
          f"{stats['test_pins']} test pins, depth {stats['depth']}")

    # 2. ATPG: PODEM + fault dropping over the collapsed stuck-at fault list.
    atpg = generate_test_cubes(circuit, max_faults=150, backtrack_limit=20)
    cubes = atpg.cubes
    print(f"ATPG: {len(cubes)} cubes, fault coverage {100 * atpg.fault_coverage:.1f}%, "
          f"X density {atpg.x_percent:.1f}%")

    # 3. Low-power techniques on the same cube set.
    outcomes = apply_all_techniques(cubes)
    print("\npeak input toggles per technique:")
    for name in TECHNIQUES:
        print(f"  {name:>9}: {outcomes[name].peak_input_toggles}")

    # 4. X-filling must never lose coverage: every filled set still detects the
    #    faults the cubes were generated for (filling only constrains X bits).
    simulator = FaultSimulator(circuit)
    faults = collapse_faults(circuit)
    baseline_coverage = simulator.run(outcomes["Tool"].filled, faults).coverage
    proposed_coverage = simulator.run(outcomes["Proposed"].filled, faults).coverage
    print(f"\nstuck-at coverage of the filled sets: tool {100 * baseline_coverage:.1f}%, "
          f"proposed {100 * proposed_coverage:.1f}%")

    # 5. Peak capture power: one simulation pass grades the three fills.
    graded = ("Tool", "XStat", "Proposed")
    estimator = PowerEstimator(circuit)
    reports = dict(zip(graded, estimator.estimate_many([outcomes[name].filled for name in graded])))
    print("\npeak capture power:")
    for name, power in reports.items():
        print(f"  {name:>9}: {power.peak_power_uw:7.1f} uW")

    correlation = reports["Proposed"].activity.input_circuit_correlation()
    print(f"\ninput-toggle vs circuit-toggle correlation (proposed): {correlation:.2f}")


if __name__ == "__main__":
    main()
