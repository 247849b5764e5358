"""repro — a reproduction of "DP-fill: A Dynamic Programming approach to
X-filling for minimizing peak test power in scan tests" (DATE 2015).

The package implements the paper's optimal X-filling algorithm (DP-fill), the
interleaved test-vector ordering (I-Ordering), every baseline fill/ordering
the paper compares against, and the full substrate needed to regenerate the
evaluation: a gate-level netlist library with an ISCAS ``.bench`` front end,
a PODEM ATPG, fault simulation and a capacitance-weighted capture-power
model.

Quickstart
----------

>>> from repro import TestSet, dp_fill, interleaved_ordering
>>> cubes = TestSet.from_strings(["0XX1", "1X0X", "XX11", "0X0X"])
>>> ordered = interleaved_ordering(cubes).ordered
>>> report = dp_fill(ordered)
>>> report.peak_toggles == report.lower_bound
True

See ``examples/`` for complete flows and ``repro.experiments`` for the
table/figure reproductions.
"""

from repro.core import (
    DPFillReport,
    OrderingResult,
    bcp_lower_bound,
    dp_fill,
    extract_intervals,
    greedy_coloring,
    interleaved_ordering,
    solve_bcp,
    solve_weighted_bcp,
)
from repro.cubes import (
    ONE,
    X,
    ZERO,
    TestCube,
    TestSet,
    hamming_distance,
    peak_toggles,
    stretch_histogram,
    toggle_profile,
    total_toggles,
    x_density,
)
from repro.filling import Filler, available_fillers, get_filler
from repro.orderings import Ordering, available_orderings, get_ordering

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # cubes
    "ZERO",
    "ONE",
    "X",
    "TestCube",
    "TestSet",
    "hamming_distance",
    "peak_toggles",
    "toggle_profile",
    "total_toggles",
    "x_density",
    "stretch_histogram",
    # core
    "dp_fill",
    "DPFillReport",
    "extract_intervals",
    "bcp_lower_bound",
    "greedy_coloring",
    "solve_bcp",
    "solve_weighted_bcp",
    "interleaved_ordering",
    "OrderingResult",
    # registries
    "Filler",
    "get_filler",
    "available_fillers",
    "Ordering",
    "get_ordering",
    "available_orderings",
]
