"""The shared ordering/fill memo: dedup across artefacts, keys, memory shape."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.core import dpfill, ordering as core_ordering
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.cubes.metrics import peak_toggles
from repro.experiments import fill_sweep, memo, runner, techniques
from repro.filling import Filler, get_filler
from repro.orderings import Ordering, get_ordering


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _spy_everywhere(monkeypatch, module, name, record):
    """Wrap ``module.name`` at every ``repro`` import site."""
    original = getattr(module, name)

    def spy(patterns, *args, **kwargs):
        record(name, patterns)
        return original(patterns, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("repro") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, spy)


@pytest.fixture
def spied(monkeypatch):
    """Record (phase, kind, algorithm, input content) for every ordering and fill run."""
    calls = []
    phase = ["setup"]

    def record(kind, patterns, algorithm=""):
        calls.append((phase[0], kind, algorithm, memo.content_key(patterns)))

    def wrap(cls, method, kind):
        original = vars(cls)[method]

        def spy(self, patterns):
            record(kind, patterns, cls.name)
            return original(self, patterns)

        monkeypatch.setattr(cls, method, spy)

    for cls in _subclasses(Ordering):
        if "order" in vars(cls):
            wrap(cls, "order", "order")
    for cls in _subclasses(Filler):
        if "fill" in vars(cls):
            wrap(cls, "fill", "fill")
    _spy_everywhere(monkeypatch, core_ordering, "interleaved_ordering", record)
    _spy_everywhere(monkeypatch, dpfill, "dp_fill", record)
    return calls, phase


def test_every_artifact_reuses_orderings_and_fills(spied):
    calls, phase = spied
    for artifact in runner.ARTIFACTS:
        phase[0] = artifact
        runner.run_all([artifact], ["b05"], seed=0)

    # One ordering run per (cube set, ordering), whichever artefact asks.
    orderings = Counter(call[1:] for call in calls if call[1] in ("order", "interleaved_ordering"))
    assert orderings and set(orderings.values()) == {1}, orderings

    # The sweeps fill each (ordered set, fill) once.
    sweep_fills = [call[1:] for call in calls if call[0] in ("2", "3", "4") and call[1] == "fill"]
    assert len(sweep_fills) == 3 * len(fill_sweep.FILL_METHODS)
    assert set(Counter(sweep_fills).values()) == {1}

    # Table V reads the sweeps' orderings and fills: it orders only for ISA,
    # which no sweep uses, and fills only Adj-fill on the ISA and tool
    # orders.  Tool (B-fill wins on b05), XStat and Proposed are lookups.
    table5 = Counter(call[1] for call in calls if call[0] == "5")
    assert table5 == {"order": 1, "fill": 2}

    # No artefact fills an (ordered set, filler) another one already filled.
    fills = Counter(call[1:] for call in calls if call[1] in ("fill", "dp_fill"))
    assert fills and set(fills.values()) == {1}, fills

    # Table VI grades Table V's fills; Fig. 2 reads the memoised orderings.
    assert [call for call in calls if call[0] in ("6", "fig2")] == []


def test_key_is_content_not_identity(spied):
    calls, _ = spied
    cubes = generate_cube_set(CubeSetSpec(n_pins=12, n_patterns=10, x_fraction=0.6, seed=3))
    first = memo.ordering("xstat", cubes)
    assert len(calls) == 1

    again = memo.ordering("xstat", cubes.copy())
    assert len(calls) == 1
    assert again.ordered == first.ordered and again.permutation == first.permutation

    flipped = cubes.matrix.copy()
    flipped[4, 7] = 1 - flipped[4, 7] if flipped[4, 7] != 2 else 0
    memo.ordering("xstat", TestSet.from_matrix(flipped))
    assert len(calls) == 2

    reshaped = TestSet.from_matrix(cubes.matrix.reshape(5, 24))
    assert memo.content_key(reshaped)[0] == memo.content_key(cubes)[0]
    memo.ordering("xstat", reshaped)
    assert len(calls) == 3


def test_memo_results_equal_direct_computation():
    cubes = generate_cube_set(CubeSetSpec(n_pins=20, n_patterns=14, x_fraction=0.7, seed=5))
    for name in ("tool", "isa", "xstat", "i-ordering"):
        direct = get_ordering(name).order(cubes)
        for _ in range(2):  # miss, then hit
            cached = memo.ordering(name, cubes)
            assert cached.ordered == direct.ordered
            assert cached.ordered.names == direct.ordered.names
            assert (cached.permutation, cached.peak) == (direct.permutation, direct.peak)
            assert (cached.trace, cached.iterations) == (direct.trace, direct.iterations)
    ordered = get_ordering("xstat").order(cubes).ordered
    expected = {name: get_filler(name).run(ordered).peak_toggles for name in fill_sweep.FILL_METHODS}
    assert memo.fill_peaks(ordered, fill_sweep.FILL_METHODS) == expected
    pairs = {
        "Tool": ("tool", None),  # the first existing fill with the least peak
        "ISA": ("isa", "Adj-fill"),
        "Adj-fill": ("tool", "Adj-fill"),
        "XStat": ("xstat", "B-fill"),
        "Proposed": ("i-ordering", "DP-fill"),
    }
    assert list(pairs) == techniques.TECHNIQUES
    for name, (ordering, filler) in pairs.items():
        ordered = get_ordering(ordering).order(cubes).ordered
        if filler is None:
            existing = ("MT-fill", "R-fill", "0-fill", "1-fill", "B-fill")
            runs = [get_filler(fill).run(ordered) for fill in existing]
            direct = min(runs, key=lambda run: run.peak_toggles).filled
        else:
            direct = get_filler(filler).fill(ordered)
        for _ in range(2):  # miss or peak-only entry, then hit
            outcome = techniques.apply_technique(name, cubes)
            assert outcome.filled == direct and outcome.filled.names == direct.names
            assert outcome.peak_input_toggles == peak_toggles(direct)
    # A peak-only entry is refilled once, then serves the packed fill.
    memo.clear()
    ordered = get_ordering("xstat").order(cubes).ordered
    direct = get_filler("0-fill").fill(ordered)
    assert memo.fill_peaks(ordered, ["0-fill"]) == {"0-fill": peak_toggles(direct)}
    assert memo._ENTRIES[("fill", "0-fill", memo.content_key(ordered))].bits is None
    for _ in range(2):
        filled, peak = memo.best_fill("xstat", cubes, ["0-fill"])
        assert filled == direct and filled.names == ordered.names and peak == peak_toggles(direct)
    assert memo._ENTRIES[("fill", "0-fill", memo.content_key(ordered))].bits is not None


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(memo, "MAX_ENTRIES", 2)
    sets = [generate_cube_set(CubeSetSpec(n_pins=6, n_patterns=5, x_fraction=0.5, seed=s)) for s in range(4)]
    for cubes in sets:
        memo.fill_peaks(cubes, ["0-fill"])
    assert list(memo._ENTRIES) == [("fill", "0-fill", memo.content_key(cubes)) for cubes in sets[2:]]


def test_memo_holds_no_pin_matrices():
    """A long set through the three sweeps and all techniques leaves < 2x its matrix in the memo.

    Keeping the ordered and filled ``TestSet``s would hold at least 9x:
    four ordered sets plus five technique fills.  The memo holds eight
    packed fills (the sweeps' B-fill and DP-fill, and Adj-fill on the ISA
    and tool orders), an eighth of the matrix each, plus peaks and orderings.
    """
    cubes = generate_cube_set(CubeSetSpec(n_pins=275, n_patterns=2048, x_fraction=0.779, seed=0))
    tracemalloc.start()
    try:
        for name in ("tool", "xstat", "i-ordering"):
            fill_sweep.peak_toggles_by_fill(fill_sweep.apply_ordering(name, cubes))
        outcomes = techniques.apply_all_techniques(cubes)
        assert len(outcomes) == len(techniques.TECHNIQUES)
        del outcomes
        gc.collect()
        with_memo = tracemalloc.get_traced_memory()[0]
        memo.clear()
        gc.collect()
        held = with_memo - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 0 < held <= 2 * cubes.matrix.nbytes, (held, cubes.matrix.nbytes)

