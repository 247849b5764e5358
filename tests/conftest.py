"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro import envvars
from repro.cubes.cube import TestSet
from repro.cubes.generator import CubeSetSpec, generate_cube_set
from repro.experiments import memo


@pytest.fixture(autouse=True, scope="session")
def _session_cube_cache(tmp_path_factory):
    """Point the PODEM cube cache at a directory of this session's own.

    The cache key names the circuit and the ATPG knobs but not the PODEM
    search itself, so cubes cached in the working directory by another
    version of the engine would be served instead of being regenerated.
    Every session therefore starts cold; tests that need their own cache
    directory still set ``REPRO_CACHE_DIR`` themselves.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(envvars.CACHE_DIR.name, str(tmp_path_factory.mktemp("cube-cache")))
        yield


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Start every test with an empty ordering/fill memo, so no test sees another's entries."""
    memo.clear()
    yield
    memo.clear()


@pytest.fixture
def paper_motivation_set() -> TestSet:
    """A small cube set in the spirit of Fig. 1 of the paper.

    Four input pins, eight patterns, several long X stretches whose greedy
    fill is sub-optimal — the optimal peak is strictly better than what
    adjacent-style fills achieve.
    """
    rows = [
        "0XXXX1",
        "1XXXX0",
        "0X1XX0",
        "1XXX0X",
    ]
    pin_matrix = np.array(
        [[{"0": 0, "1": 1, "X": 2}[c] for c in row] for row in rows], dtype=np.int8
    )
    return TestSet.from_pin_matrix(pin_matrix)


@pytest.fixture
def medium_synthetic_set() -> TestSet:
    """A medium synthetic cube set (fast, deterministic) for integration tests."""
    return generate_cube_set(
        CubeSetSpec(n_pins=48, n_patterns=36, x_fraction=0.7, seed=7)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic NumPy RNG for tests that need randomness."""
    return np.random.default_rng(12345)
