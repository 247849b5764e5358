"""Synthetic test-cube generator.

The paper's experiments run commercial ATPG (TetraMax) on the ITC'99
benchmark suite; the resulting cube sets are dominated by don't-cares
(Table I).  This reproduction generates realistic cubes in two ways:

* through the pure-Python PODEM ATPG in :mod:`repro.atpg` for circuits that
  are small enough to run the full flow, and
* through this module, which synthesises cube sets directly from a target
  X-density profile.  It is used for the largest ITC'99 profiles where a
  pure-Python ATPG run would dominate the experiment runtime, and for
  property-based tests that need many cube sets quickly.

The generator does not place care bits uniformly at random.  Real ATPG cubes
have *structure*: each cube constrains a small cluster of logically related
inputs (the cone of the target fault), a few "hot" inputs (clock enables,
resets, control pins) are specified in most cubes, and the rest of the cube
is X.  The generator mimics that with per-pin specification affinities and
per-cube care clusters, which is what gives the pin matrix the long X
stretches that DP-fill and I-Ordering exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cubes.bits import BIT_DTYPE, ONE, X, ZERO
from repro.cubes.cube import TestSet


@dataclass(frozen=True)
class CubeSetSpec:
    """Parameters of a synthetic cube set.

    Attributes:
        n_pins: cube length (primary inputs + scan cells of the circuit).
        n_patterns: number of cubes to generate.
        x_fraction: target overall fraction of X bits (Table I's ``X %``).
        cluster_fraction: fraction of each cube's care bits that is drawn
            from a contiguous "fault cone" cluster rather than scattered.
        hot_pin_fraction: fraction of pins that behave like control pins and
            are specified far more often than average.
        seed: RNG seed — the generator is fully deterministic given the spec.
    """

    n_pins: int
    n_patterns: int
    x_fraction: float
    cluster_fraction: float = 0.6
    hot_pin_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pins <= 0:
            raise ValueError("n_pins must be positive")
        if self.n_patterns <= 0:
            raise ValueError("n_patterns must be positive")
        if not 0.0 <= self.x_fraction < 1.0:
            raise ValueError("x_fraction must be in [0, 1)")
        if not 0.0 <= self.cluster_fraction <= 1.0:
            raise ValueError("cluster_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_pin_fraction <= 1.0:
            raise ValueError("hot_pin_fraction must be in [0, 1]")


def _pin_affinities(spec: CubeSetSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-pin relative probability of being specified in a cube.

    Hot pins (control-like) get a large weight; the remainder get weights
    drawn from a long-tailed distribution so some data pins are constrained
    often and many are almost always free.
    """
    weights = rng.gamma(shape=1.2, scale=1.0, size=spec.n_pins)
    n_hot = max(0, int(round(spec.hot_pin_fraction * spec.n_pins)))
    if n_hot:
        hot = rng.choice(spec.n_pins, size=n_hot, replace=False)
        weights[hot] *= 8.0
    total = weights.sum()
    if total <= 0:
        return np.full(spec.n_pins, 1.0 / spec.n_pins)
    return weights / total


def generate_cube_set(spec: CubeSetSpec) -> TestSet:
    """Generate a synthetic :class:`TestSet` matching ``spec``.

    The overall X density of the result is close to ``spec.x_fraction``
    (within a couple of percent for non-degenerate sizes); per-cube care
    counts vary the way ATPG cube sizes do (early cubes for hard faults
    specify more bits than late cubes for easy faults).
    """
    rng = np.random.default_rng(spec.seed)
    affinities = _pin_affinities(spec, rng)
    care_target = (1.0 - spec.x_fraction) * spec.n_pins

    data = np.full((spec.n_patterns, spec.n_pins), X, dtype=BIT_DTYPE)
    # Per-cube care-bit budget: long-tailed around the target so the set has
    # both dense and sparse cubes, which is what makes ordering interesting.
    budgets = rng.gamma(shape=2.0, scale=care_target / 2.0, size=spec.n_patterns)
    budgets = np.clip(np.round(budgets), 1, spec.n_pins).astype(np.int64)
    # Keep the *mean* on target so the aggregate X density matches Table I.
    # Clipping at n_pins pulls the mean down for low-X specs, so rescale a few
    # times until the clipped mean converges onto the target.
    for __ in range(4):
        scale = care_target / max(budgets.mean(), 1e-9)
        budgets = np.clip(np.round(budgets * scale), 1, spec.n_pins).astype(np.int64)

    n_pins = spec.n_pins
    # Reused scratch mask for the top-up: marking the chosen pins and taking
    # the unmarked ones is the sorted ``setdiff1d`` without its per-row sorts.
    taken = np.zeros(n_pins, dtype=bool)
    for row, budget in enumerate(budgets.tolist()):
        n_cluster = int(round(spec.cluster_fraction * budget))
        n_scatter = budget - n_cluster
        # ``chosen`` stays a set filled in this order: its iteration order
        # decides which pin receives which value draw below, so any other
        # container (or a sorted one) would change every cube.
        chosen: set = set()
        if n_cluster > 0:
            start = int(rng.integers(0, n_pins))
            chosen.update([(start + offset) % n_pins for offset in range(n_cluster)])
        if n_scatter > 0:
            scattered = rng.choice(n_pins, size=min(n_scatter, n_pins), replace=False, p=affinities)
            chosen.update(scattered.tolist())
        # The cluster and the scattered picks can overlap; top the selection up
        # with fresh pins so every cube carries exactly its care-bit budget and
        # the aggregate X density stays on target.
        if len(chosen) < budget:
            marked = list(chosen)
            taken[marked] = True
            remaining = np.flatnonzero(~taken)
            taken[marked] = False
            extra = rng.choice(remaining, size=budget - len(chosen), replace=False)
            chosen.update(extra.tolist())
        positions = np.fromiter(chosen, dtype=np.int64, count=len(chosen))
        values = rng.integers(0, 2, size=positions.shape[0]).astype(BIT_DTYPE)
        data[row, positions] = values

    names = [f"synthetic_{row}" for row in range(spec.n_patterns)]
    return TestSet.from_matrix(data, names=names)


def generate_cube_set_like(
    n_pins: int,
    n_patterns: int,
    x_percent: float,
    seed: int = 0,
    cluster_fraction: float = 0.6,
) -> TestSet:
    """Convenience wrapper taking the X density as a percentage (Table I units)."""
    spec = CubeSetSpec(
        n_pins=n_pins,
        n_patterns=n_patterns,
        x_fraction=x_percent / 100.0,
        cluster_fraction=cluster_fraction,
        seed=seed,
    )
    return generate_cube_set(spec)


def random_fully_specified_set(
    n_pins: int,
    n_patterns: int,
    seed: int = 0,
) -> TestSet:
    """Generate a fully specified random pattern set (no X bits).

    Useful as a degenerate input for testing that every fill algorithm is a
    no-op when there is nothing to fill, and as a random-pattern source for
    fault simulation.
    """
    rng = np.random.default_rng(seed)
    data = rng.integers(ZERO, ONE + 1, size=(n_patterns, n_pins)).astype(BIT_DTYPE)
    return TestSet.from_matrix(data)
