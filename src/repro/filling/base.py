"""Common interface and registry for X-filling algorithms, and the shared
forward fill (:func:`hold_previous`)."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cubes.bits import X
from repro.cubes.cube import TestSet
from repro.cubes.metrics import peak_toggles, total_toggles


@dataclass
class FillOutcome:
    """A filled pattern set together with its toggle metrics.

    Attributes:
        filled: the fully specified pattern set.
        peak_toggles: maximum adjacent Hamming distance (the paper's metric).
        total_toggles: sum of adjacent Hamming distances (average-power proxy).
        filler_name: name of the algorithm that produced the fill.
    """

    filled: TestSet
    peak_toggles: int
    total_toggles: int
    filler_name: str


class Filler(abc.ABC):
    """Base class for X-filling algorithms.

    Subclasses implement :meth:`fill`, which must return a fully specified
    :class:`TestSet` preserving every care bit of the input; the
    :meth:`TestSet.filled` helper enforces both properties, so subclasses are
    encouraged to build a candidate matrix and call it.
    """

    #: canonical name used in the paper's tables (e.g. ``"DP-fill"``).
    name: str = "filler"

    @abc.abstractmethod
    def fill(self, patterns: TestSet) -> TestSet:
        """Return a fully specified copy of ``patterns``."""

    def run(self, patterns: TestSet) -> FillOutcome:
        """Fill ``patterns`` and report toggle metrics in one call."""
        filled = self.fill(patterns)
        return FillOutcome(
            filled=filled,
            peak_toggles=peak_toggles(filled),
            total_toggles=total_toggles(filled),
            filler_name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def hold_previous(matrix: np.ndarray) -> None:
    """Give every X of ``matrix`` the nearest specified value above it in its column.

    In place; an X with no specified bit above it stays X.  The fill runs as
    doubling passes over the whole matrix, in its own dtype: after the pass
    of step ``s`` (1, 2, 4, ...) every X within ``2 s - 1`` rows below a
    specified bit holds that bit, so ``ceil(log2(n_rows))`` passes suffice,
    each with one mask the size of the matrix.
    """
    step = 1
    while step < matrix.shape[0]:
        below = matrix[step:]
        unset = below == X
        if not unset.any():
            break
        # Source and target overlap.  Either order of reads is right: an X
        # at row r has no specified bit in rows r - step + 1 .. r, so row
        # r - step holds (or is still X for) the nearest one above r.
        np.copyto(below, matrix[:-step], where=unset)
        step *= 2


_REGISTRY: Dict[str, Callable[[], Filler]] = {}


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-")


def register_filler(name: str, factory: Callable[[], Filler], aliases: Optional[List[str]] = None) -> None:
    """Register a filler factory under ``name`` (and optional aliases).

    Registration is idempotent for identical factories; re-registering a name
    with a different factory raises ``ValueError`` to catch accidental
    collisions between algorithms.
    """
    for key in [name] + list(aliases or []):
        canon = _canonical(key)
        existing = _REGISTRY.get(canon)
        if existing is not None and existing is not factory:
            raise ValueError(f"filler name already registered: {key}")
        _REGISTRY[canon] = factory


def get_filler(name: str, **kwargs) -> Filler:
    """Instantiate a registered filler by table name (case/format insensitive).

    Keyword arguments are forwarded to the factory (e.g. ``seed`` for
    ``R-fill``).

    Raises:
        KeyError: for unknown names; the message lists the available ones.
    """
    canon = _canonical(name)
    if canon not in _REGISTRY:
        raise KeyError(f"unknown filler {name!r}; available: {sorted(set(_REGISTRY))}")
    factory = _REGISTRY[canon]
    return factory(**kwargs) if kwargs else factory()


def available_fillers() -> List[str]:
    """Sorted list of registered canonical filler names."""
    return sorted(set(_REGISTRY))
