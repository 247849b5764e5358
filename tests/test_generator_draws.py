"""The circuit generator's draw replay against NumPy's own ``Generator``.

``repro.circuit.generator._Draws`` rebuilds ``default_rng(seed).random()``
and ``.integers(lo, hi)`` from raw PCG64 words; every netlist depends on it
matching NumPy call for call, including Lemire's rejection loop and the
32-bit half kept between bounded draws.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.circuit.generator import _BLOCK, _Draws

#: Range sizes ``hi - lo``: the one-value range (no draw), small ranges,
#: a profile-sized pool, ``2**31 + 1`` (about half of its draws are
#: rejected and redrawn) and the full 32-bit range (none rejected).
SPANS = (1, 2, 3, 5, 64, 75_000, 2**31 + 1, 2**32)


@pytest.mark.parametrize("seed", [0, 1, 1234, 2**40 + 7])
def test_replay_matches_default_rng_call_for_call(seed):
    schedule = random.Random(seed)
    reference = np.random.default_rng(seed)
    replay = _Draws(seed)
    n_random = 0
    for call in range(20_000):
        if schedule.random() < 0.5:
            n_random += 1
            assert replay.random() == reference.random(), call
        else:
            span = schedule.choice(SPANS)
            lo = schedule.randrange(-3, 1000)
            expected = int(reference.integers(lo, lo + span))
            assert replay.integers(lo, lo + span) == expected, (call, span)
    # Each random() takes a whole word, so the replay refilled at least twice.
    assert n_random > 2 * _BLOCK


class _CountingDraws(_Draws):
    __slots__ = ("halves",)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.halves = 0

    def _uint32(self) -> int:
        self.halves += 1
        return super()._uint32()


def test_rejection_loop_redraws_like_numpy():
    reference = np.random.default_rng(5)
    replay = _CountingDraws(5)
    span = 2**31 + 1
    draws = [replay.integers(0, span) for _ in range(200)]
    assert draws == [int(reference.integers(0, span)) for _ in range(200)]
    # About half of the 32-bit draws are rejected, so ~400 were taken.
    assert replay.halves > 300
    assert replay.random() == reference.random()


@pytest.mark.parametrize("lo, hi", [(5, 5), (5, 4), (0, 2**32 + 1), (-1, 2**32)])
def test_ranges_outside_32_bits_are_rejected(lo, hi):
    with pytest.raises(ValueError):
        _Draws(0).integers(lo, hi)
