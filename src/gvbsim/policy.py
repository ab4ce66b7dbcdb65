"""Per-callee burst policies: duration, gap, budget, and approved callers.

The simulator keeps each callee's latest `policy` line; a callee with none
gets a `BurstPolicy` with the defaults below.
"""
from __future__ import annotations

from typing import NamedTuple

from .checked import checked


DEFAULT_BURST_SECONDS = 5
DEFAULT_GAP_SECONDS = 30
DEFAULT_MAX_BURSTS = 3


@checked
class BurstPolicy(NamedTuple):
    """A callee's standing configuration for waiting-caller bursts.

    `burst_seconds_t` is the per-burst cap, `gap_seconds_g` the minimum
    quiet time after a burst ends, `max_bursts_n` the budget per waiting
    episode.  The typical burst length is 3-5 seconds; any value >= 1 is
    accepted when configured explicitly.

    Approval is directional: approving C in A's policy says nothing about
    A's standing in C's policy.
    """

    callee: str
    burst_seconds_t: int = DEFAULT_BURST_SECONDS
    gap_seconds_g: int = DEFAULT_GAP_SECONDS
    max_bursts_n: int = DEFAULT_MAX_BURSTS
    approved_callers: frozenset[str] = frozenset()

    def _check(self) -> None:
        if self.burst_seconds_t < 1:
            raise ValueError(f"burst duration must be >= 1s, got {self.burst_seconds_t}")
        if self.gap_seconds_g < 0:
            raise ValueError(f"burst gap must be >= 0s, got {self.gap_seconds_g}")
        if self.max_bursts_n < 1:
            raise ValueError(f"burst budget must be >= 1, got {self.max_bursts_n}")
        if self.callee in self.approved_callers:
            raise ValueError(f"callee {self.callee!r} cannot approve itself")

