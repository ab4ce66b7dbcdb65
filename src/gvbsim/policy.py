"""Per-callee burst policies: duration, gap, budget, and approved callers."""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidPolicy

DEFAULT_BURST_SECONDS = 5
DEFAULT_GAP_SECONDS = 30
DEFAULT_MAX_BURSTS = 3


@dataclass(frozen=True)
class BurstPolicy:
    """A callee's standing configuration for waiting-caller bursts.

    `burst_seconds_t` is the per-burst cap, `gap_seconds_g` the minimum
    quiet time after a burst ends, `max_bursts_n` the budget per waiting
    episode.  The typical burst length is 3-5 seconds; any value >= 1 is
    accepted when configured explicitly.
    """

    callee: str
    burst_seconds_t: int = DEFAULT_BURST_SECONDS
    gap_seconds_g: int = DEFAULT_GAP_SECONDS
    max_bursts_n: int = DEFAULT_MAX_BURSTS
    approved_callers: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.burst_seconds_t < 1:
            raise InvalidPolicy(f"burst duration must be >= 1s, got {self.burst_seconds_t}")
        if self.gap_seconds_g < 0:
            raise InvalidPolicy(f"burst gap must be >= 0s, got {self.gap_seconds_g}")
        if self.max_bursts_n < 1:
            raise InvalidPolicy(f"burst budget must be >= 1, got {self.max_bursts_n}")
        if self.callee in self.approved_callers:
            raise InvalidPolicy(f"callee {self.callee!r} cannot approve itself")


class PolicyRegistry:
    """Stores one policy per callee; unknown callees get the default policy.

    Approval is directional: approving C for A's policy says nothing about
    A's standing in C's policy.
    """

    def __init__(self) -> None:
        self._policies: dict[str, BurstPolicy] = {}

    def store(self, policy: BurstPolicy) -> BurstPolicy:
        """Store an already-built policy, replacing any previous one."""
        self._policies[policy.callee] = policy
        return policy

    def get_policy(self, callee: str) -> BurstPolicy:
        stored = self._policies.get(callee)
        if stored is not None:
            return stored
        return BurstPolicy(callee=callee)
