"""Enforces burst duration, inter-burst gap, and budget per waiting caller.

The ledger is a value: `request_burst` inspects it, and
`record_burst(ledger, start, duration)` returns the copy that counts one
more burst; the new `bursts_sent` is that burst's 1-based sequence.
Denial is a normal outcome, not an error; callers are expected to retry
at `eligible_at`.  The gap is measured from the END of the previous
burst, so back-to-back audio is impossible even when the gap is shorter
than the burst duration.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .checked import checked
from .policy import BurstPolicy


@checked
class BurstLedger(NamedTuple):
    """Per-waiting-episode burst accounting against a policy snapshot."""

    policy: BurstPolicy
    bursts_sent: int = 0
    last_burst_end: int | None = None
    dismissed: bool = False

    def _check(self) -> None:
        if not 0 <= self.bursts_sent <= self.policy.max_bursts_n:
            raise ValueError(f"bursts_sent out of range: {self.bursts_sent}")
        if (self.last_burst_end is not None) != (self.bursts_sent >= 1):
            raise ValueError("last_burst_end must be present iff a burst was sent")


class DenyReason(Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    GAP_NOT_ELAPSED = "gap_not_elapsed"

    def __init__(self, value: str) -> None:
        self.token = value  # the trace token; a plain read, where `.value` runs Python in 3.11


class Permit(NamedTuple):
    granted_at: int
    window_end: int


class Deny(NamedTuple):
    reason: DenyReason
    eligible_at: int | None = None


_EXHAUSTED = Deny(DenyReason.BUDGET_EXHAUSTED)


def _denial(ledger: BurstLedger, now: int) -> Deny | None:
    """Why no burst may start at `now`, or None when one may."""
    if ledger.dismissed or ledger.bursts_sent >= ledger.policy.max_bursts_n:
        return _EXHAUSTED
    if ledger.last_burst_end is not None:
        eligible_at = ledger.last_burst_end + ledger.policy.gap_seconds_g
        if now < eligible_at:
            return Deny(DenyReason.GAP_NOT_ELAPSED, eligible_at=eligible_at)


def request_burst(ledger: BurstLedger, now: int) -> Permit | Deny:
    """Grant a window of the policy's full burst duration, or explain why not."""
    return _denial(ledger, now) or Permit(now, now + ledger.policy.burst_seconds_t)


def record_burst(ledger: BurstLedger, start: int, duration: int) -> BurstLedger:
    """Account the next burst, `duration` seconds from `start`; rejects a
    burst no permit would cover."""
    denial = _denial(ledger, start)
    if denial is not None:
        raise ValueError(f"no permit covers a burst at t={start}: {denial.reason.value}")
    if duration > ledger.policy.burst_seconds_t:
        raise ValueError(
            f"burst of {duration}s exceeds the {ledger.policy.burst_seconds_t}s cap"
        )
    if duration < 1:
        raise ValueError(f"burst duration must be >= 1s, got {duration}")
    # the permit above means the ledger is not dismissed
    return BurstLedger(ledger.policy, ledger.bursts_sent + 1, start + duration)


def dismiss(ledger: BurstLedger) -> BurstLedger:
    """Cancel the remaining budget; further requests deny as exhausted."""
    return ledger._replace(dismissed=True)
