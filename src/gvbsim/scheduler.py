"""Enforces burst duration, inter-burst gap, and budget per waiting caller.

The ledger is a value: `request_burst` inspects it, `record_burst` returns
the updated copy.  Denial is a normal outcome, not an error; callers are
expected to retry at `eligible_at`.  The gap is measured from the END of
the previous burst, so back-to-back audio is impossible even when the gap
is shorter than the burst duration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .errors import DurationExceeded, NoPermit
from .generation import GeneratedMessage
from .policy import BurstPolicy


@dataclass(frozen=True)
class BurstLedger:
    """Per-waiting-episode burst accounting against a policy snapshot."""

    session_id: int
    policy: BurstPolicy
    bursts_sent: int = 0
    last_burst_end: int | None = None
    dismissed: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.bursts_sent <= self.policy.max_bursts_n:
            raise ValueError(f"bursts_sent out of range: {self.bursts_sent}")
        if (self.last_burst_end is not None) != (self.bursts_sent >= 1):
            raise ValueError("last_burst_end must be present iff a burst was sent")


@dataclass(frozen=True)
class CallerVoice:
    transcript: str


@dataclass(frozen=True)
class Generated:
    message: GeneratedMessage


@dataclass(frozen=True)
class TextWithBeep:
    text: str


@dataclass(frozen=True)
class SilentWindow:
    """Window elapsed with no speech and nothing to substitute."""


BurstPayload = CallerVoice | Generated | TextWithBeep | SilentWindow


@dataclass(frozen=True)
class BurstRecord:
    session_id: int
    sequence: int  # 1-based
    start: int
    duration: int
    payload: BurstPayload


class DenyReason(Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    GAP_NOT_ELAPSED = "gap_not_elapsed"


@dataclass(frozen=True)
class Permit:
    granted_at: int
    window_end: int


@dataclass(frozen=True)
class Deny:
    reason: DenyReason
    eligible_at: int | None = None


def request_burst(ledger: BurstLedger, now: int) -> Permit | Deny:
    """Grant a window of the policy's full burst duration, or explain why not."""
    if ledger.dismissed or ledger.bursts_sent >= ledger.policy.max_bursts_n:
        return Deny(DenyReason.BUDGET_EXHAUSTED)
    if ledger.last_burst_end is not None:
        eligible_at = ledger.last_burst_end + ledger.policy.gap_seconds_g
        if now < eligible_at:
            return Deny(DenyReason.GAP_NOT_ELAPSED, eligible_at=eligible_at)
    return Permit(granted_at=now, window_end=now + ledger.policy.burst_seconds_t)


def record_burst(ledger: BurstLedger, record: BurstRecord) -> BurstLedger:
    """Account a completed burst; rejects records no permit would cover."""
    grant = request_burst(ledger, record.start)
    if not isinstance(grant, Permit):
        raise NoPermit(f"no permit covers a burst at t={record.start}: {grant.reason.value}")
    if record.duration > ledger.policy.burst_seconds_t:
        raise DurationExceeded(
            f"burst of {record.duration}s exceeds the {ledger.policy.burst_seconds_t}s cap"
        )
    if record.duration < 1:
        raise ValueError(f"burst duration must be >= 1s, got {record.duration}")
    if record.sequence != ledger.bursts_sent + 1:
        raise ValueError(
            f"expected sequence {ledger.bursts_sent + 1}, got {record.sequence}"
        )
    return replace(
        ledger,
        bursts_sent=ledger.bursts_sent + 1,
        last_burst_end=record.start + record.duration,
    )


def dismiss(ledger: BurstLedger) -> BurstLedger:
    """Cancel the remaining budget; further requests deny as exhausted."""
    return replace(ledger, dismissed=True)
