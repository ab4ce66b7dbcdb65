from __future__ import annotations

import random

import pytest

from gvbsim.policy import BurstPolicy
from gvbsim.scheduler import (
    BurstLedger,
    Deny,
    DenyReason,
    Permit,
    dismiss,
    record_burst,
    request_burst,
)


def ledger(t: int = 5, g: int = 30, n: int = 3) -> BurstLedger:
    policy = BurstPolicy(callee="A", burst_seconds_t=t, gap_seconds_g=g, max_bursts_n=n)
    return BurstLedger(policy)


def greedy_burst_starts(t: int, g: int, n: int, horizon: int) -> list[int]:
    """Brute-force timeline oracle: walk the clock one second at a time,
    starting a full-length burst whenever the rules would allow one."""
    starts: list[int] = []
    last_end: int | None = None
    for now in range(horizon):
        if len(starts) >= n:
            break
        if last_end is not None and now < last_end + g:
            continue
        starts.append(now)
        last_end = now + t
    return starts


# -- request_burst --

def test_fresh_ledger_grants_a_full_window():
    grant = request_burst(ledger(), now=0)
    assert grant == Permit(granted_at=0, window_end=5)


def test_gap_not_elapsed_reports_when_to_retry():
    led = record_burst(ledger(), start=0, duration=5)
    grant = request_burst(led, now=20)
    assert isinstance(grant, Deny)
    assert grant.reason is DenyReason.GAP_NOT_ELAPSED
    assert grant.eligible_at == 35


def test_budget_exhaustion():
    led = ledger(n=3)
    for start in (0, 35, 70):
        led = record_burst(led, start, 5)
    grant = request_burst(led, now=1000)
    assert isinstance(grant, Deny)
    assert grant.reason is DenyReason.BUDGET_EXHAUSTED
    assert grant.eligible_at is None


def test_zero_gap_allows_adjacent_but_not_overlapping_bursts():
    led = record_burst(ledger(g=0), start=0, duration=5)
    assert isinstance(request_burst(led, now=4), Deny)
    assert isinstance(request_burst(led, now=5), Permit)


# -- record_burst --

def test_recording_updates_the_ledger():
    led = record_burst(ledger(), start=0, duration=4)
    assert led.bursts_sent == 1
    assert led.last_burst_end == 4


def test_overlong_burst_rejected():
    with pytest.raises(ValueError, match="burst of 6s exceeds the 5s cap"):
        record_burst(ledger(t=5), start=0, duration=6)


def test_record_without_a_covering_permit_rejected():
    led = record_burst(ledger(g=30), start=0, duration=5)
    with pytest.raises(ValueError, match="no permit covers a burst at t=10"):
        record_burst(led, start=10, duration=2)  # inside the gap
    exhausted = record_burst(record_burst(led, start=35, duration=5), start=70, duration=5)
    with pytest.raises(ValueError, match="no permit covers a burst at t=200"):
        record_burst(exhausted, start=200, duration=1)


def test_record_rejects_bad_duration():
    with pytest.raises(ValueError):
        record_burst(ledger(), start=0, duration=0)


def test_ledger_invariants():
    with pytest.raises(ValueError):
        BurstLedger(BurstPolicy(callee="A"), bursts_sent=4)
    with pytest.raises(ValueError):
        BurstLedger(BurstPolicy(callee="A"), bursts_sent=1)


# -- eligibility --

def assert_next_eligible(led: BurstLedger, at: int) -> None:
    """A request just before `at` is denied for the gap, naming `at`;
    one at `at` is permitted."""
    grant = request_burst(led, now=at - 1)
    assert isinstance(grant, Deny)
    assert grant.reason is DenyReason.GAP_NOT_ELAPSED
    assert grant.eligible_at == at
    assert isinstance(request_burst(led, now=at), Permit)


def assert_exhausted(led: BurstLedger) -> None:
    grant = request_burst(led, now=10_000)
    assert isinstance(grant, Deny)
    assert grant.reason is DenyReason.BUDGET_EXHAUSTED


def test_next_eligible_progression():
    led = ledger(t=5, g=30, n=3)
    assert isinstance(request_burst(led, now=0), Permit)
    led = record_burst(led, start=0, duration=5)
    assert_next_eligible(led, 35)
    led = record_burst(led, start=35, duration=5)
    assert_next_eligible(led, 70)
    led = record_burst(led, start=70, duration=5)
    assert_exhausted(led)


def test_specific_eligibility_arithmetic():
    led = record_burst(record_burst(ledger(t=5, g=30, n=5), 0, 5), 35, 5)
    assert led.bursts_sent == 2
    assert led.last_burst_end == 40
    assert_next_eligible(led, 70)


# -- dismissal --

def test_dismissal_cancels_the_remaining_budget():
    led = dismiss(record_burst(ledger(), start=0, duration=5))
    grant = request_burst(led, now=500)
    assert isinstance(grant, Deny)
    assert grant.reason is DenyReason.BUDGET_EXHAUSTED
    assert_exhausted(led)


# -- golden timeline --

def test_default_policy_timeline_matches_the_oracle():
    # t=5, G=30, N=3, requesting as early as possible with full bursts.
    expected = greedy_burst_starts(t=5, g=30, n=3, horizon=500)
    assert expected == [0, 35, 70]
    led = ledger(t=5, g=30, n=3)
    starts: list[int] = []
    for now in range(500):
        grant = request_burst(led, now)
        if isinstance(grant, Permit):
            starts.append(now)
            led = record_burst(led, now, 5)
    assert starts == expected
    assert isinstance(request_burst(led, now=500), Deny)


def test_random_policies_match_the_oracle_with_full_bursts():
    rng = random.Random(404)
    for _ in range(300):
        t = rng.randint(1, 5)
        g = rng.randint(0, 60)
        n = rng.randint(1, 5)
        horizon = n * (t + g) + 20
        led = ledger(t=t, g=g, n=n)
        starts = []
        for now in range(horizon):
            if isinstance(request_burst(led, now), Permit):
                starts.append(now)
                led = record_burst(led, now, t)
        assert starts == greedy_burst_starts(t, g, n, horizon)


def test_randomized_attempts_respect_all_scheduler_invariants():
    rng = random.Random(88)
    for _ in range(1000):
        t = rng.randint(1, 5)
        g = rng.randint(0, 60)
        n = rng.randint(1, 5)
        led = ledger(t=t, g=g, n=n)
        intervals: list[tuple[int, int]] = []
        now = 0
        for _ in range(rng.randint(1, 12)):
            now += rng.randint(0, 50)
            grant = request_burst(led, now)
            if isinstance(grant, Permit):
                duration = rng.randint(1, t)
                led = record_burst(led, now, duration)
                intervals.append((now, now + duration))
            else:
                assert isinstance(grant, Deny)
                if grant.reason is DenyReason.GAP_NOT_ELAPSED:
                    assert grant.eligible_at is not None and grant.eligible_at > now
        assert len(intervals) <= n
        for (prev_start, prev_end), (start, end) in zip(intervals, intervals[1:]):
            assert start >= prev_end + g  # gap measured from the previous END
            assert start >= prev_end  # no overlapping windows
