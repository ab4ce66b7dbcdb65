from __future__ import annotations

import pytest

from gvbsim.policy import BurstPolicy


def test_boundary_values_are_valid():
    policy = BurstPolicy(callee="A", burst_seconds_t=4, gap_seconds_g=0, max_bursts_n=1)
    assert policy.gap_seconds_g == 0
    assert policy.max_bursts_n == 1
    # any t >= 1 is accepted when configured explicitly
    assert BurstPolicy(callee="A", burst_seconds_t=1).burst_seconds_t == 1
    assert BurstPolicy(callee="A", burst_seconds_t=9).burst_seconds_t == 9


@pytest.mark.parametrize(
    ("kwargs", "message"),
    [
        ({"burst_seconds_t": 0}, "burst duration must be >= 1s, got 0"),
        ({"gap_seconds_g": -1}, "burst gap must be >= 0s, got -1"),
        ({"max_bursts_n": 0}, "burst budget must be >= 1, got 0"),
        ({"approved_callers": frozenset({"A"})}, "callee 'A' cannot approve itself"),
    ],
)
def test_invalid_policies_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BurstPolicy(callee="A", **kwargs)

