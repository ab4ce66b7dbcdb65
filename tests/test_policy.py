from __future__ import annotations

import pytest

from gvbsim.errors import InvalidPolicy
from gvbsim.policy import BurstPolicy, PolicyRegistry


def test_set_then_get_round_trips():
    registry = PolicyRegistry()
    stored = registry.store(BurstPolicy("A", 5, 30, 3, frozenset({"C"})))
    assert registry.get_policy("A") == stored
    assert stored.burst_seconds_t == 5
    assert stored.gap_seconds_g == 30
    assert stored.max_bursts_n == 3
    assert stored.approved_callers == frozenset({"C"})


def test_unknown_callee_gets_the_default_policy():
    policy = PolicyRegistry().get_policy("nobody")
    assert (policy.burst_seconds_t, policy.gap_seconds_g, policy.max_bursts_n) == (5, 30, 3)
    assert policy.approved_callers == frozenset()


def test_second_write_wins():
    registry = PolicyRegistry()
    registry.store(BurstPolicy("A", 4, 10, 2, frozenset({"C"})))
    registry.store(BurstPolicy("A", 3, 0, 1, frozenset()))
    assert registry.get_policy("A").burst_seconds_t == 3
    assert registry.get_policy("A").approved_callers == frozenset()


def test_boundary_values_are_valid():
    policy = BurstPolicy(callee="A", burst_seconds_t=4, gap_seconds_g=0, max_bursts_n=1)
    assert policy.gap_seconds_g == 0
    assert policy.max_bursts_n == 1
    # any t >= 1 is accepted when configured explicitly
    assert BurstPolicy(callee="A", burst_seconds_t=1).burst_seconds_t == 1
    assert BurstPolicy(callee="A", burst_seconds_t=9).burst_seconds_t == 9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"burst_seconds_t": 0},
        {"gap_seconds_g": -1},
        {"max_bursts_n": 0},
        {"approved_callers": frozenset({"A"})},
    ],
)
def test_invalid_policies_rejected(kwargs):
    with pytest.raises(InvalidPolicy):
        BurstPolicy(callee="A", **kwargs)


def test_approval_is_directional():
    registry = PolicyRegistry()
    registry.store(BurstPolicy("A", 5, 30, 3, frozenset({"C"})))
    assert "C" in registry.get_policy("A").approved_callers
    assert "A" not in registry.get_policy("C").approved_callers
