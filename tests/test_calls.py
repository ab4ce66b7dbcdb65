from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvbsim.calls import (
    ROUTING_KINDS,
    CallEngine,
    CallEvent,
    CallSession,
    CallState,
    RoutingReason,
    next_state,
    route_waiting_call,
)
from gvbsim.policy import BurstPolicy
from gvbsim.scoring import PriorityTier


def make_engine(*subscribers: str) -> CallEngine:
    engine = CallEngine()
    for sub in subscribers:
        engine.register(sub)
    return engine


def waiting_session(caller: str = "C", callee: str = "A") -> CallSession:
    return CallSession(1, caller, callee, CallState.WAITING)


# -- registration --

def test_register_rejects_duplicates_and_bad_ids():
    engine = make_engine("A")
    with pytest.raises(ValueError, match="already registered"):
        engine.register("A")
    for bad in ("", "has space", "tab\tid"):
        with pytest.raises(ValueError, match="must be a non-empty ASCII token"):
            engine.register(bad)


# -- place_call --

def test_idle_callee_connects_directly():
    engine = make_engine("A", "C")
    session = engine.place_call("C", "A")
    assert session.state is CallState.ACTIVE


def test_busy_callee_queues_the_call():
    engine = make_engine("A", "B", "C")
    engine.place_call("A", "B")
    session = engine.place_call("C", "A")
    assert session.state is CallState.WAITING


def test_self_call_rejected():
    engine = make_engine("C")
    with pytest.raises(ValueError, match="cannot call itself"):
        engine.place_call("C", "C")


def test_unregistered_subscriber_rejected():
    engine = make_engine("A")
    with pytest.raises(ValueError, match="is not registered"):
        engine.place_call("Z", "A")
    with pytest.raises(ValueError, match="is not registered"):
        engine.place_call("A", "Z")


def test_held_call_still_counts_as_engaged():
    engine = make_engine("A", "B", "C", "D")
    first = engine.place_call("A", "B")
    engine.hold(first.session_id)
    assert engine.place_call("C", "A").state is CallState.WAITING
    # B is on the held call, so B is engaged too
    assert engine.place_call("D", "B").state is CallState.WAITING


# -- transition --

def test_override_connects_waiting_call():
    assert next_state(CallState.WAITING, CallEvent.OVERRIDE) is CallState.ACTIVE


def test_answer_from_active_is_illegal():
    with pytest.raises(ValueError, match="event answer not permitted from state active"):
        next_state(CallState.ACTIVE, CallEvent.ANSWER)


def test_transition_graph_targets():
    # Full map of the documented graph; anything else must raise.
    graph = {
        CallState.WAITING: {CallState.ACTIVE, CallState.ENDED},
        CallState.ACTIVE: {CallState.HELD, CallState.ENDED},
        CallState.HELD: {CallState.ACTIVE, CallState.ENDED},
        CallState.ENDED: set(),
    }
    reached: dict[CallState, set[CallState]] = {state: set() for state in CallState}
    for state in CallState:
        for event in CallEvent:
            try:
                reached[state].add(next_state(state, event))
            except ValueError as exc:
                assert "not permitted from state" in str(exc)
    for state, targets in graph.items():
        assert reached[state] <= targets
    # every documented edge is reachable through some event
    for state, targets in graph.items():
        assert reached[state] == targets


# -- routing --

def test_highest_score_connects_even_without_approval():
    tier, reason = route_waiting_call(
        waiting_session(), PriorityTier.HIGHEST, BurstPolicy(callee="A")
    )
    assert ROUTING_KINDS[tier] == "connect_override"
    assert tier is PriorityTier.HIGHEST
    assert reason is RoutingReason.SCORE_THRESHOLD


def test_approved_caller_is_floored_to_voice_burst():
    policy = BurstPolicy(callee="A", approved_callers=frozenset({"C"}))
    tier, reason = route_waiting_call(waiting_session(), PriorityTier.NONE, policy)
    assert ROUTING_KINDS[tier] == "permit_voice_burst"
    assert tier is PriorityTier.MEDIUM
    assert reason is RoutingReason.PRE_APPROVED


def test_unapproved_caller_with_no_signal_waits_normally():
    tier, reason = route_waiting_call(
        waiting_session(), PriorityTier.NONE, BurstPolicy(callee="A")
    )
    assert ROUTING_KINDS[tier] == "standard_waiting"
    assert tier is PriorityTier.NONE
    assert reason is RoutingReason.DEFAULT


def test_approved_caller_with_highest_score_still_overrides():
    policy = BurstPolicy(callee="A", approved_callers=frozenset({"C"}))
    tier, reason = route_waiting_call(waiting_session(), PriorityTier.HIGHEST, policy)
    assert ROUTING_KINDS[tier] == "connect_override"
    assert reason is RoutingReason.SCORE_THRESHOLD


def test_low_tier_gets_text_burst_with_beep():
    tier, _ = route_waiting_call(waiting_session(), PriorityTier.LOW, BurstPolicy(callee="A"))
    assert ROUTING_KINDS[tier] == "permit_text_burst_with_beep"


def test_routing_requires_a_waiting_session():
    active = CallSession(1, "C", "A", CallState.ACTIVE)
    with pytest.raises(ValueError, match="is active, not waiting"):
        route_waiting_call(active, PriorityTier.NONE, BurstPolicy(callee="A"))


def test_routing_is_deterministic():
    policy = BurstPolicy(callee="A", approved_callers=frozenset({"C"}))
    session = waiting_session()
    first = route_waiting_call(session, PriorityTier.LOW, policy)
    second = route_waiting_call(session, PriorityTier.LOW, policy)
    assert first == second


@pytest.mark.parametrize("approved", [False, True])
def test_raising_tier_never_downgrades_the_decision(approved: bool):
    policy = BurstPolicy(
        callee="A", approved_callers=frozenset({"C"}) if approved else frozenset()
    )
    routed = [
        route_waiting_call(waiting_session(), tier, policy)[0]
        for tier in sorted(PriorityTier)
    ]
    assert routed == sorted(routed)


# -- engine bookkeeping --

def test_at_most_one_unheld_connected_session_per_callee():
    engine = make_engine("A", "B", "C")
    first = engine.place_call("A", "B")
    waiting = engine.place_call("C", "A")
    engine.hold(first.session_id)
    engine.apply_event(waiting.session_id, CallEvent.OVERRIDE)
    for sub in ("A", "B", "C"):
        assert len(engine.connected_sessions(sub)) <= 1


def test_pick_waiting_prefers_higher_tier_then_fifo():
    engine = make_engine("A", "B", "C", "D", "E")
    engine.place_call("A", "B")
    engine.place_call("C", "A")  # first waiter: not routed, so it ranks as NONE
    second = engine.place_call("D", "A")
    third = engine.place_call("E", "A")
    for session in (second, third):
        session.tier = PriorityTier.MEDIUM
    picked = engine.pick_waiting("A")
    assert picked is not None and picked.session_id == second.session_id


def test_hold_requires_connected_state():
    engine = make_engine("A", "B", "C")
    engine.place_call("A", "B")
    waiting = engine.place_call("C", "A")
    with pytest.raises(ValueError, match="event hold not permitted from state waiting"):
        engine.hold(waiting.session_id)


def test_only_an_active_call_is_held_and_only_a_held_call_resumed():
    engine = make_engine("A", "B", "C")
    active = engine.place_call("A", "B")
    waiting = engine.place_call("C", "A")
    with pytest.raises(ValueError, match="event resume not permitted from state active"):
        engine.resume(active.session_id)
    with pytest.raises(ValueError, match="event resume not permitted from state waiting"):
        engine.resume(waiting.session_id)
    engine.hold(active.session_id)
    with pytest.raises(ValueError, match="event hold not permitted from state held"):
        engine.hold(active.session_id)
    assert active.state is CallState.HELD


# -- live index against brute-force filters over the whole table --

PARTIES = ("A", "B", "C")
PLACE_CALL = st.tuples(st.just("call"), st.sampled_from(PARTIES), st.sampled_from(PARTIES))
SESSION_OP = st.tuples(st.sampled_from(("hold", "resume")), st.integers(0, 30))
ENGINE_STEPS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(PARTIES)),
    PLACE_CALL,
    PLACE_CALL,
    st.tuples(st.just("event"), st.integers(0, 30), st.sampled_from(CallEvent)),
    SESSION_OP,
    SESSION_OP,
)


def brute_connected(engine: CallEngine, sub: str, include_held: bool) -> list[CallSession]:
    states = (CallState.ACTIVE, CallState.HELD) if include_held else (CallState.ACTIVE,)
    return [s for s in engine.sessions() if s.state in states and sub in (s.caller, s.callee)]


@settings(max_examples=200, deadline=None)
@given(st.lists(ENGINE_STEPS, min_size=10, max_size=60))
def test_live_index_matches_a_full_table_scan(steps):
    engine = CallEngine()
    registered: list[str] = []
    placed_records: list[CallSession] = []
    for op, *args in steps:
        sessions = engine.sessions()
        if op == "register" and args[0] not in registered:
            engine.register(args[0])
            registered.append(args[0])
        elif op == "call" and args[0] != args[1] and set(args) <= set(registered):
            engaged = bool(brute_connected(engine, args[1], include_held=True))
            placed = engine.place_call(args[0], args[1])
            assert placed.state is (CallState.WAITING if engaged else CallState.ACTIVE)
            placed_records.append(placed)
        elif op in ("event", "hold", "resume") and sessions:
            sid = sessions[args[0] % len(sessions)].session_id
            try:
                if op == "event":
                    engine.apply_event(sid, args[1])
                elif op == "hold":
                    engine.hold(sid)
                else:
                    engine.resume(sid)
            except ValueError as exc:
                assert "not permitted from state" in str(exc)
        # one record per session: every step updates the object place_call returned
        for placed in placed_records:
            assert engine.get(placed.session_id) is placed
        for sub in registered:
            assert engine.sessions_of(sub) == [
                s
                for s in engine.sessions()
                if s.state is not CallState.ENDED and sub in (s.caller, s.callee)
            ]
            assert engine.connected_sessions(sub) == brute_connected(
                engine, sub, include_held=False
            )
            assert engine.waiting_sessions_for(sub) == [
                s for s in engine.sessions() if s.state is CallState.WAITING and s.callee == sub
            ]
