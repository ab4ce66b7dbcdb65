"""Subscriber and call-session state machines, plus waiting-call routing.

Sessions are immutable values; `transition` returns the updated session
and the engine stores it.  Routing maps a priority tier to a decision:

    HIGHEST -> connect override      MEDIUM -> voice burst permitted
    LOW     -> text burst with beep  NONE   -> standard waiting

Pre-approved callers are floored at MEDIUM before the mapping, so
approval guarantees at least a voice burst and a HIGHEST score still
overrides.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from typing import Callable

from .errors import (
    IllegalTransition,
    InvalidSubscriber,
    NotWaiting,
    SelfCall,
    UnknownSubscriber,
)
from .policy import BurstPolicy
from .scoring import EmergencyAssessment, PriorityTier


def validate_subscriber_id(sub_id: str) -> str:
    if not sub_id or not sub_id.isascii() or any(ch.isspace() for ch in sub_id):
        raise InvalidSubscriber(f"subscriber id must be a non-empty ASCII token: {sub_id!r}")
    return sub_id


class CallState(Enum):
    DIALING = "dialing"
    ACTIVE = "active"
    WAITING = "waiting"
    BURST_PERMITTED = "burst_permitted"
    ENDED = "ended"
    CONNECTED_BY_OVERRIDE = "connected_by_override"


class CallEvent(Enum):
    ANSWER = "answer"
    HANG_UP = "hang_up"
    PERMIT_BURST = "permit_burst"
    OVERRIDE = "override"
    TIMEOUT = "timeout"


# TIMEOUT means "the current phase ran out": an unanswered dial joins the
# waiting queue, a burst window closes back to waiting, and a stale
# waiting call is abandoned.
_TRANSITIONS: dict[tuple[CallState, CallEvent], CallState] = {
    (CallState.DIALING, CallEvent.ANSWER): CallState.ACTIVE,
    (CallState.DIALING, CallEvent.TIMEOUT): CallState.WAITING,
    (CallState.DIALING, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.WAITING, CallEvent.PERMIT_BURST): CallState.BURST_PERMITTED,
    (CallState.WAITING, CallEvent.OVERRIDE): CallState.CONNECTED_BY_OVERRIDE,
    (CallState.WAITING, CallEvent.ANSWER): CallState.ACTIVE,
    (CallState.WAITING, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.WAITING, CallEvent.TIMEOUT): CallState.ENDED,
    (CallState.BURST_PERMITTED, CallEvent.TIMEOUT): CallState.WAITING,
    (CallState.BURST_PERMITTED, CallEvent.ANSWER): CallState.ACTIVE,
    (CallState.BURST_PERMITTED, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.ACTIVE, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.CONNECTED_BY_OVERRIDE, CallEvent.HANG_UP): CallState.ENDED,
}

CONNECTED_STATES = frozenset({CallState.ACTIVE, CallState.CONNECTED_BY_OVERRIDE})


@dataclass(frozen=True)
class CallSession:
    session_id: int
    caller: str
    callee: str
    state: CallState
    started_at: int
    ended_at: int | None = None

    def __post_init__(self) -> None:
        if self.caller == self.callee:
            raise SelfCall(f"{self.caller!r} cannot call itself")
        if (self.ended_at is not None) != (self.state is CallState.ENDED):
            raise ValueError("ended_at must be present iff the session has ended")


def transition(session: CallSession, event: CallEvent, now: int) -> CallSession:
    """Apply `event`; illegal transitions raise without touching the session."""
    target = _TRANSITIONS.get((session.state, event))
    if target is None:
        raise IllegalTransition(
            f"event {event.value} not permitted from state {session.state.value}"
        )
    return replace(
        session,
        state=target,
        ended_at=now if target is CallState.ENDED else None,
    )


class RoutingKind(IntEnum):
    """Ordered by escalation: raising the tier never downgrades the kind."""

    STANDARD_WAITING = 0
    PERMIT_TEXT_BURST_WITH_BEEP = 1
    PERMIT_VOICE_BURST = 2
    CONNECT_OVERRIDE = 3

    @property
    def token(self) -> str:
        return self.name.lower()


class RoutingReason(Enum):
    PRE_APPROVED = "pre_approved"
    SCORE_THRESHOLD = "score_threshold"
    DEFAULT = "default"


_KIND_FOR_TIER = {
    PriorityTier.HIGHEST: RoutingKind.CONNECT_OVERRIDE,
    PriorityTier.MEDIUM: RoutingKind.PERMIT_VOICE_BURST,
    PriorityTier.LOW: RoutingKind.PERMIT_TEXT_BURST_WITH_BEEP,
    PriorityTier.NONE: RoutingKind.STANDARD_WAITING,
}


@dataclass(frozen=True)
class RoutingDecision:
    kind: RoutingKind
    tier: PriorityTier
    reason: RoutingReason


def route_waiting_call(
    waiting: CallSession,
    assessment: EmergencyAssessment,
    policy: BurstPolicy,
) -> RoutingDecision:
    """Pure tier-table lookup with the pre-approval floor applied first."""
    if waiting.state is not CallState.WAITING:
        raise NotWaiting(f"session {waiting.session_id} is {waiting.state.value}, not waiting")
    score_tier = assessment.tier
    effective = score_tier
    if waiting.caller in policy.approved_callers:
        effective = max(score_tier, PriorityTier.MEDIUM)
    if effective > score_tier:
        reason = RoutingReason.PRE_APPROVED
    elif effective > PriorityTier.NONE:
        reason = RoutingReason.SCORE_THRESHOLD
    else:
        reason = RoutingReason.DEFAULT
    return RoutingDecision(kind=_KIND_FOR_TIER[effective], tier=effective, reason=reason)


class CallEngine:
    """Owns the subscriber registry, the session table, and hold flags.

    The live index maps each registered subscriber to the ids of its
    unended sessions, as caller or callee, in ascending id order: ids only
    grow and are appended, and a session leaves both parties' entries when
    it reaches ENDED.  Per-subscriber lookups read it, not the table.
    """

    def __init__(self) -> None:
        self._live: dict[str, dict[int, None]] = {}
        self._sessions: dict[int, CallSession] = {}
        self._held: set[int] = set()
        self._next_session_id = 1

    # -- subscribers --

    def register(self, sub_id: str) -> str:
        validate_subscriber_id(sub_id)
        if sub_id in self._live:
            raise InvalidSubscriber(f"subscriber {sub_id!r} already registered")
        self._live[sub_id] = {}
        return sub_id

    # -- sessions --

    def place_call(self, caller: str, callee: str, now: int) -> CallSession:
        """Connect directly when the callee is idle; queue otherwise."""
        if caller == callee:
            raise SelfCall(f"{caller!r} cannot call itself")
        for sub_id in (caller, callee):
            if sub_id not in self._live:
                raise UnknownSubscriber(f"subscriber {sub_id!r} is not registered")
        engaged = any(s.state in CONNECTED_STATES for s in self.sessions_of(callee))
        session = CallSession(
            session_id=self._next_session_id,
            caller=caller,
            callee=callee,
            state=CallState.WAITING if engaged else CallState.ACTIVE,
            started_at=now,
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self._live[caller][session.session_id] = None
        self._live[callee][session.session_id] = None
        return session

    def get(self, session_id: int) -> CallSession:
        return self._sessions[session_id]

    def sessions(self) -> list[CallSession]:
        """Every session ever placed, ended ones included, in id order."""
        return list(self._sessions.values())

    def sessions_of(self, sub_id: str) -> list[CallSession]:
        """Unended sessions `sub_id` takes part in, in id order; none for
        an unregistered id."""
        return [self._sessions[sid] for sid in self._live.get(sub_id, ())]

    def apply_event(self, session_id: int, event: CallEvent, now: int) -> CallSession:
        updated = transition(self._sessions[session_id], event, now)
        self._sessions[session_id] = updated
        if updated.state is CallState.ENDED:
            self._held.discard(session_id)
            del self._live[updated.caller][session_id]
            del self._live[updated.callee][session_id]
        return updated

    # -- hold bookkeeping (connect-override keeps the displaced call) --

    def hold(self, session_id: int) -> None:
        session = self._sessions[session_id]
        if session.state not in CONNECTED_STATES:
            raise IllegalTransition(f"cannot hold a {session.state.value} session")
        self._held.add(session_id)

    def resume(self, session_id: int) -> None:
        self._held.discard(session_id)

    def is_held(self, session_id: int) -> bool:
        return session_id in self._held

    def connected_sessions(self, sub_id: str, include_held: bool = True) -> list[CallSession]:
        return [
            s
            for s in self.sessions_of(sub_id)
            if s.state in CONNECTED_STATES
            and (include_held or s.session_id not in self._held)
        ]

    def waiting_sessions_for(self, callee: str) -> list[CallSession]:
        return [
            s
            for s in self.sessions_of(callee)
            if s.state is CallState.WAITING and s.callee == callee
        ]

    def pick_waiting(
        self, callee: str, tier_of: Callable[[int], PriorityTier]
    ) -> CallSession | None:
        """Queue discipline: higher tier first, FIFO within a tier."""
        waiting = self.waiting_sessions_for(callee)
        if not waiting:
            return None
        return min(waiting, key=lambda s: (-tier_of(s.session_id), s.session_id))
