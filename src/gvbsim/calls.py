"""Subscriber and call-session state machines, plus waiting-call routing.

A `CallSession` is the one record of a call: `place_call` creates it and
the engine changes it in place, never replacing it.  Its `state` is
WAITING, ACTIVE, HELD (parked by a connect-override, resumed later) or
ENDED, and `next_state` is the pure lookup of every move it can make.
Routing gives a waiting call its priority tier, and the tier is what the
call gets; `ROUTING_KINDS` names each in the trace:

    HIGHEST -> connect override      MEDIUM -> voice burst permitted
    LOW     -> text burst with beep  NONE   -> standard waiting

Pre-approved callers are floored at MEDIUM before the mapping, so
approval guarantees at least a voice burst and a HIGHEST score still
overrides.
"""
from __future__ import annotations

from enum import Enum

from .incapacity import Modality
from .policy import BurstPolicy
from .scheduler import BurstLedger
from .scoring import CallerContext, PriorityTier


def validate_subscriber_id(sub_id: str) -> str:
    if not sub_id or not sub_id.isascii() or any(ch.isspace() for ch in sub_id):
        raise ValueError(f"subscriber id must be a non-empty ASCII token: {sub_id!r}")
    return sub_id


class CallState(Enum):
    __hash__ = object.__hash__  # singletons compared by identity; Enum.__hash__ runs Python in 3.11
    ACTIVE = "active"
    WAITING = "waiting"
    HELD = "held"
    ENDED = "ended"


class CallEvent(Enum):
    __hash__ = object.__hash__  # singletons compared by identity; Enum.__hash__ runs Python in 3.11
    ANSWER = "answer"
    HANG_UP = "hang_up"
    OVERRIDE = "override"
    TIMEOUT = "timeout"
    HOLD = "hold"
    RESUME = "resume"


# `place_call` creates a call WAITING or ACTIVE, and a waiting call keeps
# its state through its bursts.  OVERRIDE connects a waiting call past the
# callee's current one, which HOLD parks as HELD until RESUME gives it the
# line back; TIMEOUT means a waiting call sat idle too long and is
# abandoned.  Any party may hang up a held call.
_TRANSITIONS: dict[tuple[CallState, CallEvent], CallState] = {
    (CallState.WAITING, CallEvent.OVERRIDE): CallState.ACTIVE,
    (CallState.WAITING, CallEvent.ANSWER): CallState.ACTIVE,
    (CallState.WAITING, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.WAITING, CallEvent.TIMEOUT): CallState.ENDED,
    (CallState.ACTIVE, CallEvent.HANG_UP): CallState.ENDED,
    (CallState.ACTIVE, CallEvent.HOLD): CallState.HELD,
    (CallState.HELD, CallEvent.RESUME): CallState.ACTIVE,
    (CallState.HELD, CallEvent.HANG_UP): CallState.ENDED,
}


class CallSession:
    __slots__ = (
        "session_id", "caller", "callee", "state",
        "context", "tier", "ledger", "pending_media", "last_activity",
    )

    def __init__(self, session_id: int, caller: str, callee: str, state: CallState) -> None:
        self.session_id = session_id
        self.caller = caller
        self.callee = callee
        self.state = state
        self.context: CallerContext | None = None
        self.tier = PriorityTier.NONE  # set when a waiting call is routed
        self.ledger: BurstLedger | None = None  # this waiting episode's burst budget
        self.pending_media: list[tuple[Modality, str]] = []
        self.last_activity = 0


def next_state(state: CallState, event: CallEvent) -> CallState:
    """The state `event` leads to from `state`; raises if not permitted."""
    target = _TRANSITIONS.get((state, event))
    if target is None:
        raise ValueError(f"event {event.value} not permitted from state {state.value}")
    return target


class RoutingReason(Enum):
    PRE_APPROVED = "pre_approved"
    SCORE_THRESHOLD = "score_threshold"
    DEFAULT = "default"

    def __init__(self, value: str) -> None:
        self.token = value  # the trace token; a plain read, where `.value` runs Python in 3.11


# The `kind=` token of a ROUTING record for each tier.
ROUTING_KINDS: dict[PriorityTier, str] = {
    PriorityTier.HIGHEST: "connect_override",
    PriorityTier.MEDIUM: "permit_voice_burst",
    PriorityTier.LOW: "permit_text_burst_with_beep",
    PriorityTier.NONE: "standard_waiting",
}


def route_waiting_call(
    waiting: CallSession,
    score_tier: PriorityTier,
    policy: BurstPolicy,
) -> tuple[PriorityTier, RoutingReason]:
    """The waiting call's tier, with the pre-approval floor applied, and why."""
    if waiting.state is not CallState.WAITING:
        raise ValueError(f"session {waiting.session_id} is {waiting.state.value}, not waiting")
    effective = score_tier
    if waiting.caller in policy.approved_callers:
        effective = max(score_tier, PriorityTier.MEDIUM)
    if effective > score_tier:
        reason = RoutingReason.PRE_APPROVED
    elif effective > PriorityTier.NONE:
        reason = RoutingReason.SCORE_THRESHOLD
    else:
        reason = RoutingReason.DEFAULT
    return effective, reason


class CallEngine:
    """Owns the subscriber registry and the session table, the only
    per-session record: each `CallSession` is created by `place_call` and
    changed in place by `apply_event`, never replaced; `hold` parks an
    ACTIVE call as HELD and `resume` gives it the line back.

    The live index maps each registered subscriber to the ids of its
    unended sessions, as caller or callee, in ascending id order: ids only
    grow and are appended, and a session leaves both parties' entries when
    it reaches ENDED.  Per-subscriber lookups read it, not the table.
    """

    def __init__(self) -> None:
        self._live: dict[str, dict[int, None]] = {}
        self._sessions: dict[int, CallSession] = {}
        self._next_session_id = 1

    # -- subscribers --

    def register(self, sub_id: str) -> None:
        validate_subscriber_id(sub_id)
        if sub_id in self._live:
            raise ValueError(f"subscriber {sub_id!r} already registered")
        self._live[sub_id] = {}

    # -- sessions --

    def place_call(self, caller: str, callee: str) -> CallSession:
        """Connect directly when the callee has no ACTIVE or HELD call; queue otherwise."""
        if caller == callee:
            raise ValueError(f"{caller!r} cannot call itself")
        for sub_id in (caller, callee):
            if sub_id not in self._live:
                raise ValueError(f"subscriber {sub_id!r} is not registered")
        engaged = any(s.state is not CallState.WAITING for s in self.sessions_of(callee))
        session = CallSession(
            session_id=self._next_session_id,
            caller=caller,
            callee=callee,
            state=CallState.WAITING if engaged else CallState.ACTIVE,
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

    def waiting_call_of(self, caller: str) -> CallSession | None:
        """The lowest-id WAITING call `caller` placed, read from the live index in place."""
        for sid in self._live.get(caller, ()):
            session = self._sessions[sid]
            if session.caller == caller and session.state is CallState.WAITING:
                return session
        return None

    def apply_event(self, session_id: int, event: CallEvent) -> None:
        """Move the session along `event` in place."""
        session = self._sessions[session_id]
        session.state = next_state(session.state, event)
        if session.state is CallState.ENDED:
            del self._live[session.caller][session_id]
            del self._live[session.callee][session_id]

    def hold(self, session_id: int) -> None:
        self.apply_event(session_id, CallEvent.HOLD)

    def resume(self, session_id: int) -> None:
        self.apply_event(session_id, CallEvent.RESUME)

    def connected_sessions(self, sub_id: str) -> list[CallSession]:
        """Sessions `sub_id` is talking on now: the ACTIVE ones."""
        return [s for s in self.sessions_of(sub_id) if s.state is CallState.ACTIVE]

    def waiting_sessions_for(self, callee: str) -> list[CallSession]:
        return [
            s
            for s in self.sessions_of(callee)
            if s.state is CallState.WAITING and s.callee == callee
        ]

    def pick_waiting(self, callee: str) -> CallSession | None:
        """Queue discipline: higher tier first, FIFO within a tier."""
        return min(
            self.waiting_sessions_for(callee),
            key=lambda s: (-s.tier, s.session_id),
            default=None,
        )
