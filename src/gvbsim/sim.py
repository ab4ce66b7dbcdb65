"""Discrete-event simulator: drives every module on a virtual clock and
emits a deterministic trace.

Events are processed in file order.  A call into a busy callee is
scored, routed, and (when bursts are admitted) given a ledger.  A burst
attempt consults the scheduler, runs incapacity detection on the window,
and substitutes a generated message when the caller appears incapacitated.
Burst windows complete instantaneously at `start + duration`; waiting
calls with no activity for `ABANDON_TIMEOUT_S` seconds are ended.  Each
incapacitated window with a seed asks its backend once.  Nothing the engine
decides reads a generated message, so a burst whose request is asked ahead
of its reply (`substitute`) leaves its records, and every record after
them, to be made in order when the replies are read, in the order asked
(`_drain`).

Identical (events, config) pairs produce byte-identical traces.
"""
from __future__ import annotations

import heapq
import math
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .calls import (
    ROUTING_KINDS,
    CallEngine,
    CallEvent,
    CallSession,
    CallState,
    route_waiting_call,
)
from .checked import checked
from .errors import ExternalTimeout, SimError
from .generation import (
    SPEAKING_RATE_WPS,
    ExternalBackend,
    GeneratedMessage,
    TemplateBackend,
    compose_seed,
    fit_to_duration,
    generate_message,
    word_budget,
)
from .incapacity import (
    VERDICT_TABLE_SIZE,
    IncapacityVerdict,
    Modality,
    ModalitySignal,
    assess_incapacity,
    detect_keywords,
    detect_silence,
    flag_media,
)
from .policy import BurstPolicy
from .scenario import DIRECTIVES, SimEvent
from .scheduler import BurstLedger, Deny, dismiss, record_burst, request_burst
from .scoring import (
    BaselineProfile,
    CallerContext,
    FactorWeights,
    PriorityTier,
    TierThresholds,
    assess,
)
from .trace import TraceRecord, assessment_fields, fmt_num, fmt_score, make_record

ABANDON_TIMEOUT_S = 120
_HANGUP_RANK = {CallState.ACTIVE: 0, CallState.WAITING: 1, CallState.HELD: 2}


@checked
class RunConfig(NamedTuple):
    backend: TemplateBackend | ExternalBackend = TemplateBackend()
    rng_seed: int = 0

    def _check(self) -> None:
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _fmt_point(point: tuple[float, float] | None) -> str:
    if point is None:
        return "-"
    return f"({point[0]:g},{point[1]:g})"


def _budget(policy: BurstPolicy) -> tuple[int, int, int]:
    """The `t`, `G` and `N` values of `POLICY_SET` and `BURSTS_ADMITTED`."""
    return policy.burst_seconds_t, policy.gap_seconds_g, policy.max_bursts_n


class Simulation:
    """One run over a parsed event list, in file order; not reusable."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self.engine = CallEngine()
        self.policies: dict[str, BurstPolicy] = {}  # latest `policy` line (or default) per callee
        self.weights = FactorWeights()  # until a `weights` line
        self.thresholds = TierThresholds()  # until a `thresholds` line
        self.profiles: dict[str, BaselineProfile] = {}
        self.records: list[str] = []  # plain lines, made `TraceRecord`s when `run` returns
        self.clock = 0
        # One (expiry, sid) entry per placed call, pushed when it is placed
        # and never later than last_activity + ABANDON_TIMEOUT_S: a touch only
        # moves last_activity on, and `_expire_waiting` pushes a touched
        # session's entry back at its real expiry.
        self._expiry: list[tuple[int, int]] = []
        # (clock, event, values) of records not yet made, in order; a burst
        # waiting for its reply is (clock, None, its maker)
        self._held: list[tuple[int, str | None, object]] = []

    # -- trace plumbing --

    def _emit(self, event: str, *values: object) -> None:
        """Append the line of one `event` record at the current clock, its
        values in the order `TRACE_EVENTS` declares (see `make_record`), or
        hold it while a record before it is held; `seq` counts the records
        made."""
        if self._held:
            self._held.append((self.clock, event, values))
            return
        self.records.append(make_record(self.clock, len(self.records) + 1, event, values))

    def _drain(self) -> None:
        """Make the held records in order, each at its own clock (the last
        one's stays); a burst's maker reads its reply then."""
        held, self._held, records = self._held, [], self.records
        for self.clock, event, values in held:
            if event is None:
                values()
            else:
                records.append(make_record(self.clock, len(records) + 1, event, values))

    # -- main loop --

    def run(self, events: list[SimEvent]) -> list[TraceRecord]:
        due = self._expiry
        for event in events:
            if due and due[0][0] < event.at:
                self._expire_waiting(before=event.at)
            self.clock = event.at
            handler = self._HANDLERS[event.kind]
            try:
                handler(self, **event.args)
            except (ValueError, KeyError) as exc:
                raise SimError(event.line_no, str(exc)) from exc
        self._expire_waiting(before=None)
        self._drain()
        return list(map(TraceRecord, self.records))

    def _touch(self, session: CallSession) -> None:
        """Restart the session's idle clock at the current time."""
        session.last_activity = self.clock

    def _expire_waiting(self, before: int | None) -> None:
        """End waiting sessions whose idle timeout elapsed strictly before
        `before` (all of them when `before` is None, at run end), in
        (expiry, session id) order.

        A popped entry of a session that left WAITING is dropped; one of a
        session touched since it was pushed goes back at its real expiry.
        No entry is later than its session's real expiry, so the least
        entry whose expiry is real is the next session to end."""
        due = self._expiry
        while due and (before is None or due[0][0] < before):
            expiry, sid = heapq.heappop(due)
            session = self.engine.get(sid)
            if session.state is not CallState.WAITING:
                continue
            real = session.last_activity + ABANDON_TIMEOUT_S
            if real != expiry:
                heapq.heappush(due, (real, sid))
                continue
            self.clock = expiry
            self.engine.apply_event(sid, CallEvent.TIMEOUT)
            self._emit("CALL_ENDED", sid, "timeout")

    # -- event handlers --

    def _handle_subscriber(
        self,
        sub_id: str,
        home: tuple[float, float] | None,
        usual_hours_label: str,
        profile: BaselineProfile,
    ) -> None:
        self.engine.register(sub_id)
        self.profiles[sub_id] = profile
        self._emit(
            "SUBSCRIBER_REGISTERED",
            sub_id,
            _fmt_point(home),
            usual_hours_label,
            fmt_num(profile.resting_heart_rate),
            int(profile.usual_moving),
        )

    def _handle_policy(self, policy: BurstPolicy) -> None:
        self.policies[policy.callee] = policy
        approved = ",".join(sorted(policy.approved_callers)) or "-"
        self._emit("POLICY_SET", policy.callee, *_budget(policy), approved)

    def _handle_weights(self, weights: FactorWeights) -> None:
        self.weights = weights
        self._emit("WEIGHTS_SET", *map(fmt_num, weights))

    def _handle_thresholds(self, thresholds: TierThresholds) -> None:
        self.thresholds = thresholds
        self._emit(
            "THRESHOLDS_SET",
            fmt_num(thresholds.theta_connect),
            fmt_num(thresholds.theta_voice),
            fmt_num(thresholds.theta_text),
        )

    def _handle_call(self, caller: str, callee: str, context: CallerContext) -> None:
        session = self.engine.place_call(caller, callee)
        sid = session.session_id
        session.context = context
        self._touch(session)
        heapq.heappush(self._expiry, (self.clock + ABANDON_TIMEOUT_S, sid))
        self._emit("CALL_PLACED", sid, caller, callee)
        if session.state is CallState.ACTIVE:
            self._emit("CALL_CONNECTED", sid)
            return
        self._emit("CALL_WAITING", sid)
        assessment = assess(context, self.profiles[caller], self.weights, self.thresholds)
        self._emit("ASSESSMENT", sid, caller, *assessment_fields(assessment).values())
        policy = self.policies.get(callee) or self.policies.setdefault(callee, BurstPolicy(callee))
        tier, reason = route_waiting_call(session, assessment.tier, policy)
        session.tier = tier
        self._emit("ROUTING", sid, ROUTING_KINDS[tier], tier.token, reason.token)
        if tier is PriorityTier.HIGHEST:
            for current in self.engine.connected_sessions(callee):
                self.engine.hold(current.session_id)
                self._emit("CALL_HELD", current.session_id)
            self.engine.apply_event(sid, CallEvent.OVERRIDE)
            self._emit("CALL_OVERRIDE_CONNECTED", sid)
        elif tier is not PriorityTier.NONE:
            session.ledger = BurstLedger(policy)
            mode = "voice" if tier is PriorityTier.MEDIUM else "text"
            self._emit("BURSTS_ADMITTED", sid, mode, *_budget(policy))

    def _handle_burst(
        self, caller: str, transcript: str | None, keywords: str | None, image: str | None
    ) -> None:
        session = self.engine.waiting_call_of(caller)
        if session is None:
            self._emit("BURST_REJECTED", caller, None, "no_waiting_call")
            return
        sid = session.session_id
        self._touch(session)
        if session.ledger is None:
            self._emit("BURST_REJECTED", caller, sid, "not_admitted")
            return
        grant = request_burst(session.ledger, self.clock)
        if isinstance(grant, Deny):
            self._emit("BURST_DENIED", sid, grant.reason.token, grant.eligible_at)
            return
        t = session.ledger.policy.burst_seconds_t
        self._emit("PERMIT", sid, grant.granted_at, grant.window_end)
        signals: list[ModalitySignal] = []
        if transcript is None:
            duration = t
            signals.append(detect_silence(duration))
        else:
            spoken = len(transcript.split()) / SPEAKING_RATE_WPS
            duration = max(1, math.ceil(min(spoken, t)))
            keyword_signal = detect_keywords(transcript)
            if keyword_signal is not None:
                signals.append(keyword_signal)
        descs: dict[Modality, list[str]] = {Modality.IMAGE_DESCRIPTION: [image]} if image else {}
        for modality, description in session.pending_media:
            descs.setdefault(modality, []).append(description)
        session.pending_media.clear()
        media: dict[str, str] = {}  # seed label -> the window's descriptions of that kind
        for modality, texts in descs.items():
            text = media[modality.token] = "; ".join(texts)
            media_signal = flag_media(text, modality)
            if media_signal is not None:
                signals.append(media_signal)
        verdict = assess_incapacity(signals)
        self._emit("INCAPACITY", sid, *_incapacity_fields(verdict))
        voice_mode = session.tier is PriorityTier.MEDIUM
        # (BURST_SENT payload token, text), or None for a silent window
        sent: tuple[str, str] | None = None
        message = None
        if verdict.incapacitated:
            location = session.context.location_type.seed_text
            message = substitute(self.config, location, t, keywords, transcript, media)
        elif transcript is not None:
            sent = ("voice" if voice_mode else "text_beep", transcript)
        session.ledger = record_burst(session.ledger, self.clock, duration)
        window = (sid, session.ledger.bursts_sent, self.clock, duration)
        if not callable(message):
            return self._send(sid, voice_mode, window, sent, message)
        # asked ahead: this burst's records, and all after them, wait for the reply
        send = partial(self._send, sid, voice_mode, window, sent, message)
        self._held.append((self.clock, None, send))
        if self.config.backend.full():
            self._drain()

    def _send(self, sid: int, voice_mode: bool, window: tuple, sent, message) -> None:
        """The records of a burst's message, if any (or of a call making it), and of its window."""
        if callable(message):
            message = message()
        if message is not None:
            if message.fallback is not None:
                token = "timeout" if isinstance(message.fallback, ExternalTimeout) else "error"
                detail = message.fallback_reason
                self._emit("GEN_FALLBACK", sid, token, detail)
            words = message.word_count
            seconds = f"{words / SPEAKING_RATE_WPS:.2f}"
            self._emit("GEN", sid, message.backend, words, seconds, message.text)
            sent = ("generated" if voice_mode else "text_beep", message.text)
        if sent is None:
            self._emit("BURST_WINDOW_SILENT", *window)
        else:
            self._emit("BURST_SENT", *window, *sent)

    def _handle_media(self, caller: str, modality: Modality, description: str) -> None:
        session = self.engine.waiting_call_of(caller)
        if session is None:
            self._emit("MEDIA_IGNORED", caller)
            return
        session.pending_media.append((modality, description))
        self._touch(session)
        self._emit("MEDIA_NOTED", session.session_id, modality.token)

    def _handle_hangup(self, sub_id: str) -> None:
        target = self._pick_hangup_target(sub_id)
        if target is None:
            raise ValueError(f"{sub_id!r} has no session to hang up")
        was_connected = target.state is CallState.ACTIVE
        self.engine.apply_event(target.session_id, CallEvent.HANG_UP)
        self._emit("CALL_ENDED", target.session_id, sub_id)
        if was_connected:
            self._maybe_resume(target)

    def _pick_hangup_target(self, sub_id: str) -> CallSession | None:
        """The connected call first, then the hanger-up's own waiting call
        (abandoned), then a held call; the lowest id within a rank."""
        candidates = (
            s
            for s in self.engine.sessions_of(sub_id)
            if s.state is not CallState.WAITING or s.caller == sub_id
        )
        return min(candidates, key=lambda s: (_HANGUP_RANK[s.state], s.session_id), default=None)

    def _maybe_resume(self, ended: CallSession) -> None:
        """Un-hold the displaced call once the overriding call ends."""
        for party in (ended.caller, ended.callee):
            if self.engine.connected_sessions(party):
                continue
            for session in self.engine.sessions_of(party):
                if session.state is CallState.HELD:
                    self.engine.resume(session.session_id)
                    self._emit("CALL_RESUMED", session.session_id)
                    break

    def _handle_answer(self, sub_id: str) -> None:
        session = self.engine.pick_waiting(sub_id)
        if session is None:
            raise ValueError(f"{sub_id!r} has no waiting call to answer")
        for current in self.engine.connected_sessions(sub_id):
            self.engine.apply_event(current.session_id, CallEvent.HANG_UP)
            self._emit("CALL_ENDED", current.session_id, sub_id)
        self.engine.apply_event(session.session_id, CallEvent.ANSWER)
        self._emit("CALL_CONNECTED", session.session_id)

    def _handle_dismiss(self, sub_id: str) -> None:
        for session in self.engine.waiting_sessions_for(sub_id):
            sid, ledger = session.session_id, session.ledger
            if ledger is not None and not ledger.dismissed:
                remaining = ledger.policy.max_bursts_n - ledger.bursts_sent
                session.ledger = dismiss(ledger)
                self._touch(session)
                self._emit("BURSTS_DISMISSED", sid, remaining)


# keyed by the heads of scenario.DIRECTIVES; a head with no handler fails the import
Simulation._HANDLERS = {head: getattr(Simulation, f"_handle_{head}") for head in DIRECTIVES}


@lru_cache(maxsize=VERDICT_TABLE_SIZE)
def _incapacity_fields(verdict: IncapacityVerdict) -> tuple[int, str, str]:
    """A verdict's INCAPACITY values after `session`."""
    return (
        int(verdict.incapacitated),
        fmt_score(verdict.confidence),
        ",".join(s.modality.token for s in verdict.contributing) or "-",
    )


def substitute(
    config: RunConfig,
    location: str | None,
    t: int,
    keywords: str | None,
    transcript: str | None,
    media: dict[str, str],
) -> GeneratedMessage | Callable[[], GeneratedMessage] | None:
    """The message generated from a burst's context (media texts by seed
    label), the caller at `location`, fitted to `t` seconds; None when no
    part of the context seeds one.  Each call asks the backend once.  A
    backend that can ask ahead (`ExternalBackend.ask`) is sent the request
    now, and the message returned is a call that reads its reply when
    needed; any other backend answers at once."""
    seed = compose_seed(keywords=keywords, speech=transcript, location=location, **media)
    if not seed:
        return None
    backend = config.backend
    reply = partial(generate_message, seed, backend, config.rng_seed, location)
    if hasattr(backend, "ask"):
        word_budget(t)  # fails now, not when the held burst reads its reply
        backend.ask(seed, config.rng_seed)
        return lambda: fit_to_duration(reply(), t)
    return fit_to_duration(reply(), t)


def run(events: list[SimEvent], config: RunConfig | None = None) -> list[TraceRecord]:
    """Run a scenario to quiescence and return its trace."""
    return Simulation(config).run(events)
