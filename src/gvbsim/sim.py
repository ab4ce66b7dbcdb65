"""Discrete-event simulator: drives every module on a virtual clock and
emits a deterministic trace.

Events are processed in (time, line) order.  A call into a busy callee is
scored, routed, and (when bursts are admitted) given a ledger.  A burst
attempt consults the scheduler, runs incapacity detection on the window,
and substitutes a generated message when the caller appears incapacitated.
Burst windows complete instantaneously at `start + duration`; waiting
calls with no activity for `abandon_timeout` seconds are ended.

Identical (events, config) pairs produce byte-identical traces.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .calls import (
    CallEngine,
    CallEvent,
    CallSession,
    CallState,
    CONNECTED_STATES,
    RoutingDecision,
    RoutingKind,
    route_waiting_call,
)
from .errors import GvbError, SimError
from .generation import (
    DEFAULT_SPEAKING_RATE_WPS,
    ExternalBackend,
    GenerationParams,
    SeedBundle,
    TemplateBackend,
    compose_seed,
    fit_to_duration,
    generate_message,
)
from .incapacity import (
    DEFAULT_DISTRESS_LEXICON,
    DEFAULT_KEYWORDS,
    BurstWindow,
    Modality,
    ModalitySignal,
    assess_incapacity,
    detect_keywords,
    detect_silence,
    flag_media,
)
from .policy import PolicyRegistry
from .scenario import EventKind, SimEvent
from .scheduler import (
    BurstLedger,
    BurstRecord,
    CallerVoice,
    Deny,
    Generated,
    SilentWindow,
    TextWithBeep,
    dismiss,
    record_burst,
    request_burst,
)
from .scoring import (
    BaselineProfile,
    CallerContext,
    FactorWeights,
    LocationType,
    PriorityTier,
    TierThresholds,
    assess,
)
from .trace import TRACE_EVENTS, TraceRecord, fmt_num, fmt_score

DEFAULT_ABANDON_TIMEOUT_S = 120


@dataclass
class RunConfig:
    weights: FactorWeights = FactorWeights()
    thresholds: TierThresholds = TierThresholds()
    backend: TemplateBackend | ExternalBackend | None = None
    rng_seed: int = 0
    speaking_rate: float = DEFAULT_SPEAKING_RATE_WPS
    abandon_timeout: int = DEFAULT_ABANDON_TIMEOUT_S
    incapacity_keywords: frozenset[str] = DEFAULT_KEYWORDS
    distress_lexicon: frozenset[str] = DEFAULT_DISTRESS_LEXICON


@dataclass
class _SessionInfo:
    """Simulator-side bookkeeping attached to one call session."""

    context: CallerContext | None = None
    decision: RoutingDecision | None = None
    ledger: BurstLedger | None = None
    pending_media: list[tuple[Modality, str]] = field(default_factory=list)
    last_activity: int = 0


def _fmt_point(point: tuple[float, float] | None) -> str:
    if point is None:
        return "-"
    return f"({point[0]:g},{point[1]:g})"


class Simulation:
    """One run over a sorted event list; not reusable."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or RunConfig()
        self.engine = CallEngine()
        self.policies = PolicyRegistry()
        self.weights = self.config.weights
        self.thresholds = self.config.thresholds
        self.profiles: dict[str, BaselineProfile] = {}
        self.records: list[TraceRecord] = []
        self.clock = 0
        self._seq = 0
        self._info: dict[int, _SessionInfo] = {}
        # (last_activity + abandon_timeout, sid), pushed whenever a session's
        # idle clock is set; entries made stale by a later touch or by the
        # session leaving WAITING are skipped when popped.
        self._expiry: list[tuple[int, int]] = []

    # -- trace plumbing --

    def _emit(self, event: str, **values: object) -> None:
        """Append one `event` record with `str(value)` in the key order
        `TRACE_EVENTS` declares.  A None value leaves its key out; a key
        the table does not declare raises TypeError."""
        component, keys = TRACE_EVENTS[event]
        details = tuple(
            [(key, str(value)) for key in keys if (value := values.pop(key, None)) is not None]
        )
        if values:
            raise TypeError(f"{event} declares no trace key {sorted(values)}")
        self._seq += 1
        self.records.append(TraceRecord(self.clock, self._seq, component, event, details))

    # -- main loop --

    def run(self, events: list[SimEvent]) -> list[TraceRecord]:
        for event in sorted(events, key=SimEvent.sort_key):
            self._expire_waiting(before=event.at)
            self.clock = event.at
            handler = self._HANDLERS[event.kind]
            try:
                handler(self, event)
            except SimError:
                raise
            except (GvbError, ValueError, KeyError) as exc:
                raise SimError(event.line_no, str(exc)) from exc
        self._expire_waiting(before=None)
        return self.records

    def _touch(self, sid: int) -> None:
        """Restart the session's idle clock at the current time."""
        self._info[sid].last_activity = self.clock
        heapq.heappush(self._expiry, (self.clock + self.config.abandon_timeout, sid))

    def _expire_waiting(self, before: int | None) -> None:
        """End waiting sessions whose idle timeout elapsed strictly before
        `before` (all of them when `before` is None, at run end), in
        (expiry, session id) order."""
        timeout = self.config.abandon_timeout
        due = self._expiry
        while due and (before is None or due[0][0] < before):
            expiry, sid = heapq.heappop(due)
            if (
                self.engine.get(sid).state is not CallState.WAITING
                or self._info[sid].last_activity + timeout != expiry
            ):
                continue
            self.clock = max(self.clock, expiry)
            self.engine.apply_event(sid, CallEvent.TIMEOUT, self.clock)
            self._emit("CALL_ENDED", session=sid, by="timeout")

    # -- event handlers --

    def _handle_register(self, event: SimEvent) -> None:
        args = event.args
        sub_id = self.engine.register(args["id"])
        home = args["home"]
        self.profiles[sub_id] = BaselineProfile(
            usual_locations=frozenset({home}) if home is not None else frozenset(),
            usual_hours=args["usual_hours"],
            resting_heart_rate=args["resting_hr"],
            usual_moving=args["usual_moving"],
        )
        self._emit(
            "SUBSCRIBER_REGISTERED",
            id=sub_id,
            home=_fmt_point(home),
            usual_hours=args["usual_hours_label"],
            resting_hr=fmt_num(args["resting_hr"]),
            usual_moving=int(args["usual_moving"]),
        )

    def _handle_policy(self, event: SimEvent) -> None:
        policy = self.policies.store(event.args["policy"])
        approved = ",".join(sorted(policy.approved_callers)) or "-"
        self._emit(
            "POLICY_SET",
            callee=policy.callee,
            t=policy.burst_seconds_t,
            G=policy.gap_seconds_g,
            N=policy.max_bursts_n,
            approved=approved,
        )

    def _handle_weights(self, event: SimEvent) -> None:
        self.weights = event.args["weights"]
        self._emit(
            "WEIGHTS_SET",
            location=fmt_num(self.weights.location),
            timing=fmt_num(self.weights.timing),
            health=fmt_num(self.weights.health),
            activity=fmt_num(self.weights.activity),
        )

    def _handle_thresholds(self, event: SimEvent) -> None:
        self.thresholds = event.args["thresholds"]
        self._emit(
            "THRESHOLDS_SET",
            connect=fmt_num(self.thresholds.theta_connect),
            voice=fmt_num(self.thresholds.theta_voice),
            text=fmt_num(self.thresholds.theta_text),
        )

    def _handle_call(self, event: SimEvent) -> None:
        args = event.args
        session = self.engine.place_call(args["caller"], args["callee"], self.clock)
        sid = session.session_id
        self._info[sid] = _SessionInfo(context=args["context"])
        self._touch(sid)
        self._emit("CALL_PLACED", session=sid, caller=session.caller, callee=session.callee)
        if session.state is CallState.ACTIVE:
            self._emit("CALL_CONNECTED", session=sid)
            return
        self._emit("CALL_WAITING", session=sid)
        assessment = assess(
            args["context"], self.profiles[session.caller], self.weights, self.thresholds
        )
        self._emit(
            "ASSESSMENT",
            session=sid,
            caller=session.caller,
            location=fmt_score(assessment.factors.location),
            timing=fmt_score(assessment.factors.timing),
            health=fmt_score(assessment.factors.health),
            activity=fmt_score(assessment.factors.activity),
            score=fmt_score(assessment.emergency_score),
            tier=assessment.tier.token,
        )
        policy = self.policies.get_policy(session.callee)
        decision = route_waiting_call(session, assessment, policy)
        self._info[sid].decision = decision
        self._emit(
            "ROUTING",
            session=sid,
            kind=decision.kind.token,
            tier=decision.tier.token,
            reason=decision.reason.value,
        )
        if decision.kind is RoutingKind.CONNECT_OVERRIDE:
            for current in self.engine.connected_sessions(session.callee, include_held=False):
                self.engine.hold(current.session_id)
                self._emit("CALL_HELD", session=current.session_id)
            self.engine.apply_event(sid, CallEvent.OVERRIDE, self.clock)
            self._emit("CALL_OVERRIDE_CONNECTED", session=sid)
        elif decision.kind in (
            RoutingKind.PERMIT_VOICE_BURST,
            RoutingKind.PERMIT_TEXT_BURST_WITH_BEEP,
        ):
            self._info[sid].ledger = BurstLedger(session_id=sid, policy=policy)
            mode = "voice" if decision.kind is RoutingKind.PERMIT_VOICE_BURST else "text"
            self._emit(
                "BURSTS_ADMITTED",
                session=sid,
                mode=mode,
                t=policy.burst_seconds_t,
                G=policy.gap_seconds_g,
                N=policy.max_bursts_n,
            )

    def _waiting_session_of_caller(self, caller: str) -> CallSession | None:
        for session in self.engine.sessions_of(caller):
            if session.caller == caller and session.state is CallState.WAITING:
                return session
        return None

    def _handle_burst(self, event: SimEvent) -> None:
        args = event.args
        session = self._waiting_session_of_caller(args["caller"])
        if session is None:
            self._emit("BURST_REJECTED", caller=args["caller"], reason="no_waiting_call")
            return
        sid = session.session_id
        info = self._info[sid]
        self._touch(sid)
        if info.ledger is None:
            self._emit("BURST_REJECTED", caller=args["caller"], session=sid, reason="not_admitted")
            return
        grant = request_burst(info.ledger, self.clock)
        if isinstance(grant, Deny):
            self._emit(
                "BURST_DENIED",
                session=sid,
                reason=grant.reason.value,
                eligible_at=grant.eligible_at,
            )
            return
        t = info.ledger.policy.burst_seconds_t
        self._emit("PERMIT", session=sid, start=grant.granted_at, window_end=grant.window_end)
        self.engine.apply_event(sid, CallEvent.PERMIT_BURST, self.clock)
        transcript: str | None = args["transcript"]
        if transcript is None:
            duration = t
        else:
            spoken = max(1, math.ceil(len(transcript.split()) / self.config.speaking_rate))
            duration = min(t, spoken)
        signals: list[ModalitySignal] = []
        if transcript is None:
            silence_signal = detect_silence(BurstWindow(duration, speech_present=False))
            assert silence_signal is not None
            signals.append(silence_signal)
        else:
            keyword_signal = detect_keywords(transcript, self.config.incapacity_keywords)
            if keyword_signal is not None:
                signals.append(keyword_signal)
        media_descs: dict[Modality, list[str]] = {}
        if args["image"]:
            media_descs.setdefault(Modality.IMAGE_DESCRIPTION, []).append(args["image"])
        for modality, description in info.pending_media:
            media_descs.setdefault(modality, []).append(description)
        info.pending_media.clear()
        for modality, descriptions in media_descs.items():
            media_signal = flag_media(
                "; ".join(descriptions), modality, self.config.distress_lexicon
            )
            if media_signal is not None:
                signals.append(media_signal)
        verdict = assess_incapacity(signals)
        self._emit(
            "INCAPACITY",
            session=sid,
            incapacitated=int(verdict.incapacitated),
            confidence=fmt_score(verdict.confidence),
            signals=",".join(s.modality.value for s in verdict.contributing) or "-",
        )
        assert info.decision is not None
        voice_mode = info.decision.kind is RoutingKind.PERMIT_VOICE_BURST
        payload: CallerVoice | Generated | TextWithBeep | SilentWindow
        if verdict.incapacitated:
            payload = self._generate_substitute(
                sid, info, args, transcript, media_descs, t, voice_mode
            )
        elif transcript is not None:
            payload = CallerVoice(transcript) if voice_mode else TextWithBeep(transcript)
        else:
            payload = SilentWindow()
        sequence = info.ledger.bursts_sent + 1
        record = BurstRecord(sid, sequence, start=self.clock, duration=duration, payload=payload)
        info.ledger = record_burst(info.ledger, record)
        if isinstance(payload, SilentWindow):
            self._emit(
                "BURST_WINDOW_SILENT",
                session=sid, sequence=sequence, start=record.start, duration=record.duration,
            )
        else:
            if isinstance(payload, CallerVoice):
                kind, text = "voice", payload.transcript
            elif isinstance(payload, Generated):
                kind, text = "generated", payload.message.text
            else:
                kind, text = "text_beep", payload.text
            self._emit(
                "BURST_SENT",
                session=sid, sequence=sequence, start=record.start, duration=record.duration,
                payload=kind, text=text,
            )
        self.engine.apply_event(sid, CallEvent.TIMEOUT, self.clock)

    def _generate_substitute(
        self,
        sid: int,
        info: _SessionInfo,
        args: dict,
        transcript: str | None,
        media_descs: dict[Modality, list[str]],
        t: int,
        voice_mode: bool,
    ) -> Generated | TextWithBeep | SilentWindow:
        """Build a seed from the burst's context and generate a message.

        With no seedable context at all there is nothing to generate from,
        so the window stands as silent.
        """
        location_type = None
        if info.context is not None and info.context.location_type is not LocationType.OTHER:
            location_type = info.context.location_type.value

        def joined(modality: Modality) -> str | None:
            descriptions = media_descs.get(modality)
            return "; ".join(descriptions) if descriptions else None

        bundle = SeedBundle(
            keywords=args["keywords"],
            gesture_desc=joined(Modality.GESTURE),
            image_desc=joined(Modality.IMAGE_DESCRIPTION),
            video_desc=joined(Modality.VIDEO_DESCRIPTION),
            background_speech=transcript,
            location_type=location_type,
        )
        if bundle.is_empty():
            return SilentWindow()
        seed = compose_seed(bundle)
        params = GenerationParams(rng_seed=self.config.rng_seed)
        message = generate_message(
            seed, params, self.config.backend, self.config.speaking_rate
        )
        if message.fallback_reason is not None:
            token = "timeout" if "timeout" in message.fallback_reason.lower() else "error"
            self._emit("GEN_FALLBACK", session=sid, reason=token, detail=message.fallback_reason)
        message = fit_to_duration(message, t, self.config.speaking_rate)
        self._emit(
            "GEN",
            session=sid,
            backend=message.backend.value,
            words=message.word_count,
            seconds=f"{message.estimated_speech_seconds:.2f}",
            text=message.text,
        )
        return Generated(message) if voice_mode else TextWithBeep(message.text)

    def _handle_media(self, event: SimEvent) -> None:
        args = event.args
        session = self._waiting_session_of_caller(args["caller"])
        if session is None:
            self._emit("MEDIA_IGNORED", caller=args["caller"])
            return
        info = self._info[session.session_id]
        info.pending_media.append((args["modality"], args["description"]))
        self._touch(session.session_id)
        self._emit("MEDIA_NOTED", session=session.session_id, modality=args["modality"].value)

    def _handle_hangup(self, event: SimEvent) -> None:
        sub_id = event.args["id"]
        target = self._pick_hangup_target(sub_id)
        if target is None:
            raise SimError(event.line_no, f"{sub_id!r} has no session to hang up")
        was_connected = target.state in CONNECTED_STATES and not self.engine.is_held(
            target.session_id
        )
        self.engine.apply_event(target.session_id, CallEvent.HANG_UP, self.clock)
        self._emit("CALL_ENDED", session=target.session_id, by=sub_id)
        if was_connected:
            self._maybe_resume(target)

    def _pick_hangup_target(self, sub_id: str) -> CallSession | None:
        def rank(session: CallSession) -> int | None:
            if session.state in CONNECTED_STATES:
                return 2 if self.engine.is_held(session.session_id) else 0
            if session.caller == sub_id:  # abandon own waiting/dialing call
                return 1 if session.state in (CallState.WAITING, CallState.BURST_PERMITTED) else 3
            return None

        candidates = [
            (r, s.session_id, s)
            for s in self.engine.sessions_of(sub_id)
            if (r := rank(s)) is not None
        ]
        if not candidates:
            return None
        return min(candidates)[2]

    def _maybe_resume(self, ended: CallSession) -> None:
        """Un-hold the displaced call once the overriding call ends."""
        for party in (ended.caller, ended.callee):
            if self.engine.connected_sessions(party, include_held=False):
                continue
            for session in self.engine.sessions_of(party):
                if self.engine.is_held(session.session_id):
                    self.engine.resume(session.session_id)
                    self._emit("CALL_RESUMED", session=session.session_id)
                    break

    def _handle_answer(self, event: SimEvent) -> None:
        callee = event.args["id"]

        def tier_of(sid: int) -> PriorityTier:
            decision = self._info[sid].decision
            return decision.tier if decision is not None else PriorityTier.NONE

        session = self.engine.pick_waiting(callee, tier_of)
        if session is None:
            raise SimError(event.line_no, f"{callee!r} has no waiting call to answer")
        for current in self.engine.connected_sessions(callee, include_held=False):
            self.engine.apply_event(current.session_id, CallEvent.HANG_UP, self.clock)
            self._emit("CALL_ENDED", session=current.session_id, by=callee)
        self.engine.apply_event(session.session_id, CallEvent.ANSWER, self.clock)
        self._info[session.session_id].ledger = None  # waiting episode over
        self._emit("CALL_CONNECTED", session=session.session_id)

    def _handle_dismiss(self, event: SimEvent) -> None:
        callee = event.args["id"]
        for session in self.engine.waiting_sessions_for(callee):
            sid = session.session_id
            info = self._info[sid]
            if info.ledger is not None and not info.ledger.dismissed:
                remaining = info.ledger.policy.max_bursts_n - info.ledger.bursts_sent
                info.ledger = dismiss(info.ledger)
                self._touch(sid)
                self._emit("BURSTS_DISMISSED", session=sid, remaining_cancelled=remaining)

    _HANDLERS = {
        EventKind.REGISTER_SUBSCRIBER: _handle_register,
        EventKind.SET_POLICY: _handle_policy,
        EventKind.SET_WEIGHTS: _handle_weights,
        EventKind.SET_THRESHOLDS: _handle_thresholds,
        EventKind.PLACE_CALL: _handle_call,
        EventKind.BURST_ATTEMPT: _handle_burst,
        EventKind.MEDIA_DESCRIPTION: _handle_media,
        EventKind.HANG_UP: _handle_hangup,
        EventKind.ANSWER: _handle_answer,
        EventKind.DISMISS: _handle_dismiss,
    }


def run(events: list[SimEvent], config: RunConfig | None = None) -> list[TraceRecord]:
    """Run a scenario to quiescence and return its trace."""
    return Simulation(config).run(events)
