"""Deterministic trace records: one line per event, byte-exact.

Line format:

    t=<sec> seq=<n> <component> <EVENT> k1=v1 k2=v2 ...

`TRACE_EVENTS` is the schema: it maps each of the 25 events to the
component that emits it and to its keys, in the order they are written.
A key whose value is absent is left out, so a record's keys are always an
in-order subsequence of the declared ones.  Values reuse the wire
protocol's percent-encoding (space, percent, newline), so a record always
stays on one line and round-trips exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .generation import encode_text

TRACE_EVENTS: dict[str, tuple[str, tuple[str, ...]]] = {
    "SUBSCRIBER_REGISTERED": (
        "call_engine", ("id", "home", "usual_hours", "resting_hr", "usual_moving"),
    ),
    "CALL_PLACED": ("call_engine", ("session", "caller", "callee")),
    "CALL_CONNECTED": ("call_engine", ("session",)),
    "CALL_WAITING": ("call_engine", ("session",)),
    "ROUTING": ("call_engine", ("session", "kind", "tier", "reason")),
    "CALL_HELD": ("call_engine", ("session",)),
    "CALL_OVERRIDE_CONNECTED": ("call_engine", ("session",)),
    "CALL_RESUMED": ("call_engine", ("session",)),
    "CALL_ENDED": ("call_engine", ("session", "by")),
    "POLICY_SET": ("approval_policy", ("callee", "t", "G", "N", "approved")),
    "WEIGHTS_SET": ("priority_engine", ("location", "timing", "health", "activity")),
    "THRESHOLDS_SET": ("priority_engine", ("connect", "voice", "text")),
    "ASSESSMENT": (
        "priority_engine",
        ("session", "caller", "location", "timing", "health", "activity", "score", "tier"),
    ),
    "BURSTS_ADMITTED": ("burst_scheduler", ("session", "mode", "t", "G", "N")),
    "PERMIT": ("burst_scheduler", ("session", "start", "window_end")),
    "BURST_DENIED": ("burst_scheduler", ("session", "reason", "eligible_at")),
    "BURST_SENT": (
        "burst_scheduler", ("session", "sequence", "start", "duration", "payload", "text"),
    ),
    "BURST_WINDOW_SILENT": ("burst_scheduler", ("session", "sequence", "start", "duration")),
    "BURSTS_DISMISSED": ("burst_scheduler", ("session", "remaining_cancelled")),
    "INCAPACITY": ("incapacity_detector", ("session", "incapacitated", "confidence", "signals")),
    "GEN": ("message_generator", ("session", "backend", "words", "seconds", "text")),
    "GEN_FALLBACK": ("message_generator", ("session", "reason", "detail")),
    "BURST_REJECTED": ("sim_harness", ("caller", "session", "reason")),
    "MEDIA_NOTED": ("sim_harness", ("session", "modality")),
    "MEDIA_IGNORED": ("sim_harness", ("caller",)),
}


def fmt_score(value: float) -> str:
    """Scores and factor values: fixed six decimals."""
    return f"{value:.6f}"


def fmt_num(value: float) -> str:
    """Configuration numbers: shortest plain rendering."""
    return f"{value:g}"


@dataclass(frozen=True)
class TraceRecord:
    at: int
    seq: int
    component: str
    event: str
    details: tuple[tuple[str, str], ...]

    def render(self) -> str:
        parts = [f"t={self.at}", f"seq={self.seq}", self.component, self.event]
        parts.extend(f"{key}={encode_text(value)}" for key, value in self.details)
        return " ".join(parts)

    def get(self, key: str) -> str | None:
        """Raw (unencoded) value for `key`, or None."""
        for k, v in self.details:
            if k == key:
                return v
        return None


def render_trace(records: list[TraceRecord]) -> str:
    return "".join(record.render() + "\n" for record in records)
