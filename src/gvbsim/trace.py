"""Deterministic trace records: one line per event, byte-exact.

Line format:

    t=<sec> seq=<n> <component> <EVENT> k1=v1 k2=v2 ...

`TRACE_EVENTS` is the schema: it maps each of the 25 events to the
component that emits it and to its keys, in the order they are written.
A key whose value is absent is left out, so a record's keys are always an
in-order subsequence of the declared ones.  Values reuse the wire
protocol's percent-encoding (space, percent, newline), so a record always
stays on one line and round-trips exactly.

`make_record` makes each line in one step from its event's template,
built once from `TRACE_EVENTS`, with the values given in schema order; a
line the template cannot make alone goes through `encode_record`, the one
per-value reference encoder.  A run holds its lines as plain `str`s, which
the cyclic GC does not track, and `Simulation.run` returns them as
`TraceRecord`s: a `TraceRecord` is its line (a `str` without the newline),
and `.at`, `.event`, `.get(key)` and the rest parse it on demand.
`render_trace` ends each line with a newline and `parse_trace` reads that
text back.  Split a trace at `\\n` only: a value may hold a raw `\\r`,
`\\x0b` or other character that `str.splitlines` also treats as a line break.
"""
from __future__ import annotations

import re

from .generation import decode_text, encode_text
from .scoring import FACTORS

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

# t=<int> seq=<int> <component> <EVENT>, then " key=value" fields.
_LINE = re.compile(r"t=[0-9]+ seq=[0-9]+ (\S+) (\S+)((?: [^ =]+=[^ ]*)*)")


def fmt_score(value: float) -> str:
    """Scores and factor values: fixed six decimals."""
    return f"{value:.6f}"


def fmt_num(value: float) -> str:
    """Configuration numbers: shortest plain rendering."""
    return f"{value:g}"


def assessment_fields(assessment) -> dict[str, str]:
    """An `EmergencyAssessment` as `ASSESSMENT` and `gvbsim score` show it."""
    fields = {name: fmt_score(value) for name, value in zip(FACTORS, assessment.factors)}
    fields["score"] = fmt_score(assessment.emergency_score)
    fields["tier"] = assessment.tier.token
    return fields


class TraceRecord(str):
    """One rendered trace line, without its newline.  The fields are read
    from the line when asked for; values come back decoded."""

    __slots__ = ()

    @property
    def at(self) -> int:
        return int(self[2 : self.index(" ")])

    @property
    def seq(self) -> int:
        return int(self.split(" ", 2)[1][4:])

    @property
    def component(self) -> str:
        return self.split(" ", 3)[2]

    @property
    def event(self) -> str:
        return self.split(" ", 4)[3]

    @property
    def details(self) -> tuple[tuple[str, str], ...]:
        """(key, raw value) pairs in written order."""
        pairs = (field.partition("=") for field in self.split(" ")[4:])
        return tuple(
            (key, decode_text(value) if "%" in value else value) for key, _, value in pairs
        )

    def get(self, key: str) -> str | None:
        """Raw (unencoded) value for `key`, or None."""
        for k, v in self.details:
            if k == key:
                return v
        return None


def encode_record(at: int, seq: int, event: str, values: tuple) -> str:
    """The line of `event` with `str(value)` for each key `TRACE_EVENTS`
    declares, the values given in that order.  A None value leaves its key
    out; only a value holding a reserved character goes through
    `encode_text`.  A wrong number of values raises TypeError.  The one
    reference encoder: `make_record` falls back to it and must match it."""
    component, keys = TRACE_EVENTS[event]
    if len(values) != len(keys):
        raise TypeError(f"{event} declares {len(keys)} trace keys, got {len(values)} values")
    line = f"t={at} seq={seq} {component} {event}"
    for key, value in zip(keys, values):
        if value is not None:
            text = str(value)
            if "%" in text or " " in text or "\n" in text:
                text = encode_text(text)
            line += f" {key}={text}"
    return line


def _template(event: str) -> tuple[str, int, int]:
    """The `%` template of an `event` line up to its last value, the
    number of values the event takes and the spaces the template holds."""
    component, keys = TRACE_EVENTS[event]
    head = "".join(f" {key}=%s" for key in keys[:-1])
    template = f"t=%s seq=%s {component} {event}{head} {keys[-1]}="
    return template, len(keys), template.count(" ")


_TEMPLATES = {event: _template(event) for event in TRACE_EVENTS}


def make_record(at: int, seq: int, event: str, values: tuple) -> str:
    """The line `encode_record` makes, in one step from the event's
    template when it can be: every value present, and no head value
    holding a reserved character, a space or the text `None` (which `%s`
    writes for a missing value).  The last value is always encoded; every
    free-text key is its event's last."""
    template, size, spaces = _TEMPLATES[event]
    if len(values) == size and (last := values[-1]) is not None:
        head = template % (at, seq, *values[:-1])
        if head.count(" ") == spaces and "None" not in head and "%" not in head and "\n" not in head:
            return head + encode_text(str(last))
    return encode_record(at, seq, event, values)


def render_trace(records: list[str]) -> str:
    """The trace text: each record followed by a newline, joined once."""
    return "\n".join([*records, ""])


def _is_record(line: str) -> bool:
    match = _LINE.fullmatch(line)
    if match is None or match[2] not in TRACE_EVENTS:
        return False
    component, keys = TRACE_EVENTS[match[2]]
    declared = iter(keys)  # `in` consumes it, so keys must come in declared order
    fields = match[3].split(" ")[1:]
    return match[1] == component and all(field.partition("=")[0] in declared for field in fields)


def parse_trace(text: str) -> list[TraceRecord]:
    """Read `render_trace` output back into records, splitting at `\\n`
    only.  Raises ValueError for a line that is not a record of a
    `TRACE_EVENTS` event with its component and keys in declared order."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    for number, line in enumerate(lines, 1):
        if not _is_record(line):
            raise ValueError(f"trace line {number} is not a record: {line!r}")
    return [TraceRecord(line) for line in lines]
