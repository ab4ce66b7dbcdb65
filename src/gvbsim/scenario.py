"""Line-oriented scenario grammar and its parser.

    # comment
    subscriber <id> [home=(x,y)] [usual_hours=<a>-<b>] [resting_hr=<int>] [usual_moving=<0|1>]
    policy <callee> t=<s> G=<s> N=<n> [approve=<id>[,<id>...]]
    weights <wl>,<wt>,<wh>,<wa>
    thresholds <connect>,<voice>,<text>
    at <sec> call <caller> <callee> [loc=(x,y)] [loctype=<type>] [hour=<0-23>] [hr=<int>] [speed=<m/s>]
    at <sec> burst <caller> (transcript="<text>" | silence) [keywords="<text>"] [image="<text>"]
    at <sec> media <caller> (image|video|gesture)="<text>"
    at <sec> hangup <id>
    at <sec> answer <id>
    at <sec> dismiss <callee>

Tokens are whitespace-separated; double quotes allow embedded spaces.
Directives without an `at` prefix take effect at the most recent event
time (time 0 before the first `at` line).  An `usual_hours` range may
wrap midnight (e.g. 22-3).
"""
from __future__ import annotations

import math
import shlex
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from .errors import BadArgument, InvalidPolicy, ParseError, UnknownDirective, ZeroWeights
from .incapacity import Modality
from .policy import BurstPolicy
from .scoring import CallerContext, FactorWeights, LocationType, TierThresholds


class EventKind(Enum):
    REGISTER_SUBSCRIBER = "register_subscriber"
    SET_POLICY = "set_policy"
    SET_WEIGHTS = "set_weights"
    SET_THRESHOLDS = "set_thresholds"
    PLACE_CALL = "place_call"
    HANG_UP = "hang_up"
    ANSWER = "answer"
    BURST_ATTEMPT = "burst_attempt"
    MEDIA_DESCRIPTION = "media_description"
    DISMISS = "dismiss"


@dataclass(frozen=True)
class SimEvent:
    at: int
    line_no: int
    kind: EventKind
    args: dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> tuple[int, int]:
        return (self.at, self.line_no)


def _split_kv(token: str, line_no: int) -> tuple[str, str]:
    if "=" not in token:
        raise BadArgument(line_no, f"expected key=value, got {token!r}")
    key, _, value = token.partition("=")
    return key, value


def _parse_int(value: str, line_no: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise BadArgument(line_no, f"{what} must be an integer, got {value!r}") from None


def _parse_float(value: str, line_no: int, what: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise BadArgument(line_no, f"{what} must be a finite number, got {value!r}")
    return number


def _parse_point(value: str, line_no: int) -> tuple[float, float]:
    raw = value.strip()
    if not (raw.startswith("(") and raw.endswith(")")):
        raise BadArgument(line_no, f"expected (x,y), got {value!r}")
    parts = raw[1:-1].split(",")
    if len(parts) != 2:
        raise BadArgument(line_no, f"expected (x,y), got {value!r}")
    return (
        _parse_float(parts[0], line_no, "x coordinate"),
        _parse_float(parts[1], line_no, "y coordinate"),
    )


def _parse_hours(value: str, line_no: int) -> frozenset[int]:
    parts = value.split("-")
    if len(parts) != 2:
        raise BadArgument(line_no, f"usual_hours must be <a>-<b>, got {value!r}")
    lo = _parse_int(parts[0], line_no, "usual_hours start")
    hi = _parse_int(parts[1], line_no, "usual_hours end")
    if not (0 <= lo <= 23 and 0 <= hi <= 23):
        raise BadArgument(line_no, f"usual_hours must be within 0..23, got {value!r}")
    if lo <= hi:
        return frozenset(range(lo, hi + 1))
    return frozenset(range(lo, 24)) | frozenset(range(0, hi + 1))  # wraps midnight


def _parse_bool(value: str, line_no: int, what: str) -> bool:
    if value in ("0", "1"):
        return value == "1"
    raise BadArgument(line_no, f"{what} must be 0 or 1, got {value!r}")


def _parse_subscriber(tokens: list[str], line_no: int) -> dict[str, Any]:
    if not tokens:
        raise BadArgument(line_no, "subscriber requires an id")
    args: dict[str, Any] = {
        "id": tokens[0],
        "home": None,
        "usual_hours": frozenset(range(24)),
        "usual_hours_label": "0-23",
        "resting_hr": 70,
        "usual_moving": False,
    }
    for token in tokens[1:]:
        key, value = _split_kv(token, line_no)
        if key == "home":
            args["home"] = _parse_point(value, line_no)
        elif key == "usual_hours":
            args["usual_hours"] = _parse_hours(value, line_no)
            args["usual_hours_label"] = value
        elif key == "resting_hr":
            args["resting_hr"] = _parse_int(value, line_no, "resting_hr")
        elif key == "usual_moving":
            args["usual_moving"] = _parse_bool(value, line_no, "usual_moving")
        else:
            raise BadArgument(line_no, f"unknown subscriber option {key!r}")
    return args


def _parse_policy(tokens: list[str], line_no: int) -> dict[str, Any]:
    if not tokens:
        raise BadArgument(line_no, "policy requires a callee id")
    callee = tokens[0]
    fields: dict[str, Any] = {"t": None, "G": None, "N": None, "approve": frozenset()}
    for token in tokens[1:]:
        key, value = _split_kv(token, line_no)
        if key in ("t", "G", "N"):
            fields[key] = _parse_int(value, line_no, key)
        elif key == "approve":
            ids = [s for s in value.split(",") if s]
            fields["approve"] = frozenset(ids)
        else:
            raise BadArgument(line_no, f"unknown policy option {key!r}")
    missing = [k for k in ("t", "G", "N") if fields[k] is None]
    if missing:
        raise BadArgument(line_no, f"policy requires {', '.join(missing)}")
    try:
        policy = BurstPolicy(
            callee=callee,
            burst_seconds_t=fields["t"],
            gap_seconds_g=fields["G"],
            max_bursts_n=fields["N"],
            approved_callers=fields["approve"],
        )
    except InvalidPolicy as exc:
        raise BadArgument(line_no, str(exc)) from None
    return {"policy": policy}


def _parse_csv_floats(value: str, line_no: int, what: str, count: int) -> list[float]:
    parts = value.split(",")
    if len(parts) != count:
        raise BadArgument(line_no, f"{what} requires {count} comma-separated numbers")
    return [_parse_float(p, line_no, what) for p in parts]


def _parse_call(tokens: list[str], line_no: int) -> dict[str, Any]:
    if len(tokens) < 2:
        raise BadArgument(line_no, "call requires <caller> <callee>")
    caller, callee = tokens[0], tokens[1]
    ctx_kwargs: dict[str, Any] = {}
    for token in tokens[2:]:
        key, value = _split_kv(token, line_no)
        if key == "loc":
            ctx_kwargs["location"] = _parse_point(value, line_no)
        elif key == "loctype":
            try:
                ctx_kwargs["location_type"] = LocationType(value.lower())
            except ValueError:
                names = ", ".join(t.value for t in LocationType)
                raise BadArgument(line_no, f"loctype must be one of {names}") from None
        elif key == "hour":
            ctx_kwargs["hour_of_day"] = _parse_int(value, line_no, "hour")
        elif key == "hr":
            ctx_kwargs["heart_rate"] = _parse_float(value, line_no, "hr")
        elif key == "speed":
            ctx_kwargs["moving_speed"] = _parse_float(value, line_no, "speed")
        else:
            raise BadArgument(line_no, f"unknown call option {key!r}")
    try:
        context = CallerContext(**ctx_kwargs)
    except ValueError as exc:
        raise BadArgument(line_no, str(exc)) from None
    return {"caller": caller, "callee": callee, "context": context}


def _parse_burst(tokens: list[str], line_no: int) -> dict[str, Any]:
    if len(tokens) < 2:
        raise BadArgument(line_no, "burst requires <caller> and transcript=... or silence")
    args: dict[str, Any] = {
        "caller": tokens[0],
        "transcript": None,
        "silence": False,
        "keywords": None,
        "image": None,
    }
    mode = tokens[1]
    if mode == "silence":
        args["silence"] = True
    else:
        key, value = _split_kv(mode, line_no)
        if key != "transcript":
            raise BadArgument(line_no, "burst needs transcript=\"...\" or silence first")
        if not value:
            raise BadArgument(line_no, "transcript must be non-empty; use silence instead")
        args["transcript"] = value
    for token in tokens[2:]:
        key, value = _split_kv(token, line_no)
        if key in ("keywords", "image"):
            args[key] = value
        else:
            raise BadArgument(line_no, f"unknown burst option {key!r}")
    return args


_MEDIA_KEYS = {
    "image": Modality.IMAGE_DESCRIPTION,
    "video": Modality.VIDEO_DESCRIPTION,
    "gesture": Modality.GESTURE,
}


def _parse_media(tokens: list[str], line_no: int) -> dict[str, Any]:
    if len(tokens) != 2:
        raise BadArgument(line_no, "media requires <caller> and one image|video|gesture=\"...\"")
    key, value = _split_kv(tokens[1], line_no)
    if key not in _MEDIA_KEYS:
        raise BadArgument(line_no, f"media kind must be image, video, or gesture, got {key!r}")
    if not value:
        raise BadArgument(line_no, "media description must be non-empty")
    return {"caller": tokens[0], "modality": _MEDIA_KEYS[key], "description": value}


def _parse_single_id(tokens: list[str], line_no: int, directive: str) -> dict[str, Any]:
    if len(tokens) != 1:
        raise BadArgument(line_no, f"{directive} requires exactly one subscriber id")
    return {"id": tokens[0]}


def parse_scenario(text: str) -> list[SimEvent]:
    """Parse scenario text into events, in file order.

    Raises ParseError (UnknownDirective / BadArgument) with the offending
    line number.
    """
    events: list[SimEvent] = []
    current_time = 0
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        try:
            tokens = shlex.split(raw_line, comments=True, posix=True)
        except ValueError as exc:
            raise ParseError(line_no, f"bad quoting: {exc}") from None
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        at = current_time
        if head == "at":
            if len(rest) < 2:
                raise BadArgument(line_no, "at requires a time and a directive")
            at = _parse_int(rest[0], line_no, "event time")
            if at < 0:
                raise BadArgument(line_no, f"event time must be >= 0, got {at}")
            current_time = at
            head, rest = rest[1], rest[2:]
            if head in ("subscriber", "policy", "weights", "thresholds"):
                raise BadArgument(line_no, f"{head} is a directive, not an at-event")
        if head == "subscriber":
            events.append(
                SimEvent(at, line_no, EventKind.REGISTER_SUBSCRIBER, _parse_subscriber(rest, line_no))
            )
        elif head == "policy":
            events.append(SimEvent(at, line_no, EventKind.SET_POLICY, _parse_policy(rest, line_no)))
        elif head == "weights":
            if len(rest) != 1:
                raise BadArgument(line_no, "weights requires one wl,wt,wh,wa argument")
            values = _parse_csv_floats(rest[0], line_no, "weights", 4)
            try:
                weights = FactorWeights(*values)
            except (ValueError, ZeroWeights) as exc:
                raise BadArgument(line_no, str(exc)) from None
            events.append(SimEvent(at, line_no, EventKind.SET_WEIGHTS, {"weights": weights}))
        elif head == "thresholds":
            if len(rest) != 1:
                raise BadArgument(line_no, "thresholds requires one connect,voice,text argument")
            values = _parse_csv_floats(rest[0], line_no, "thresholds", 3)
            try:
                thresholds = TierThresholds(*values)
            except ValueError as exc:
                raise BadArgument(line_no, str(exc)) from None
            events.append(
                SimEvent(at, line_no, EventKind.SET_THRESHOLDS, {"thresholds": thresholds})
            )
        elif head == "call":
            events.append(SimEvent(at, line_no, EventKind.PLACE_CALL, _parse_call(rest, line_no)))
        elif head == "burst":
            events.append(SimEvent(at, line_no, EventKind.BURST_ATTEMPT, _parse_burst(rest, line_no)))
        elif head == "media":
            events.append(
                SimEvent(at, line_no, EventKind.MEDIA_DESCRIPTION, _parse_media(rest, line_no))
            )
        elif head == "hangup":
            events.append(
                SimEvent(at, line_no, EventKind.HANG_UP, _parse_single_id(rest, line_no, "hangup"))
            )
        elif head == "answer":
            events.append(
                SimEvent(at, line_no, EventKind.ANSWER, _parse_single_id(rest, line_no, "answer"))
            )
        elif head == "dismiss":
            events.append(
                SimEvent(at, line_no, EventKind.DISMISS, _parse_single_id(rest, line_no, "dismiss"))
            )
        else:
            raise UnknownDirective(line_no, f"unknown directive {head!r}")
    return events
