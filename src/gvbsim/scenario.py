r"""Line-oriented scenario grammar and its parser.

    # comment
    subscriber <id> [home=(x,y)] [usual_hours=<a>-<b>] [resting_hr=<int>] [usual_moving=<0|1>]
    policy <callee> t=<s> G=<s> N=<n> [approve=<id>[,<id>...]]
    weights <wl>,<wt>,<wh>,<wa>
    thresholds <connect>,<voice>,<text>
    at <sec> call <caller> <callee> [loc=(x,y)] [loctype=<type>] [hour=<0-23>] [hr=<bpm>] [speed=<m/s>]
    at <sec> burst <caller> (transcript="<text>" | silence) [keywords="<text>"] [image="<text>"]
    at <sec> media <caller> (image|video|gesture)="<text>"
    at <sec> hangup <id>
    at <sec> answer <id>
    at <sec> dismiss <callee>

Lines end at `\n`; one `\r` before it is dropped, and any other
character that `str.splitlines` treats as a line break is an error.
Tokens follow POSIX shell quoting, as `shlex.split(line, comments=True)`
does: only space and tab separate tokens; `"..."` and `'...'` keep
spaces, and adjacent quoted and bare pieces join into one token (`""` is
an empty token); a backslash outside quotes takes the next character
literally, and inside double quotes it escapes only `"` and `\`; `#`
outside quotes starts a comment, also in the middle of a word.  `shlex`
itself splits a line that holds a backslash, a `#`, an unpaired `"` or a
`'` outside double quotes; every other line has nothing to unescape and
is split here, so the CLI seldom imports `shlex`.

`DIRECTIVES` is the one list of heads: each maps to its argument parser
and to whether an `at` line may carry it.  A parser returns the fields
that `Simulation` passes to the head's handler as keyword arguments.  The
media kinds are the values of `incapacity.MEDIA_MODALITIES`, in order.
Directives without an `at` prefix take effect at the most recent event
time (time 0 before the first `at` line).  An `at` time may not be below
the one before it, so the file is the timeline and events run in file
order.  An `usual_hours` range may wrap midnight (e.g. 22-3).

A broken grammar rule raises ValueError; `parse_scenario` alone adds the
line number, so the CLI reads its flags and the options of a `call` or
`subscriber` line (`gvbsim score`) or a `burst` line (`gvbsim gen`) by the
same rules: `_parse_context`, `_parse_profile`, `_parse_burst_options`.
"""
from __future__ import annotations

import math
import re
from functools import partial
from typing import Any, Callable, Iterator, NamedTuple

from .calls import validate_subscriber_id
from .errors import ParseError
from .incapacity import MEDIA_MODALITIES
from .policy import BurstPolicy
from .scoring import BaselineProfile, CallerContext, FactorWeights, LocationType, TierThresholds


class SimEvent(NamedTuple):
    at: int
    line_no: int
    kind: str  # the directive head
    args: dict[str, Any]


# A token of a line that holds no `\` or `#`, its `"` in pairs.
_PLAIN_TOKEN = re.compile(r'(?:[^ \t\r\n"]+|"[^"]*")+')
# A line whose every `'` sits inside a closed `"..."` piece.
_QUOTED_APOSTROPHES = re.compile(r'[^"\']*(?:"[^"]*"[^"\']*)*')
_LOCTYPES = {t.value: t for t in LocationType}
# Every character but \n that str.splitlines breaks at.  A line may end
# in \r\n, or the text in \r; any other of them is a line break that
# `_lines` rejects, and its regex runs only on a text that holds one.
_LINE_BREAK_CHARS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_OTHER_LINE_BREAK = re.compile(rf"\r(?!\n|\Z)|[{_LINE_BREAK_CHARS[1:]}]")


def _split_line(line: str) -> list[str]:
    """Split `line` into tokens exactly as shlex.split(line, comments=True)
    does, raising ValueError with shlex's message.  A line with no `\\` or
    `#`, whose `"` pair up and hold every `'`, has nothing to unescape: its
    tokens are its runs of bare characters and `"..."` pieces, quotes
    dropped.  Every other line (an escape, a comment, a `'...'` piece, an
    unclosed quote) goes to shlex itself; scenario files seldom hold one, so
    shlex is imported only then and `import gvbsim.cli` does not load it."""
    if "\\" not in line and "#" not in line:
        if "'" not in line and '"' not in line and "\r" not in line and "\n" not in line:
            # faster than a regex
            return [token for token in line.replace("\t", " ").split(" ") if token]
        if not line.count('"') % 2 and ("'" not in line or _QUOTED_APOSTROPHES.fullmatch(line)):
            return [raw.replace('"', "") for raw in _PLAIN_TOKEN.findall(line)]
    import shlex

    return shlex.split(line, comments=True)


def _lines(text: str) -> list[str]:
    r"""Split `text` at \n, dropping a \r before it or at the very end."""
    other = any(ch in text for ch in _LINE_BREAK_CHARS) and _OTHER_LINE_BREAK.search(text)
    if other:
        line_no = text.count("\n", 0, other.start()) + 1
        raise ParseError(line_no, f"line break {other.group()!r} inside a line; lines end at \\n")
    return text.replace("\r\n", "\n").removesuffix("\r").split("\n")


def _split_kv(token: str) -> tuple[str, str]:
    if "=" not in token:
        raise ValueError(f"expected key=value, got {token!r}")
    key, _, value = token.partition("=")
    return key, value


def _options(tokens: list[str]) -> Iterator[tuple[str, str]]:
    """Each `key=value` token split in two; a key given twice is an error."""
    seen: set[str] = set()
    for token in tokens:
        key, value = _split_kv(token)
        if key in seen:
            raise ValueError(f"option {key!r} given twice")
        seen.add(key)
        yield key, value


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _parse_float(value: str, what: str) -> float:
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return number


def _parse_point(value: str) -> tuple[float, float]:
    """The point rule: `(x,y)`, two finite coordinates."""
    raw = value.strip()
    parts = raw[1:-1].split(",")
    if not (raw.startswith("(") and raw.endswith(")") and len(parts) == 2):
        raise ValueError(f"expected (x,y), got {value!r}")
    return (
        _parse_float(parts[0], "x coordinate"),
        _parse_float(parts[1], "y coordinate"),
    )


def _parse_hours(value: str) -> frozenset[int]:
    parts = value.split("-")
    if len(parts) != 2:
        raise ValueError(f"usual_hours must be <a>-<b>, got {value!r}")
    lo = _parse_int(parts[0], "usual_hours start")
    hi = _parse_int(parts[1], "usual_hours end")
    if not (0 <= lo <= 23 and 0 <= hi <= 23):
        raise ValueError(f"usual_hours must be within 0..23, got {value!r}")
    if lo <= hi:
        return frozenset(range(lo, hi + 1))
    return frozenset(range(lo, 24)) | frozenset(range(0, hi + 1))  # wraps midnight


def _parse_bool(value: str, what: str) -> bool:
    if value in ("0", "1"):
        return value == "1"
    raise ValueError(f"{what} must be 0 or 1, got {value!r}")


def _parse_profile(tokens: list[str]) -> dict[str, Any]:
    """A caller's baseline (`profile`), and the `home` and `usual_hours`
    the trace shows, from a `subscriber` line's options after its id."""
    args: dict[str, Any] = {"home": None, "usual_hours_label": "0-23"}
    fields: dict[str, Any] = {}
    for key, value in _options(tokens):
        if key == "home":
            args["home"] = _parse_point(value)
            fields["usual_locations"] = frozenset({args["home"]})
        elif key == "usual_hours":
            fields["usual_hours"] = _parse_hours(value)
            args["usual_hours_label"] = value
        elif key == "resting_hr":
            fields["resting_heart_rate"] = _parse_int(value, "resting_hr")
        elif key == "usual_moving":
            fields["usual_moving"] = _parse_bool(value, "usual_moving")
        else:
            raise ValueError(f"unknown subscriber option {key!r}")
    args["profile"] = BaselineProfile(**fields)
    return args


def _parse_subscriber(tokens: list[str]) -> dict[str, Any]:
    if not tokens:
        raise ValueError("subscriber requires an id")
    return {"sub_id": validate_subscriber_id(tokens[0]), **_parse_profile(tokens[1:])}


def _parse_policy(tokens: list[str]) -> dict[str, Any]:
    if not tokens:
        raise ValueError("policy requires a callee id")
    callee = validate_subscriber_id(tokens[0])
    fields: dict[str, Any] = {"t": None, "G": None, "N": None, "approve": frozenset()}
    for key, value in _options(tokens[1:]):
        if key in ("t", "G", "N"):
            fields[key] = _parse_int(value, key)
        elif key == "approve":
            ids = [validate_subscriber_id(s) for s in value.split(",") if s]
            fields["approve"] = frozenset(ids)
        else:
            raise ValueError(f"unknown policy option {key!r}")
    missing = [k for k in ("t", "G", "N") if fields[k] is None]
    if missing:
        raise ValueError(f"policy requires {', '.join(missing)}")
    policy = BurstPolicy(
        callee=callee,
        burst_seconds_t=fields["t"],
        gap_seconds_g=fields["G"],
        max_bursts_n=fields["N"],
        approved_callers=fields["approve"],
    )
    return {"policy": policy}


def _parse_csv_floats(value: str, what: str, count: int) -> list[float]:
    parts = value.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} requires {count} comma-separated numbers")
    return [_parse_float(p, what) for p in parts]


def _parse_weights_value(value: str) -> FactorWeights:
    return FactorWeights(*_parse_csv_floats(value, "weights", 4))


def _parse_thresholds_value(value: str) -> TierThresholds:
    return TierThresholds(*_parse_csv_floats(value, "thresholds", 3))


def _parse_weights(tokens: list[str]) -> dict[str, Any]:
    if len(tokens) != 1:
        raise ValueError("weights requires one wl,wt,wh,wa argument")
    return {"weights": _parse_weights_value(tokens[0])}


def _parse_thresholds(tokens: list[str]) -> dict[str, Any]:
    if len(tokens) != 1:
        raise ValueError("thresholds requires one connect,voice,text argument")
    return {"thresholds": _parse_thresholds_value(tokens[0])}


def _parse_loctype(value: str) -> LocationType:
    loctype = _LOCTYPES.get(value.lower())
    if loctype is None:
        raise ValueError(f"loctype must be one of {', '.join(_LOCTYPES)}")
    return loctype


def _parse_context(tokens: list[str]) -> CallerContext:
    """A caller's context from a `call` line's options, after its two ids."""
    fields: dict[str, Any] = {}
    for key, value in _options(tokens):
        if key == "loc":
            fields["location"] = _parse_point(value)
        elif key == "loctype":
            fields["location_type"] = _parse_loctype(value)
        elif key == "hour":
            fields["hour_of_day"] = _parse_int(value, "hour")
        elif key == "hr":
            fields["heart_rate"] = _parse_float(value, "hr")
        elif key == "speed":
            fields["moving_speed"] = _parse_float(value, "speed")
        else:
            raise ValueError(f"unknown call option {key!r}")
    return CallerContext(**fields)


def _parse_call(tokens: list[str]) -> dict[str, Any]:
    if len(tokens) < 2:
        raise ValueError("call requires <caller> <callee>")
    return {"caller": tokens[0], "callee": tokens[1], "context": _parse_context(tokens[2:])}


def _parse_burst_options(tokens: list[str], args: dict[str, Any] | None = None) -> dict[str, Any]:
    """The transcript (None if silent), keywords and image after a burst's
    caller, added to `args` (a new dict when None)."""
    args = {} if args is None else args
    args["transcript"] = args["keywords"] = args["image"] = None
    mode = tokens[0] if tokens else ""
    if mode != "silence":
        key, value = _split_kv(mode)
        if key != "transcript":
            raise ValueError("burst needs transcript=\"...\" or silence first")
        if not value:
            raise ValueError("transcript must be non-empty; use silence instead")
        args["transcript"] = value
    for token in tokens[1:]:
        key, value = _split_kv(token)
        if key not in ("keywords", "image"):
            raise ValueError(f"unknown burst option {key!r}")
        if args[key] is not None:  # only a non-empty value is kept
            raise ValueError(f"option {key!r} given twice")
        if not value:
            raise ValueError(f"{key} must be non-empty")
        args[key] = value
    return args


def _parse_burst(tokens: list[str]) -> dict[str, Any]:
    if len(tokens) < 2:
        raise ValueError("burst requires <caller> and transcript=... or silence")
    return _parse_burst_options(tokens[1:], {"caller": tokens[0]})


_MEDIA_KEYS = {m.value: m for m in MEDIA_MODALITIES}


def _parse_media(tokens: list[str]) -> dict[str, Any]:
    if len(tokens) != 2:
        raise ValueError(f"media requires <caller> and one {'|'.join(_MEDIA_KEYS)}=\"...\"")
    key, value = _split_kv(tokens[1])
    if key not in _MEDIA_KEYS:
        raise ValueError(f"media kind must be one of {', '.join(_MEDIA_KEYS)}, got {key!r}")
    if not value:
        raise ValueError("media description must be non-empty")
    return {"caller": tokens[0], "modality": _MEDIA_KEYS[key], "description": value}


def _parse_single_id(directive: str, tokens: list[str]) -> dict[str, Any]:
    if len(tokens) != 1:
        raise ValueError(f"{directive} requires exactly one subscriber id")
    return {"sub_id": tokens[0]}


class Directive(NamedTuple):
    parse: Callable[[list[str]], dict[str, Any]]
    takes_at: bool  # whether an `at <sec>` line may carry it


DIRECTIVES: dict[str, Directive] = {
    "subscriber": Directive(_parse_subscriber, False),
    "policy": Directive(_parse_policy, False),
    "weights": Directive(_parse_weights, False),
    "thresholds": Directive(_parse_thresholds, False),
    "call": Directive(_parse_call, True),
    "burst": Directive(_parse_burst, True),
    "media": Directive(_parse_media, True),
    "hangup": Directive(partial(_parse_single_id, "hangup"), True),
    "answer": Directive(partial(_parse_single_id, "answer"), True),
    "dismiss": Directive(partial(_parse_single_id, "dismiss"), True),
}


def parse_scenario(text: str) -> list[SimEvent]:
    """Parse scenario text into events, in file order.

    Raises ParseError with the offending line number: a grammar rule that
    a line breaks raises ValueError, and this is where it gets its line.
    """
    events: list[SimEvent] = []
    current_time = 0
    for line_no, raw_line in enumerate(_lines(text), start=1):
        try:
            tokens = _split_line(raw_line)
        except ValueError as exc:
            raise ParseError(line_no, f"bad quoting: {exc}") from None
        if not tokens:
            continue
        try:
            head, rest = tokens[0], tokens[1:]
            at_line = head == "at"
            if at_line:
                if len(rest) < 2:
                    raise ValueError("at requires a time and a directive")
                at = _parse_int(rest[0], "event time")
                if at < 0:
                    raise ValueError(f"event time must be >= 0, got {at}")
                if at < current_time:
                    raise ValueError(f"event time must not go back, got {at} after {current_time}")
                current_time = at
                head, rest = rest[1], rest[2:]
            directive = DIRECTIVES.get(head)
            if directive is None:
                raise ValueError(f"unknown directive {head!r}")
            if at_line and not directive.takes_at:
                raise ValueError(f"{head} is a directive, not an at-event")
            args = directive.parse(rest)
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        events.append(SimEvent(current_time, line_no, head, args))
    return events
