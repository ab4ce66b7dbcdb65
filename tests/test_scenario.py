from __future__ import annotations

import itertools
import shlex

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbsim.errors import ParseError
from gvbsim.incapacity import Modality
from gvbsim.scenario import (
    _LINE_BREAK_CHARS,
    DIRECTIVES,
    _parse_burst_options,
    _split_kv,
    _split_line,
    parse_scenario,
)
from gvbsim.scoring import LocationType


def test_call_line():
    events = parse_scenario("subscriber C\nsubscriber A\nat 10 call C A\n")
    call = events[-1]
    assert call.kind == "call"
    assert call.at == 10
    assert call.args["caller"] == "C"
    assert call.args["callee"] == "A"


def test_negative_time_rejected():
    with pytest.raises(ParseError, match="event time must be >= 0, got -1"):
        parse_scenario("at -1 call C A\n")


def test_empty_file_gives_no_events():
    assert parse_scenario("") == []
    assert parse_scenario("\n# just a comment\n   \n") == []


def test_comments_and_inline_comments_ignored():
    events = parse_scenario("# header\nsubscriber A # trailing words\n")
    assert len(events) == 1
    assert events[0].args["sub_id"] == "A"


def test_directives_before_first_at_apply_at_time_zero():
    events = parse_scenario("subscriber A\npolicy A t=5 G=30 N=3\n")
    assert all(e.at == 0 for e in events)


def test_directives_after_an_at_line_take_the_recent_time():
    text = "subscriber A\nsubscriber B\nat 0 call A B\nat 50 hangup A\nsubscriber Z\n"
    events = parse_scenario(text)
    assert events[-1].kind == "subscriber"
    assert events[-1].at == 50


def test_subscriber_options():
    (event,) = parse_scenario("subscriber C home=(1.5,-2) usual_hours=8-22 resting_hr=64 usual_moving=1\n")
    assert event.args["home"] == (1.5, -2.0)
    profile = event.args["profile"]
    assert profile.usual_locations == frozenset({(1.5, -2.0)})
    assert profile.usual_hours == frozenset(range(8, 23))
    assert profile.resting_heart_rate == 64
    assert profile.usual_moving is True


def test_usual_hours_can_wrap_midnight():
    (event,) = parse_scenario("subscriber N usual_hours=22-3\n")
    assert event.args["profile"].usual_hours == frozenset({22, 23, 0, 1, 2, 3})


@pytest.mark.parametrize("resting_hr", ["500", "10"])
def test_a_resting_heart_rate_out_of_range_is_a_parse_error(resting_hr):
    message = rf"line 2: resting_heart_rate must be in \[30, 120\], got {resting_hr}"
    with pytest.raises(ParseError, match=message):
        parse_scenario(f"subscriber A\nsubscriber B resting_hr={resting_hr}\n")


def test_policy_line():
    (event,) = parse_scenario("policy A t=5 G=30 N=3 approve=C,D\n")
    policy = event.args["policy"]
    assert policy.callee == "A"
    assert policy.burst_seconds_t == 5
    assert policy.gap_seconds_g == 30
    assert policy.max_bursts_n == 3
    assert policy.approved_callers == frozenset({"C", "D"})


def test_policy_validation_is_a_parse_error():
    with pytest.raises(ParseError, match="burst duration must be >= 1s, got 0"):
        parse_scenario("policy A t=0 G=30 N=3\n")
    with pytest.raises(ParseError, match="policy requires N"):
        parse_scenario("policy A t=5 G=30\n")  # N missing


def test_weights_and_thresholds():
    events = parse_scenario("weights 1,2,0.5,0\nthresholds 0.9,0.6,0.3\n")
    weights = events[0].args["weights"]
    assert tuple(weights) == (1.0, 2.0, 0.5, 0.0)
    thresholds = events[1].args["thresholds"]
    assert (thresholds.theta_connect, thresholds.theta_voice, thresholds.theta_text) == (
        0.9,
        0.6,
        0.3,
    )


def test_invalid_weights_and_thresholds_rejected():
    with pytest.raises(ParseError, match="at least one weight must be positive"):
        parse_scenario("weights 0,0,0,0\n")
    with pytest.raises(ParseError, match="weights requires 4 comma-separated numbers"):
        parse_scenario("weights 1,2,3\n")
    with pytest.raises(ParseError, match="thresholds must satisfy 0 < text < voice < connect"):
        parse_scenario("thresholds 0.3,0.6,0.9\n")


@pytest.mark.parametrize(
    "line",
    [
        "weights nan,1,1,1",
        "weights 1,inf,1,1",
        "thresholds 0.9,nan,0.3",
        "subscriber A home=(nan,0)",
        "at 5 call C A loc=(0,-inf)",
        "at 5 call C A speed=nan",
        "at 5 call C A hr=nan",
    ],
)
def test_non_finite_numbers_are_bad_arguments(line: str):
    with pytest.raises(ParseError, match="finite"):
        parse_scenario(line + "\n")


def test_call_context_options():
    (event,) = parse_scenario("at 5 call C A loc=(40,9) loctype=highway hour=3 hr=130 speed=14\n")
    ctx = event.args["context"]
    assert ctx.location == (40.0, 9.0)
    assert ctx.location_type is LocationType.HIGHWAY
    assert ctx.hour_of_day == 3
    assert ctx.heart_rate == 130
    assert ctx.moving_speed == 14


def test_call_context_validation():
    with pytest.raises(ParseError, match="hour_of_day must be in 0..23, got 24"):
        parse_scenario("at 5 call C A hour=24\n")
    with pytest.raises(ParseError, match="heart_rate must be in .20, 250., got 500"):
        parse_scenario("at 5 call C A hr=500\n")
    with pytest.raises(ParseError, match="loctype must be one of"):
        parse_scenario("at 5 call C A loctype=castle\n")


def test_burst_with_quoted_transcript():
    (event,) = parse_scenario('at 12 burst C transcript="I can\'t speak now" keywords="House Fire"\n')
    assert event.kind == "burst"
    assert event.args["transcript"] == "I can't speak now"
    assert event.args["keywords"] == "House Fire"
    assert event.args["transcript"] is not None


def test_silent_burst():
    (event,) = parse_scenario('at 12 burst C silence image="smoke in kitchen"\n')
    assert event.args["transcript"] is None
    assert event.args["image"] == "smoke in kitchen"


def test_burst_requires_a_mode():
    with pytest.raises(ParseError, match="burst needs transcript=.* or silence first"):
        parse_scenario('at 12 burst C keywords="x"\n')
    with pytest.raises(ParseError, match="transcript must be non-empty"):
        parse_scenario('at 12 burst C transcript=""\n')


@pytest.mark.parametrize("key", ["keywords", "image"])
def test_an_empty_burst_option_is_a_parse_error(key: str):
    with pytest.raises(ParseError, match=f"{key} must be non-empty") as exc:
        parse_scenario(f'subscriber C\nat 2 burst C silence {key}=""\n')
    assert exc.value.line_no == 2


def test_media_line():
    (event,) = parse_scenario('at 20 media C video="person collapsed on floor"\n')
    assert event.kind == "media"
    assert event.args["modality"] is Modality.VIDEO_DESCRIPTION
    assert event.args["description"] == "person collapsed on floor"


def test_hangup_answer_dismiss():
    events = parse_scenario("at 1 hangup A\nat 2 answer B\nat 3 dismiss A\n")
    assert [e.kind for e in events] == ["hangup", "answer", "dismiss"]
    assert events[1].args["sub_id"] == "B"


def test_unknown_directive():
    with pytest.raises(ParseError, match="unknown directive 'launch'"):
        parse_scenario("launch missiles\n")
    with pytest.raises(ParseError, match="unknown directive 'teleport'"):
        parse_scenario("at 5 teleport C\n")


def test_unknown_option_is_a_bad_argument():
    with pytest.raises(ParseError, match="unknown subscriber option 'age'"):
        parse_scenario("subscriber A age=9\n")


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("subscriber", "subscriber requires an id"),
        ("policy", "policy requires a callee id"),
        ("policy A t=5 G=1 N=1 bogus=1", "unknown policy option 'bogus'"),
        ("at 1 burst", "burst requires <caller> and transcript=... or silence"),
        ("at 1 burst C", "burst requires <caller> and transcript=... or silence"),
        ('at 1 media A image=""', "media description must be non-empty"),
    ],
    ids=["bare_subscriber", "bare_policy", "policy_option", "bare_burst", "burst_mode", "media_text"],
)
def test_a_missing_argument_or_an_unknown_option_is_a_parse_error(line: str, message: str):
    # a bare head must not escape as an IndexError, nor an unknown policy
    # option pass as no option at all
    with pytest.raises(ParseError) as error:
        parse_scenario(line + "\n")
    assert error.value.message == message


@pytest.mark.parametrize(
    "line, key",
    [
        ("subscriber A resting_hr=60 resting_hr=90", "resting_hr"),
        ("subscriber B home=(1,1) home=(5,5)", "home"),
        ("policy A t=5 t=9 G=0 N=1", "t"),
        ("at 5 call C A hour=3 loc=(0,0) hour=4", "hour"),
        ('at 5 burst C silence keywords="fire" keywords="smoke"', "keywords"),
    ],
)
def test_a_repeated_option_is_a_parse_error(line: str, key: str):
    with pytest.raises(ParseError, match=f"option '{key}' given twice"):
        parse_scenario(line + "\n")


@pytest.mark.parametrize(
    "line, repeated, malformed",
    [
        ("at 5 call C A {}", "hour=3 hour=4", "speed"),
        ("subscriber C {}", "resting_hr=60 resting_hr=90", "home"),
        ("policy A {} N=1", "t=5 t=9", "G"),
        ("at 5 burst C silence {}", 'keywords="fire" keywords="smoke"', "image"),
    ],
)
def test_option_errors_come_in_the_order_of_the_tokens(line: str, repeated: str, malformed: str):
    key = repeated.partition("=")[0]
    with pytest.raises(ParseError, match=f"option '{key}' given twice"):
        parse_scenario(line.format(f"{repeated} {malformed}") + "\n")
    with pytest.raises(ParseError, match=f"expected key=value, got '{malformed}'"):
        parse_scenario(line.format(f"{malformed} {repeated}") + "\n")


def _reference_burst_options(tokens: list[str]) -> dict:
    """The burst options as read when the burst rule kept its own check
    for a repeated key."""
    args = {"transcript": None, "keywords": None, "image": None}
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
        if args[key] is not None:
            raise ValueError(f"option {key!r} given twice")
        if not value:
            raise ValueError(f"{key} must be non-empty")
        args[key] = value
    return args


_BURST_TOKENS = (
    "silence", "transcript=hi", "transcript=", "keywords=a", "keywords=b", "keywords=",
    "image=x", "image=", "bogus=1", "bare", "transcript=x", "=v",
)


def _outcome(read, tokens: list[str]) -> object:
    try:
        return read(tokens)
    except ValueError as exc:
        return str(exc)


def test_burst_options_use_the_shared_repeated_key_rule():
    # every token list of length 0-4 drawn from the pool: the same options
    # or the same message as the burst rule's own check gave
    lists = [list(t) for n in range(5) for t in itertools.product(_BURST_TOKENS, repeat=n)]
    assert len(lists) == 22621
    for tokens in lists:
        assert _outcome(_parse_burst_options, tokens) == _outcome(_reference_burst_options, tokens), tokens


def test_parse_errors_carry_the_line_number():
    try:
        parse_scenario("subscriber A\nat x call C A\n")
    except ParseError as exc:
        assert exc.line_no == 2
    else:
        pytest.fail("expected a ParseError")


def test_unbalanced_quote_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_scenario('at 1 burst C transcript="oops\n')


def test_directive_with_at_prefix_rejected():
    with pytest.raises(ParseError, match="policy is a directive, not an at-event"):
        parse_scenario("at 5 policy A t=5 G=30 N=3\n")


def test_at_times_never_go_back_and_equal_times_keep_file_order():
    text = "subscriber A\nsubscriber B\nat 7 call A B\nat 7 hangup A\n"
    events = parse_scenario(text)
    assert [(e.at, e.line_no, e.kind) for e in events] == [
        (0, 1, "subscriber"), (0, 2, "subscriber"), (7, 3, "call"), (7, 4, "hangup"),
    ]
    with pytest.raises(ParseError) as error:
        parse_scenario("at 7 call A B\nat 4 hangup A\n")
    assert (error.value.line_no, error.value.message) == (
        2, "event time must not go back, got 4 after 7"
    )
    # a directive without `at` takes the latest time, whatever came before it
    events = parse_scenario("at 7 call A B\npolicy B t=5 G=0 N=1\nat 7 hangup A\n")
    assert [(e.at, e.kind) for e in events] == [(7, "call"), (7, "policy"), (7, "hangup")]


def _outcome(split, line: str) -> list[str] | str:
    try:
        return split(line)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _shlex_split(line: str) -> list[str]:
    return shlex.split(line, comments=True, posix=True)


_QUOTING_CHARS = st.sampled_from(["\"", "'", "\\", "#", " ", "\t", "=", ",", "(", "\xa0", "a"])


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(st.one_of(_QUOTING_CHARS, st.characters())), st.text()))
@example(" a\t b  c\t")  # no quote: split at spaces and tabs
@example("a\x0bb\x1fc\xa0d\re\nf")  # \r and \n separate too, other whitespace does not
@example('a"b c"d')  # adjacent quoted and bare pieces join
@example('x="" y')  # an empty token
@example('k="a\tb\xa0c" d')  # a tab and a no-break space inside quotes
@example('k="a # b" c')  # a `#` inside double quotes starts no comment
@example('k="a b" c"d')  # an odd number of `"`: no closing quotation
@example("a#b c")  # a comment may start mid-word
@example("a\xa0b\tc")  # only space and tab separate
@example(r'"a\"b\\c\d" e\ f')  # escapes inside and outside double quotes
@example(r"'a\'b")  # no escapes inside single quotes
@example('k="ab\\')  # unclosed double quote ending in a lone backslash
@example('k="ab\\\\')  # ... and in an escaped one
@example("k=v \\")
def test_tokenizer_matches_shlex(line: str):
    assert _outcome(_split_line, line) == _outcome(_shlex_split, line)


# Lines with no `\` or `#`: only these can take the tokenizer's own paths,
# so most draws here check them against shlex, not shlex against itself.
_FAST_PATH_CHARS = st.sampled_from(["\"", "'", " ", "\t", "\r", "\n", "\xa0", "=", "a", "k"])


@settings(max_examples=1000, deadline=None)
@given(st.text(st.one_of(_FAST_PATH_CHARS, st.characters(categories=["L"]))))
@example('k="can\'t speak" x')  # every `'` inside double quotes: split here
@example("k=can't")  # a bare `'`: shlex reports no closing quotation
@example("'a' \"b'c\"")  # a single-quoted piece goes to shlex
@example('k="a\'b" c"d')  # an odd number of `"`: no closing quotation
def test_the_tokenizers_own_paths_match_shlex(line: str):
    assert _outcome(_split_line, line) == _outcome(_shlex_split, line)


@pytest.mark.parametrize(
    ("text", "line_no"),
    [
        ("subscriber A\x0cbogus", 1),
        ("subscriber A\nsubscriber B\x0bC", 2),
        ("subscriber A\n# note\u2028more\n", 2),
        ('subscriber A\nat 1 burst A transcript="a\x85b"\n', 2),
        ("subscriber A\rsubscriber B\n", 1),
        ("subscriber A\r\r\nsubscriber B\n", 1),
        ("subscriber A\nsubscriber B\x1cC\n", 2),
        ("subscriber A\x1dB\n", 1),
        ("subscriber A\n\nsubscriber B\x1e\n", 3),
        ("# one\n# two\nsubscriber A\u2029\n", 3),
    ],
)
def test_other_line_breaks_are_bad_arguments_on_their_real_line(text: str, line_no: int):
    with pytest.raises(ParseError, match="line break") as info:
        parse_scenario(text)
    assert info.value.line_no == line_no


def test_the_line_break_characters_are_the_ones_splitlines_breaks_at():
    every_char = "".join(map(chr, range(0x110000)))
    kept, bare = every_char.splitlines(keepends=True), every_char.splitlines()
    breaks = {line[len(text):] for line, text in zip(kept, bare)} - {""}
    assert breaks == set(_LINE_BREAK_CHARS) | {"\n"}


def test_crlf_and_a_final_carriage_return_end_lines():
    lf = parse_scenario("subscriber A\nsubscriber B\n")
    assert parse_scenario("subscriber A\r\nsubscriber B\r\n") == lf
    assert parse_scenario("subscriber A\r\nsubscriber B\r") == lf
    with pytest.raises(ParseError, match="No escaped character"):
        parse_scenario("subscriber A\\\r\n")  # the \r is dropped, not escaped


# Well-formed arguments for each directive head, one default value per {}
# slot.  The head is a slot too, and an `at {}` slot leads the line where
# DIRECTIVES lets an `at` line carry the head.
_TEMPLATES = {
    "subscriber": ("{} home={} usual_hours={} resting_hr={} usual_moving={}",
                   ["A", "(1,2)", "8-22", "70", "0"]),
    "policy": ("{} t={} G={} N={} approve={}", ["A", "5", "30", "3", "B"]),
    "weights": ("{}", ["1,1,1,1"]),
    "thresholds": ("{}", ["0.9,0.6,0.3"]),
    "call": ("A B loc={} loctype={} hour={} hr={} speed={}",
             ["(1,2)", "highway", "3", "130", "14"]),
    "burst": ("{} {} keywords={} image={}", ["A", 'transcript="help me"', "fire", "smoke"]),
    "media": ("{} {}={}", ["A", "image", '"smoke"']),
    "hangup": ("{}", ["A"]),
    "answer": ("{}", ["A"]),
    "dismiss": ("{}", ["A"]),
}
# What a slot may hold instead: hostile numbers, points and lists, words
# that belong in other slots, every head and `at`, and quoting.
_FRAGMENTS = [
    "", "0", "-1", "-7", "24", "500", "2.5", "nan", "1e309", "9" * 30, "-" + "9" * 30,
    "(nan,0)", "(1)", "0,0,0,0", "1,-1,1,1", "0.3,0.6,0.9", "25-3", "castle", "silence", "x=y",
    '"two words"', '"a\\"b"', "A\\ B", '"unclosed', "'", "\\", "#", "at", *DIRECTIVES,
]


@st.composite
def _scenario_lines(draw) -> str:
    head = draw(st.sampled_from(list(_TEMPLATES)))
    template, defaults = _TEMPLATES[head]
    template, values, head_words = "{} " + template, [head, *defaults], 1
    if DIRECTIVES[head].takes_at and draw(st.booleans()):
        template, values, head_words = "at {} " + template, ["1", *values], 3
    if not draw(st.integers(0, 4)):  # now and then the line stops early, down to a bare head
        words = template.split(" ")
        template = " ".join(words[: draw(st.integers(head_words, len(words) - 1))])
        values = values[: template.count("{}")]
    for slot in draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
        values[slot] = draw(st.sampled_from(_FRAGMENTS))
    return template.format(*values)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_scenario_lines(), max_size=8))
@example(["subscriber"])
@example(["policy"])
@example(["at 1 burst"])
def test_scenario_text_parses_or_raises_a_parse_error(lines: list[str]):
    # Parsing stops at the first bad line, so each line is also parsed alone.
    for text in ["\n".join(lines), *lines]:
        try:
            parse_scenario(text)
        except ParseError:
            pass
