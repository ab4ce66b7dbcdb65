from __future__ import annotations

import pytest

from gvbsim.errors import BadArgument, ParseError, UnknownDirective
from gvbsim.incapacity import Modality
from gvbsim.scenario import EventKind, parse_scenario
from gvbsim.scoring import LocationType


def test_call_line():
    events = parse_scenario("subscriber C\nsubscriber A\nat 10 call C A\n")
    call = events[-1]
    assert call.kind is EventKind.PLACE_CALL
    assert call.at == 10
    assert call.args["caller"] == "C"
    assert call.args["callee"] == "A"


def test_negative_time_rejected():
    with pytest.raises(BadArgument):
        parse_scenario("at -1 call C A\n")


def test_empty_file_gives_no_events():
    assert parse_scenario("") == []
    assert parse_scenario("\n# just a comment\n   \n") == []


def test_comments_and_inline_comments_ignored():
    events = parse_scenario("# header\nsubscriber A # trailing words\n")
    assert len(events) == 1
    assert events[0].args["id"] == "A"


def test_directives_before_first_at_apply_at_time_zero():
    events = parse_scenario("subscriber A\npolicy A t=5 G=30 N=3\n")
    assert all(e.at == 0 for e in events)


def test_directives_after_an_at_line_take_the_recent_time():
    text = "subscriber A\nsubscriber B\nat 0 call A B\nat 50 hangup A\nsubscriber Z\n"
    events = parse_scenario(text)
    assert events[-1].kind is EventKind.REGISTER_SUBSCRIBER
    assert events[-1].at == 50


def test_subscriber_options():
    (event,) = parse_scenario("subscriber C home=(1.5,-2) usual_hours=8-22 resting_hr=64 usual_moving=1\n")
    assert event.args["home"] == (1.5, -2.0)
    assert event.args["usual_hours"] == frozenset(range(8, 23))
    assert event.args["resting_hr"] == 64
    assert event.args["usual_moving"] is True


def test_usual_hours_can_wrap_midnight():
    (event,) = parse_scenario("subscriber N usual_hours=22-3\n")
    assert event.args["usual_hours"] == frozenset({22, 23, 0, 1, 2, 3})


def test_policy_line():
    (event,) = parse_scenario("policy A t=5 G=30 N=3 approve=C,D\n")
    policy = event.args["policy"]
    assert policy.callee == "A"
    assert policy.burst_seconds_t == 5
    assert policy.gap_seconds_g == 30
    assert policy.max_bursts_n == 3
    assert policy.approved_callers == frozenset({"C", "D"})


def test_policy_validation_is_a_parse_error():
    with pytest.raises(BadArgument):
        parse_scenario("policy A t=0 G=30 N=3\n")
    with pytest.raises(BadArgument):
        parse_scenario("policy A t=5 G=30\n")  # N missing


def test_weights_and_thresholds():
    events = parse_scenario("weights 1,2,0.5,0\nthresholds 0.9,0.6,0.3\n")
    weights = events[0].args["weights"]
    assert weights.as_tuple() == (1.0, 2.0, 0.5, 0.0)
    thresholds = events[1].args["thresholds"]
    assert (thresholds.theta_connect, thresholds.theta_voice, thresholds.theta_text) == (
        0.9,
        0.6,
        0.3,
    )


def test_invalid_weights_and_thresholds_rejected():
    with pytest.raises(BadArgument):
        parse_scenario("weights 0,0,0,0\n")
    with pytest.raises(BadArgument):
        parse_scenario("weights 1,2,3\n")
    with pytest.raises(BadArgument):
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
    with pytest.raises(BadArgument, match="finite"):
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
    with pytest.raises(BadArgument):
        parse_scenario("at 5 call C A hour=24\n")
    with pytest.raises(BadArgument):
        parse_scenario("at 5 call C A hr=500\n")
    with pytest.raises(BadArgument):
        parse_scenario("at 5 call C A loctype=castle\n")


def test_burst_with_quoted_transcript():
    (event,) = parse_scenario('at 12 burst C transcript="I can\'t speak now" keywords="House Fire"\n')
    assert event.kind is EventKind.BURST_ATTEMPT
    assert event.args["transcript"] == "I can't speak now"
    assert event.args["keywords"] == "House Fire"
    assert event.args["silence"] is False


def test_silent_burst():
    (event,) = parse_scenario('at 12 burst C silence image="smoke in kitchen"\n')
    assert event.args["silence"] is True
    assert event.args["transcript"] is None
    assert event.args["image"] == "smoke in kitchen"


def test_burst_requires_a_mode():
    with pytest.raises(BadArgument):
        parse_scenario('at 12 burst C keywords="x"\n')
    with pytest.raises(BadArgument):
        parse_scenario('at 12 burst C transcript=""\n')


def test_media_line():
    (event,) = parse_scenario('at 20 media C video="person collapsed on floor"\n')
    assert event.kind is EventKind.MEDIA_DESCRIPTION
    assert event.args["modality"] is Modality.VIDEO_DESCRIPTION
    assert event.args["description"] == "person collapsed on floor"


def test_hangup_answer_dismiss():
    events = parse_scenario("at 1 hangup A\nat 2 answer B\nat 3 dismiss A\n")
    assert [e.kind for e in events] == [EventKind.HANG_UP, EventKind.ANSWER, EventKind.DISMISS]
    assert events[1].args["id"] == "B"


def test_unknown_directive():
    with pytest.raises(UnknownDirective):
        parse_scenario("launch missiles\n")
    with pytest.raises(UnknownDirective):
        parse_scenario("at 5 teleport C\n")


def test_unknown_option_is_a_bad_argument():
    with pytest.raises(BadArgument):
        parse_scenario("subscriber A age=9\n")


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
    with pytest.raises(BadArgument):
        parse_scenario("at 5 policy A t=5 G=30 N=3\n")


def test_events_keep_file_order_and_line_numbers():
    text = "subscriber A\nsubscriber B\nat 7 call A B\nat 7 hangup A\n"
    events = parse_scenario(text)
    assert [e.line_no for e in events] == [1, 2, 3, 4]
    assert sorted(events, key=lambda e: e.sort_key()) == events
