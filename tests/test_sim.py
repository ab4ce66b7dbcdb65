from __future__ import annotations

import collections
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvbsim import generation
from gvbsim.calls import RoutingReason
from gvbsim.errors import ExternalGeneratorError, ParseError, SimError
from gvbsim.generation import ExternalBackend
from gvbsim.incapacity import Modality
from gvbsim.scenario import parse_scenario
from gvbsim.scheduler import DenyReason
from gvbsim.sim import RunConfig, Simulation, run, substitute
from gvbsim.trace import TraceRecord, render_trace

from .conftest import stub_command

PREAMBLE = """\
subscriber A
subscriber B
subscriber C home=(0,0) usual_hours=8-22 resting_hr=70 usual_moving=0
"""

BASELINE_CALL = "at 10 call C A loc=(0,0) loctype=home hour=9\n"
EMERGENCY_CALL = "at 10 call C A loc=(40,9) loctype=highway hour=3 hr=130 speed=14\n"


def run_text(text: str, config: RunConfig | None = None) -> list[TraceRecord]:
    return run(parse_scenario(text), config)


def events_named(records: list[TraceRecord], event: str) -> list[TraceRecord]:
    return [r for r in records if r.event == event]


def one(records: list[TraceRecord], event: str) -> TraceRecord:
    matches = events_named(records, event)
    assert len(matches) == 1, f"expected exactly one {event}, got {len(matches)}"
    return matches[0]


# -- pre-approved flow --

def preapproved_scenario() -> str:
    return (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 10 burst C transcript="The house is on fire"\n'
        + 'at 50 burst C transcript="Please come home now"\n'
        + 'at 90 burst C transcript="Hurry please"\n'
        + 'at 91 burst C transcript="Are you there"\n'
        + "at 120 hangup C\nat 125 hangup A\n"
    )


def test_preapproved_caller_gets_voice_bursts():
    records = run_text(preapproved_scenario())
    routing = one(records, "ROUTING")
    assert routing.get("kind") == "permit_voice_burst"
    assert routing.get("reason") == "pre_approved"
    assert routing.get("tier") == "medium"
    permits = events_named(records, "PERMIT")
    assert [p.at for p in permits] == [10, 50, 90]
    denied = one(records, "BURST_DENIED")
    assert denied.at == 91
    assert denied.get("reason") == "budget_exhausted"
    sent = events_named(records, "BURST_SENT")
    assert [r.get("payload") for r in sent] == ["voice", "voice", "voice"]


def test_gap_denial_reports_eligibility():
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 10 burst C transcript="first"\n'
        + 'at 20 burst C transcript="too soon"\n'
    )
    records = run_text(text)
    denied = one(records, "BURST_DENIED")
    assert denied.get("reason") == "gap_not_elapsed"
    # one-word burst at 10 lasts 1s; eligible at 11 + 30
    assert denied.get("eligible_at") == "41"


# -- runtime scoring flow --

def test_high_risk_context_triggers_connect_override():
    text = PREAMBLE + "at 0 call A B\n" + EMERGENCY_CALL + "at 60 hangup C\nat 80 hangup A\n"
    records = run_text(text)
    assessment = one(records, "ASSESSMENT")
    assert assessment.get("score") == "0.958333"
    assert assessment.get("tier") == "highest"
    assert assessment.get("location") == "1.000000"
    assert assessment.get("timing") == "0.833333"
    routing = one(records, "ROUTING")
    assert routing.get("kind") == "connect_override"
    assert routing.get("reason") == "score_threshold"
    held = one(records, "CALL_HELD")
    assert held.get("session") == "1"
    assert one(records, "CALL_OVERRIDE_CONNECTED").get("session") == "2"
    resumed = one(records, "CALL_RESUMED")
    assert resumed.at == 60 and resumed.get("session") == "1"


def test_baseline_context_waits_normally():
    text = PREAMBLE + "at 0 call A B\n" + BASELINE_CALL + 'at 11 burst C transcript="hello"\n'
    records = run_text(text)
    assert one(records, "ASSESSMENT").get("score") == "0.000000"
    assert one(records, "ROUTING").get("kind") == "standard_waiting"
    rejected = one(records, "BURST_REJECTED")
    assert rejected.get("reason") == "not_admitted"
    assert not events_named(records, "PERMIT")


def test_low_tier_gets_text_bursts():
    # location 1.0 (highway) + timing 5/6, others 0 -> 0.458 -> low
    text = (
        PREAMBLE
        + "at 0 call A B\n"
        + "at 10 call C A loc=(40,9) loctype=highway hour=3\n"
        + 'at 11 burst C transcript="stranded on the highway"\n'
    )
    records = run_text(text)
    assessment = one(records, "ASSESSMENT")
    assert assessment.get("score") == "0.458333"
    routing = one(records, "ROUTING")
    assert routing.get("kind") == "permit_text_burst_with_beep"
    assert routing.get("tier") == "low"
    admitted = one(records, "BURSTS_ADMITTED")
    assert admitted.get("mode") == "text"
    sent = one(records, "BURST_SENT")
    assert sent.get("payload") == "text_beep"
    assert sent.get("text") == "stranded on the highway"


# -- policies --

def admitted_budget(records: list[TraceRecord]) -> list[tuple[str | None, ...]]:
    return [(r.get("t"), r.get("G"), r.get("N")) for r in events_named(records, "BURSTS_ADMITTED")]


def test_a_callee_without_a_policy_line_gets_the_default_policy():
    text = PREAMBLE + "at 0 call A B\n" + "at 10 call C A loc=(40,9) loctype=highway hour=3\n"
    records = run_text(text)
    assert not events_named(records, "POLICY_SET")
    assert one(records, "ROUTING").get("reason") == "score_threshold"
    assert admitted_budget(records) == [("5", "30", "3")]


def test_a_second_policy_line_replaces_the_first():
    text = (
        PREAMBLE
        + "policy A t=4 G=10 N=2 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + "at 20 hangup C\n"
        + "policy A t=3 G=0 N=1\n"
        + "at 30 call C A loc=(40,9) loctype=highway hour=3\n"  # low tier by score
    )
    records = run_text(text)
    assert [r.get("approved") for r in events_named(records, "POLICY_SET")] == ["C", "-"]
    routings = events_named(records, "ROUTING")
    # the second line approves no one, so C's low tier is not floored at medium
    assert [(r.get("tier"), r.get("reason")) for r in routings] == [
        ("medium", "pre_approved"),
        ("low", "score_threshold"),
    ]
    assert admitted_budget(records) == [("4", "10", "2"), ("3", "0", "1")]


def test_approval_is_directional():
    policy = "policy A t=5 G=30 N=3 approve=C\n"
    into_a = run_text(PREAMBLE + policy + "at 0 call A B\n" + BASELINE_CALL)
    assert one(into_a, "ROUTING").get("reason") == "pre_approved"
    into_c = run_text(PREAMBLE + policy + "at 0 call C B\nat 10 call A C\n")
    routing = one(into_c, "ROUTING")
    assert routing.get("session") == "2"
    assert (routing.get("tier"), routing.get("reason")) == ("none", "default")


# -- incapacity and generation --

def silent_scenario() -> str:
    return (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 12 burst C silence keywords="House Fire Help Come"\n'
        + "at 40 hangup C\nat 50 hangup A\n"
    )


def test_silent_burst_substitutes_a_generated_message():
    records = run_text(silent_scenario())
    incapacity = one(records, "INCAPACITY")
    assert incapacity.get("incapacitated") == "1"
    assert incapacity.get("signals") == "silence"
    gen = one(records, "GEN")
    assert gen.get("backend") == "template"
    assert "fire" in gen.get("text").lower()
    sent = one(records, "BURST_SENT")
    assert sent.get("payload") == "generated"
    assert "fire" in sent.get("text").lower()
    assert sent.get("duration") == "5"  # silent window occupies the full burst
    assert not events_named(records, "GEN_FALLBACK")


def test_keyword_in_speech_triggers_substitution():
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 12 burst C transcript="please help there is smoke"\n'
    )
    records = run_text(text)
    incapacity = one(records, "INCAPACITY")
    assert incapacity.get("incapacitated") == "1"
    assert incapacity.get("signals") == "keyword"
    sent = one(records, "BURST_SENT")
    assert sent.get("payload") == "generated"
    assert "smoke" in sent.get("text").lower()  # template keyed on the spoken seed


@pytest.mark.parametrize(
    ("loctype", "burst", "expected"),
    [
        (
            " loctype=highway",
            'transcript="help; location: the old mill"',
            "Emergency. Please call back immediately. Location: highway.",
        ),
        (
            " loctype=highway",
            'silence keywords="x; location: nowhere at all"',
            "Emergency. Please call back immediately. Location: highway.",
        ),
        (
            "",
            'transcript="help; location: the old mill"',
            "Emergency. Please call back immediately.",
        ),
        (
            "",
            'silence keywords="x; location: nowhere at all"',
            "Emergency. Please call back immediately.",
        ),
    ],
    ids=["transcript", "keywords", "transcript_no_loctype", "keywords_no_loctype"],
)
def test_a_callers_words_do_not_set_the_location(loctype: str, burst: str, expected: str):
    text = (
        "subscriber A\nsubscriber B\nsubscriber C\npolicy A t=9 G=0 N=3 approve=C\n"
        f"at 0 call A B\nat 1 call C A{loctype}\nat 2 burst C {burst}\n"
    )
    gen = one(run_text(text), "GEN")
    assert gen.get("text") == expected


def test_media_description_feeds_the_next_burst():
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 11 media C video="person collapsed on floor"\n'
        + 'at 12 burst C transcript="are you seeing this"\n'
    )
    records = run_text(text)
    assert one(records, "MEDIA_NOTED").get("modality") == "video"
    incapacity = one(records, "INCAPACITY")
    assert incapacity.get("incapacitated") == "1"
    assert incapacity.get("confidence") == "0.500000"
    assert incapacity.get("signals") == "video"
    sent = one(records, "BURST_SENT")
    assert sent.get("payload") == "generated"
    assert "collapsed" in sent.get("text").lower()


def test_silent_burst_with_no_seed_stays_silent():
    # no keywords, no media, loctype defaults to other: nothing to seed
    text = (
        PREAMBLE
        + "policy A t=5 G=0 N=3 approve=C\n"
        + "at 0 call A B\n"
        + "at 10 call C A\n"
        + "at 12 burst C silence\n"
    )
    records = run_text(text)
    silent = one(records, "BURST_WINDOW_SILENT")
    assert silent.get("sequence") == "1"
    assert silent.get("duration") == "5"
    assert not events_named(records, "GEN")
    assert not events_named(records, "BURST_SENT")
    # empty windows still consume budget: three spend it, the fourth is denied
    denied_text = (
        text + "at 17 burst C silence\nat 22 burst C silence\nat 27 burst C silence\n"
    )
    denied_records = run_text(denied_text)
    assert len(events_named(denied_records, "BURST_WINDOW_SILENT")) == 3
    assert one(denied_records, "BURST_DENIED").get("reason") == "budget_exhausted"


# -- waiting queue, answer, dismissal, abandonment --

def test_answer_prefers_the_higher_tier_caller():
    text = (
        PREAMBLE
        + "subscriber D home=(0,0) usual_hours=8-22\n"
        + "at 0 call A B\n"
        + "at 5 call D A loc=(0,0) loctype=home hour=9\n"  # tier none, first in line
        + "at 10 call C A loc=(40,9) loctype=highway hour=3\n"  # tier low
        + "at 20 answer A\n"
    )
    records = run_text(text)
    connected = events_named(records, "CALL_CONNECTED")
    # A-B at 0, then the answered session: C's (session 3) despite D arriving first
    assert [r.get("session") for r in connected] == ["1", "3"]
    ended = events_named(records, "CALL_ENDED")
    assert ended[0].get("session") == "1"
    assert ended[0].get("by") == "A"


def test_dismiss_cancels_remaining_bursts():
    text = (
        PREAMBLE
        + "policy A t=5 G=0 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 11 burst C transcript="first"\n'
        + "at 30 dismiss A\n"
        + 'at 40 burst C transcript="second"\n'
    )
    records = run_text(text)
    dismissed = one(records, "BURSTS_DISMISSED")
    assert dismissed.get("remaining_cancelled") == "2"
    denied = one(records, "BURST_DENIED")
    assert denied.at == 40
    assert denied.get("reason") == "budget_exhausted"


def test_stale_waiting_call_is_abandoned():
    text = PREAMBLE + "at 0 call A B\n" + BASELINE_CALL + "at 300 hangup A\n"
    records = run_text(text)
    ended = events_named(records, "CALL_ENDED")
    timeout_end = [r for r in ended if r.get("by") == "timeout"]
    assert len(timeout_end) == 1
    assert timeout_end[0].at == 130  # placed at 10, idle for 120
    assert timeout_end[0].get("session") == "2"


def test_abandonment_timeout_is_configurable():
    text = PREAMBLE + "at 0 call A B\n" + BASELINE_CALL
    records = run_text(text, RunConfig(abandon_timeout=15))
    timeout_end = [r for r in events_named(records, "CALL_ENDED") if r.get("by") == "timeout"]
    assert timeout_end[0].at == 25


@pytest.mark.parametrize(
    "field, value",
    [
        ("abandon_timeout", -5),
        ("rng_seed", -1),
    ],
)
def test_run_config_rejects_invalid_values(field: str, value: int):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})
    RunConfig(abandon_timeout=0, rng_seed=0)  # the edges stay valid


def test_burst_activity_defers_abandonment():
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 100 burst C transcript="still here"\n'
    )
    records = run_text(text)
    timeout_end = [r for r in events_named(records, "CALL_ENDED") if r.get("by") == "timeout"]
    assert timeout_end[0].at == 220  # last activity at 100


def timeouts(records: list[TraceRecord]) -> list[tuple[int, str]]:
    return [
        (r.at, r.get("session"))
        for r in events_named(records, "CALL_ENDED")
        if r.get("by") == "timeout"
    ]


@pytest.mark.parametrize(
    "policy, touch",
    [
        ("", 'at 100 media C image="smoke in the hall"\n'),
        ("policy A t=5 G=30 N=3 approve=C\n", "at 100 dismiss A\n"),
        ("", 'at 100 burst C transcript="hello"\n'),  # rejected: not admitted
    ],
    ids=["media", "dismiss", "not_admitted_burst"],
)
def test_media_dismiss_and_unadmitted_bursts_defer_abandonment(policy: str, touch: str):
    records = run_text(PREAMBLE + policy + "at 0 call A B\n" + BASELINE_CALL + touch)
    assert timeouts(records) == [(220, "2")]  # last activity at 100


def test_equal_expiries_end_in_session_order():
    for earlier_touch in ("", 'at 7 media C image="a hall"\n'):  # touched once, then twice
        text = (
            PREAMBLE
            + "subscriber D\n"
            + "at 0 call A B\n"
            + "at 5 call C A loc=(0,0) loctype=home hour=9\n"
            + earlier_touch
            + "at 10 call D A\n"
            + 'at 10 media C gesture="waving"\n'  # session 2 now expires with session 3
        )
        assert timeouts(run_text(text)) == [(130, "2"), (130, "3")], earlier_touch


def test_a_busy_waiting_caller_keeps_one_expiry_entry():
    heap_sizes = []

    class Watched(Simulation):
        def _expire_waiting(self, before):
            heap_sizes.append(len(self._expiry))
            super()._expire_waiting(before)

    activity = "".join(
        f'at {10 + i} burst C transcript="still here"\nat {10 + i} media C image="a hall"\n'
        for i in range(50)
    )
    text = PREAMBLE + "policy A t=1 G=0 N=50 approve=C\nat 0 call A B\n" + BASELINE_CALL + activity
    sim = Watched()
    records = sim.run(parse_scenario(text))
    assert len(events_named(records, "BURST_SENT")) == 50
    assert timeouts(records) == [(179, "2")]  # last activity at 59
    placed = len(events_named(records, "CALL_PLACED"))
    assert max(heap_sizes) <= placed and len(sim._expiry) <= placed


def test_expiry_at_an_event_time_fires_after_that_event():
    text = PREAMBLE + "subscriber D\n" + "at 0 call A B\n" + BASELINE_CALL + "at 130 call D B\n"
    records = run_text(text)
    assert timeouts(records)[0] == (130, "2")
    placed = events_named(records, "CALL_PLACED")[-1]
    ended = [r for r in events_named(records, "CALL_ENDED") if r.get("session") == "2"]
    assert placed.get("session") == "3" and placed.seq < ended[0].seq


def test_answered_session_never_times_out():
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + 'at 100 burst C transcript="still here"\n'
        + "at 150 answer A\n"
        + "at 400 hangup C\n"
    )
    records = run_text(text)
    assert timeouts(records) == []
    ended = [(r.at, r.get("by")) for r in events_named(records, "CALL_ENDED")]
    assert ended == [(150, "A"), (400, "C")]


def test_hangup_of_held_call_leaves_override_running():
    text = (
        PREAMBLE
        + "at 0 call A B\n"
        + EMERGENCY_CALL
        + "at 20 hangup B\n"  # B gives up while held
        + "at 60 hangup A\n"
    )
    records = run_text(text)
    ended = events_named(records, "CALL_ENDED")
    assert [(r.at, r.get("session")) for r in ended[:2]] == [(20, "1"), (60, "2")]
    assert not events_named(records, "CALL_RESUMED")


# -- error handling --

def test_hangup_without_a_session_is_a_sim_error():
    with pytest.raises(SimError) as excinfo:
        run_text(PREAMBLE + "at 5 hangup A\n")
    assert excinfo.value.line_no == 4


def test_call_with_unknown_subscriber_is_a_sim_error():
    with pytest.raises(SimError):
        run_text("subscriber A\nat 0 call Z A\n")


def test_burst_without_a_waiting_call_is_rejected_not_fatal():
    records = run_text(PREAMBLE + 'at 5 burst C transcript="anyone"\n')
    assert one(records, "BURST_REJECTED").get("reason") == "no_waiting_call"


def test_unregistered_ids_in_burst_media_and_dismiss_are_not_fatal():
    text = PREAMBLE + 'at 5 burst Z silence\nat 6 media Z image="x"\nat 7 dismiss Z\n'
    records = run_text(text)
    assert one(records, "BURST_REJECTED").get("reason") == "no_waiting_call"
    assert one(records, "MEDIA_IGNORED").get("caller") == "Z"


def test_duplicate_subscriber_is_a_sim_error():
    with pytest.raises(SimError):
        run_text("subscriber A\nsubscriber A\n")


# -- configuration --

def test_weights_directive_changes_the_outcome():
    # zero out everything except location: highway-only context scores 1.0
    text = (
        PREAMBLE
        + "weights 1,0,0,0\n"
        + "at 0 call A B\n"
        + "at 10 call C A loc=(40,9) loctype=highway hour=3\n"
    )
    records = run_text(text)
    assert one(records, "ASSESSMENT").get("score") == "1.000000"
    assert one(records, "ROUTING").get("kind") == "connect_override"


@pytest.mark.parametrize("weights", ["1e308,1e308,1e308,1e308", "5e-324,5e-324,5e-324,5e-324"])
def test_extreme_weights_assess_like_equal_weights(weights: str):
    # 1e308 weights once summed to inf and wrote score=nan tier=none
    call = "at 0 call A B\nat 10 call C A loc=(40,9) loctype=highway hour=3 hr=200 speed=20\n"
    equal = one(run_text(PREAMBLE + "weights 1,1,1,1\n" + call), "ASSESSMENT")
    extreme = one(run_text(PREAMBLE + f"weights {weights}\n" + call), "ASSESSMENT")
    assert extreme.details == equal.details
    assert (equal.get("score"), equal.get("tier")) == ("0.958333", "highest")


def test_thresholds_directive_changes_the_tier():
    text = (
        PREAMBLE
        + "thresholds 0.99,0.98,0.97\n"
        + "at 0 call A B\n"
        + EMERGENCY_CALL
    )
    records = run_text(text)
    assert one(records, "ASSESSMENT").get("tier") == "none"
    assert one(records, "ROUTING").get("kind") == "standard_waiting"


@pytest.mark.parametrize(
    ("words", "duration"), [(1, 1), (2, 1), (3, 2), (6, 3), (12, 5), (13, 5), (40, 5)]
)
def test_a_transcripts_window_is_its_speaking_time_up_to_t(words: int, duration: int):
    # at 2.5 words per second, rounded up to a whole second
    transcript = " ".join(["one"] * words)
    text = (
        PREAMBLE
        + "policy A t=5 G=30 N=3 approve=C\n"
        + "at 0 call A B\n"
        + BASELINE_CALL
        + f'at 11 burst C transcript="{transcript}"\n'
    )
    assert one(run_text(text), "BURST_SENT").get("duration") == str(duration)


def test_a_word_budget_that_overflows_is_a_sim_error():
    text = silent_scenario().replace("t=5 ", "t=" + "9" * 400 + " ")
    with pytest.raises(SimError, match="overflows"):
        run_text(text)


def test_a_burst_waiting_for_its_reply_names_its_own_line_in_its_error():
    # the burst on line 7 is asked ahead, so its message is fitted after the
    # later lines ran; its word budget is checked while line 7 is handled,
    # so its error names it, before line 10's own error
    text = silent_scenario().replace("t=5 ", "t=" + "9" * 400 + " ") + "at 60 answer B\n"
    backend = ExternalBackend(stub_command("gen_fixed.py"), timeout=10.0)
    try:
        with pytest.raises(SimError, match="overflows") as exc:
            run_text(text, RunConfig(backend=backend))
    finally:
        backend.close()
    assert exc.value.line_no == 7


# -- one generator request per window --

class CountingGenerator:
    """An in-process external generator that numbers its replies, so a
    reply given twice shows; its first `failures` requests fail."""

    kind = "external"

    def __init__(self, failures: int = 0):
        self.seeds: list[str] = []
        self.failures = failures

    def generate(self, seed: str, rng_seed: int, location: str | None = None) -> str:
        self.seeds.append(seed)
        if len(self.seeds) <= self.failures:
            raise ExternalGeneratorError("generator error: busy")
        return f"Reply {len(self.seeds)}: {seed}."


def repeated_silent_bursts(count: int) -> str:
    bursts = "".join(f'at {12 + 5 * i} burst C silence keywords="fire"\n' for i in range(count))
    return PREAMBLE + "policy A t=5 G=0 N=3 approve=C\nat 0 call A B\n" + BASELINE_CALL + bursts


def test_identical_bursts_each_ask_the_generator_in_order():
    generator = CountingGenerator()
    records = run_text(repeated_silent_bursts(3), RunConfig(backend=generator))
    seed = "keywords: fire; location: home"
    assert generator.seeds == [seed] * 3
    replies = [f"Reply {i}: {seed}." for i in (1, 2, 3)]
    gens = events_named(records, "GEN")
    assert [(g.get("backend"), g.get("text")) for g in gens] == [
        ("external", reply) for reply in replies
    ]
    assert [s.get("text") for s in events_named(records, "BURST_SENT")] == replies


def test_a_fallback_falls_back_once_and_the_next_windows_carry_their_own_replies():
    generator = CountingGenerator(failures=1)
    records = run_text(repeated_silent_bursts(3), RunConfig(backend=generator))
    assert len(generator.seeds) == 3
    seed = "keywords: fire; location: home"
    gens = events_named(records, "GEN")
    assert [g.get("backend") for g in gens] == ["template", "external", "external"]
    assert [g.get("text") for g in gens[1:]] == [f"Reply {i}: {seed}." for i in (2, 3)]
    assert [f.get("detail") for f in events_named(records, "GEN_FALLBACK")] == [
        "generator error: busy"
    ]


def sleepy_bursts(ask_ahead_bytes: int) -> tuple[int, int]:
    """The requests asked and the replies waited for by two silent bursts on
    one seed, each timing out on a generator that never answers in time,
    with ASK_AHEAD_BYTES at `ask_ahead_bytes`."""
    backend = ExternalBackend(stub_command("gen_sleepy.py"), timeout=0.3)
    spy = partial(mock.patch.object, ExternalBackend, autospec=True)
    with (
        mock.patch.object(generation, "ASK_AHEAD_BYTES", ask_ahead_bytes),
        spy("ask", side_effect=ExternalBackend.ask) as ask,
        spy("_read_line", side_effect=ExternalBackend._read_line) as wait,
    ):
        try:
            records = run_text(repeated_silent_bursts(2), RunConfig(backend=backend))
        finally:
            backend.close()
    assert [f.get("reason") for f in events_named(records, "GEN_FALLBACK")] == ["timeout"] * 2
    assert [g.get("backend") for g in events_named(records, "GEN")] == ["template"] * 2
    return ask.call_count, wait.call_count


def test_a_timed_out_seed_is_asked_again():
    # one request in flight: the first reply is read before the second burst
    asked, waits = sleepy_bursts(1)
    assert asked == waits == 2


def test_bursts_asked_ahead_on_a_timed_out_seed_each_wait_for_their_own_reply():
    asked, waits = sleepy_bursts(generation.ASK_AHEAD_BYTES)
    assert asked == waits == 2


class AskingGenerator(CountingGenerator):
    """A CountingGenerator that can ask ahead, noting each seed asked."""

    def __init__(self):
        super().__init__()
        self.asked: list[str] = []

    def ask(self, seed: str, rng_seed: int) -> None:
        self.asked.append(seed)


def test_substitute_asks_the_backend_once_per_call_a_repeated_seed_included():
    generator = CountingGenerator()
    config, keys = RunConfig(backend=generator), [0, 1, 2, 0, 0, 1]
    messages = [substitute(config, None, 60, f"k{i}", None, {}) for i in keys]
    assert generator.seeds == [f"keywords: k{i}" for i in keys]
    assert [m.text for m in messages] == [
        f"Reply {n}: keywords: k{i}." for n, i in enumerate(keys, 1)
    ]


def test_substitute_asks_ahead_now_and_reads_the_reply_only_when_called():
    generator = AskingGenerator()
    config = RunConfig(backend=generator)
    deferred = [substitute(config, "home", 60, f"k{i}", None, {}) for i in (0, 0)]
    seed = "keywords: k0; location: home"
    assert generator.asked == [seed] * 2 and generator.seeds == []
    assert [read().text for read in deferred] == [f"Reply {n}: {seed}." for n in (1, 2)]
    assert generator.seeds == [seed] * 2
    with pytest.raises(ValueError, match="duration"):
        substitute(config, None, 0, "k1", None, {})  # the word budget fails before asking
    assert len(generator.asked) == 2


def test_one_seed_at_two_locations_gives_two_messages():
    # both seeds read "speech: help; location: highway", but only D's
    # location is its call's, which the template names
    text = (
        "subscriber A\nsubscriber B\nsubscriber C\nsubscriber D\n"
        "policy A t=9 G=0 N=3 approve=C,D\nat 0 call A B\n"
        "at 1 call C A\nat 1 call D A loctype=highway\n"
        'at 2 burst C transcript="help; location: highway"\n'
        'at 3 burst D transcript="help"\n'
    )
    assert [g.get("text") for g in events_named(run_text(text), "GEN")] == [
        "Emergency. Please call back immediately.",
        "Emergency. Please call back immediately. Location: highway.",
    ]


# -- trace-level invariants --

def all_trace_scenarios() -> list[str]:
    return [preapproved_scenario(), silent_scenario()]


def test_traces_are_deterministic():
    for text in all_trace_scenarios():
        first = render_trace(run_text(text, RunConfig(rng_seed=42)))
        second = render_trace(run_text(text, RunConfig(rng_seed=42)))
        assert first == second


def test_trace_time_is_non_decreasing_and_seq_strictly_increases():
    for text in all_trace_scenarios():
        records = run_text(text)
        times = [r.at for r in records]
        assert times == sorted(times)
        seqs = [r.seq for r in records]
        assert seqs == sorted(set(seqs))


def test_every_permit_is_followed_by_exactly_one_delivery():
    for text in all_trace_scenarios():
        records = run_text(text)
        permits = len(events_named(records, "PERMIT"))
        deliveries = len(events_named(records, "BURST_SENT")) + len(
            events_named(records, "BURST_WINDOW_SILENT")
        )
        assert permits == deliveries


def test_burst_records_never_exceed_the_budget():
    records = run_text(preapproved_scenario())
    assert len(events_named(records, "BURST_SENT")) <= 3


def test_trace_lines_are_single_lines_with_encoded_text():
    records = run_text(silent_scenario())
    rendered = render_trace(records)
    for line in rendered.strip().split("\n"):
        assert "\n" not in line
    sent = one(records, "BURST_SENT")
    assert " " in sent.get("text")  # raw value keeps spaces
    assert "%20" in sent  # rendering encodes them


# -- hostile runs --

_IDS = st.sampled_from(["A", "B", "C"] * 3 + ["D"])  # D is never registered
_CALLERS = st.sampled_from(["C"] * 3 + ["A", "B", "D"])  # C is the one who waits
# Mostly distinct registered pairs; a self-call and an unregistered party
# end a run in a SimError.
_PAIRS = st.sampled_from(
    [(a, b) for a in "ABC" for b in "ABC" if a != b] + [("A", "A"), ("D", "A"), ("B", "D")]
)
_CONTEXTS = ["", " loc=(40,9) loctype=highway hour=3 hr=130 speed=14", " loc=(0,0) hour=9"]
_BURST_MODES = [
    'transcript="help me"', 'transcript="all fine here"', "silence",
    "silence keywords=fire", 'transcript="hi" image=smoke',
]


@st.composite
def _hostile_scenarios(draw) -> str:
    """Registrations, policies and `at` lines with self-calls, unregistered
    ids and actions that have no target.  The drawn lines are sorted into
    the opening ones by time, stably, since an `at` time may not go back."""
    unregistered = draw(st.sampled_from(["D"] * 6 + ["A", "B", "C"]))
    lines = [f"subscriber {sub}" for sub in "ABC" if sub != unregistered]
    opening = draw(st.booleans())  # C waits on a busy A, which approves it
    callees = ["A"] * opening + draw(st.lists(_IDS, max_size=2))
    for callee in callees:
        t = draw(st.sampled_from(["1", "5", "9" * 400]))
        g, n = draw(st.sampled_from(["0", "30"])), draw(st.sampled_from(["1", "3"]))
        approved = "C" if opening and callee == "A" else draw(_IDS.filter(lambda x: x != callee))
        lines.append(f"policy {callee} t={t} G={g} N={n} approve={approved}")
    if draw(st.booleans()):
        lines.append("thresholds 0.9,0.5,0.1")
    calls = st.builds(
        lambda pair, context: f"call {pair[0]} {pair[1]}{context}",
        _PAIRS, st.sampled_from(_CONTEXTS),
    )
    bursts = st.builds("burst {} {}".format, _CALLERS, st.sampled_from(_BURST_MODES))
    actions = st.one_of(
        calls, bursts, bursts, bursts,
        st.builds("media {} image=smoke".format, _IDS),
        st.builds("{} {}".format, st.sampled_from(["hangup", "answer", "dismiss"]), _IDS),
    )
    timeline = []
    if opening:
        timeline += [(0, "call A B"), (1, f"call C A{draw(st.sampled_from(_CONTEXTS))}")]
    timeline += draw(st.lists(st.tuples(st.integers(0, 150), actions), max_size=12))
    for at, action in sorted(timeline, key=lambda line: line[0]):
        lines.append(f"at {at} {action}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_hostile_scenarios(), st.sampled_from([0, 1, 7, 120]))
def test_a_hostile_run_ends_in_a_trace_or_a_sim_error(text: str, abandon_timeout: int):
    try:
        events = parse_scenario(text)
    except ParseError:
        return
    config = RunConfig(abandon_timeout=abandon_timeout)
    try:
        records = run(events, config)
    except SimError:
        return
    permits = len(events_named(records, "PERMIT"))
    delivered = len(events_named(records, "BURST_SENT")) + len(
        events_named(records, "BURST_WINDOW_SILENT")
    )
    assert permits == delivered


class SeedGenerator:
    """An in-process generator whose reply depends only on the seed; a seed
    that names smoke fails.  `requests` logs the seeds it was asked for."""

    kind = "external"

    def __init__(self):
        self.requests: list[str] = []

    def generate(self, seed: str, rng_seed: int, location: str | None = None) -> str:
        self.requests.append(seed)
        return self.reply(seed)

    def reply(self, seed: str) -> str:
        if "smoke" in seed:
            raise ExternalGeneratorError("generator error: busy")
        return f"Reply to {seed}."


class AskingSeedGenerator(SeedGenerator):
    """A `SeedGenerator` that is asked ahead of its replies, which are read
    in the order asked and are due once `window` requests wait."""

    def __init__(self, window: int):
        super().__init__()
        self.window, self.waiting = window, collections.deque()

    def ask(self, seed: str, rng_seed: int) -> None:
        self.requests.append(seed)
        self.waiting.append(seed)

    def full(self) -> bool:
        return len(self.waiting) >= self.window

    def generate(self, seed: str, rng_seed: int, location: str | None = None) -> str:
        if not self.waiting:
            return super().generate(seed, rng_seed, location)
        assert self.waiting.popleft() == seed  # not out of turn
        return self.reply(seed)


@settings(max_examples=150, deadline=None)
@given(
    _hostile_scenarios(),
    st.sampled_from([0, 1, 7, 120]),
    st.integers(1, 4),
)
def test_a_hostile_run_asked_ahead_ends_as_when_each_reply_is_awaited(
    text: str, abandon_timeout: int, window: int
):
    # the same trace bytes, or the same SimError on the same line, and
    # never more requests than when each reply is awaited
    try:
        events = parse_scenario(text)
    except ParseError:
        return
    awaited, ahead = SeedGenerator(), AskingSeedGenerator(window)
    outcomes = []
    for backend in (awaited, ahead):
        config = RunConfig(backend=backend, abandon_timeout=abandon_timeout)
        try:
            outcomes.append(render_trace(run(events, config)))
        except SimError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert len(ahead.requests) <= len(awaited.requests)


def test_each_members_trace_token_is_its_value():
    for kind in (Modality, DenyReason, RoutingReason):
        assert all(member.token == member.value for member in kind)
