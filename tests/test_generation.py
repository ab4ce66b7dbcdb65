from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings

from gvbsim.generation import (
    _TEMPLATE_RULES,
    GeneratedMessage,
    MAX_WORDS,
    SPEAKING_RATE_WPS,
    TemplateBackend,
    _template_text,
    build_request_line,
    compose_seed,
    fit_to_duration,
    generate_message,
    word_budget,
)

from .test_incapacity import reference_matches, vocabulary_text


# -- seed composition --

def test_single_field_seed():
    assert compose_seed(keywords="House Fire Help Come") == "keywords: House Fire Help Come"


def test_no_part_composes_the_empty_seed():
    assert compose_seed() == ""
    assert compose_seed(keywords=None, location=None) == ""


def test_an_unknown_label_is_rejected():
    with pytest.raises(TypeError, match="noise"):
        compose_seed(keywords="x", noise="siren")


def test_fields_emitted_in_canonical_order():
    seed = compose_seed(keywords="Help", location="Highway")
    assert seed == "keywords: Help; location: Highway"
    # label order wins even when passed the other way round
    seed = compose_seed(location="Highway", keywords="Help")
    assert seed == "keywords: Help; location: Highway"


def test_all_fields_in_order():
    seed = compose_seed(location="l", speech="s", video="v", image="i", gesture="g", keywords="k")
    assert seed == "keywords: k; gesture: g; image: i; video: v; speech: s; location: l"


def test_distinct_bundles_compose_distinct_seeds():
    a = compose_seed(keywords="x")
    b = compose_seed(speech="x")
    c = compose_seed(keywords="x", speech="x")
    assert len({a, b, c}) == 3


# -- template backend --

def test_fire_seed_produces_a_fire_message():
    msg = generate_message("keywords: House Fire Help Come")
    assert "fire" in msg.text.lower()
    assert msg.backend == "template"


def test_accident_rule_lookup():
    msg = generate_message("accident on highway")
    assert msg.text == "I have met an accident. Please send an ambulance."


def test_fallback_mentions_emergency():
    msg = generate_message("keywords: please call")
    assert "Emergency" in msg.text


def test_fallback_includes_location_when_present():
    seed = compose_seed(keywords="please call", location="highway")
    msg = generate_message(seed, location="highway")
    assert msg.text == "Emergency. Please call back immediately. Location: highway."


def test_fallback_takes_the_location_from_the_caller_not_the_seed():
    msg = generate_message("keywords: please call; location: the old mill")
    assert msg.text == "Emergency. Please call back immediately."


_TEMPLATE_TERMS = tuple(term for term, _ in _TEMPLATE_RULES)


@settings(deadline=None)
@given(vocabulary_text(_TEMPLATE_TERMS))
@example("\u017fmoke; FAINTING faint_ thief")
def test_the_first_rule_whose_term_is_anywhere_in_the_seed_wins(seed: str):
    matched = reference_matches(_TEMPLATE_TERMS, seed)  # in rule order
    text = _template_text(seed)
    if matched:
        assert text == dict(_TEMPLATE_RULES)[matched[0]]
    else:
        assert text.startswith("Emergency. Please call back immediately.")


def test_a_later_term_of_an_earlier_rule_picks_it():
    assert _template_text("smoke then fire") == dict(_TEMPLATE_RULES)["fire"]


def test_template_is_deterministic():
    first = generate_message("keywords: smoke in hallway", rng_seed=1234)
    second = generate_message("keywords: smoke in hallway", rng_seed=1234)
    assert first.text == second.text
    assert first == second


def test_template_output_anchored_to_seed_or_emergency():
    rng = random.Random(2024)
    terms = ["fire", "smoke", "accident", "crash", "faint", "collapsed", "blood", "thief", "calm"]
    for _ in range(300):
        words = rng.sample(terms, rng.randint(1, 4)) + ["please", "now"]
        rng.shuffle(words)
        seed = "keywords: " + " ".join(words)
        msg = generate_message(seed)
        seed_tokens = {w.strip(".,").lower() for w in seed.split()}
        message_tokens = {w.strip(".,").lower() for w in msg.text.split()}
        assert message_tokens & seed_tokens or "emergency" in message_tokens
        assert msg.text
        assert msg.text[-1] in ".!?"


def test_template_honors_max_words_and_stays_sentence_terminated():
    # no rule matches, so all 60 location words reach the text; the cap keeps
    # 6 lead words and w0..w43, and trades the comma after w43 for a stop
    place = " ".join(f"w{i}," for i in range(60))
    msg = generate_message(compose_seed(keywords="please call", location=place), location=place)
    assert msg.word_count == MAX_WORDS
    assert msg.text.startswith("Emergency. Please call back immediately. Location: w0, w1,")
    assert msg.text.endswith(" w42, w43.")


def test_empty_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-empty"):
        generate_message("   ")


def test_request_line_rejects_a_negative_rng_seed():
    with pytest.raises(ValueError, match="rng_seed must be unsigned, got -1"):
        build_request_line("keywords: fire", -1)


# -- duration fitting --

def ten_word_message() -> str:
    return "One two three four five. Six seven eight nine ten."


def test_short_message_passes_through_unchanged():
    msg = generate_message("keywords: fire")  # 9 words
    fitted = fit_to_duration(msg, t=5)  # budget 12
    assert fitted.text == msg.text
    assert fitted.word_count / SPEAKING_RATE_WPS <= 5


def test_single_long_sentence_is_hard_truncated():
    text = "a b c d e f g h i j k l m n o"  # 15 words, no sentence break
    msg = GeneratedMessage(text=text, backend="template")
    assert msg.word_count == 15
    fitted = fit_to_duration(msg, t=4)  # budget 10
    assert fitted.text == "a b c d e f g h i j"
    assert fitted.word_count == 10
    assert fitted.word_count / SPEAKING_RATE_WPS <= 4


def test_truncation_prefers_sentence_boundaries():
    msg = GeneratedMessage(text=ten_word_message(), backend="template")
    fitted = fit_to_duration(msg, t=2)  # budget 5
    assert fitted.text == "One two three four five."
    assert fitted.word_count == 5


def test_minimum_budget_is_two_words():
    # every t a policy allows (t >= 1) fits two words or more, so no fitted
    # message is left without a word and every generated window is sent
    assert [word_budget(t) for t in range(1, 5)] == [2, 5, 7, 10]
    for t in (*range(1, 10_000), 2**53, 10**300):
        assert word_budget(t) >= 2
    rules = [text for _, text in _TEMPLATE_RULES] + [_template_text("x", "isolated")]
    for text in [*rules, _template_text("x"), "a", "a. b", "a b c. d e f g"]:
        msg = GeneratedMessage(text=text, backend="template")
        for t in range(1, 2 + len(text.split())):
            fitted = fit_to_duration(msg, t)
            assert 1 <= fitted.word_count <= word_budget(t)
    assert fit_to_duration(generate_message("keywords: fire"), t=1).word_count == 2


def test_fitted_estimate_never_exceeds_duration():
    rng = random.Random(31)
    backend = TemplateBackend()
    seeds = ["keywords: fire", "keywords: accident", "keywords: hello there", "keywords: thief"]
    for _ in range(200):
        t = rng.randint(1, 5)
        msg = generate_message(rng.choice(seeds), backend=backend)
        fitted = fit_to_duration(msg, t)
        assert fitted.word_count / SPEAKING_RATE_WPS <= t


def test_fit_validates_inputs():
    msg = generate_message("keywords: fire")
    with pytest.raises(ValueError):
        fit_to_duration(msg, t=0)


@pytest.mark.parametrize(
    "t",
    [
        10**400,  # too large for a float
        int(sys.float_info.max),  # a float, but times the rate it is inf
    ],
    ids=["int-overflow", "product-overflow"],
)
def test_fit_rejects_a_word_budget_that_overflows(t: int):
    msg = generate_message("keywords: fire")
    with pytest.raises(ValueError, match="overflows"):
        fit_to_duration(msg, t)
