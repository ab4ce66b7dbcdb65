from __future__ import annotations

import random

import pytest

from gvbsim.incapacity import (
    DISTRESS_LEXICON,
    KEYWORDS,
    Modality,
    ModalitySignal,
    assess_incapacity,
    detect_keywords,
    detect_silence,
    flag_media,
)


# -- keywords --

def test_help_detected_case_insensitively():
    signal = detect_keywords("please HELP me")
    assert signal is not None
    assert signal.modality is Modality.KEYWORD
    assert signal.strength == 1.0


def test_calm_transcript_yields_nothing():
    assert detect_keywords("everything is fine") is None


def test_keyword_must_match_on_word_boundaries():
    assert detect_keywords("helpful advice") is None
    assert detect_keywords("she was helping") is None


def test_multiword_keyword_phrases_match():
    assert detect_keywords("I really can't speak right now") is not None
    assert detect_keywords("cant speak, come quick") is not None


@pytest.mark.parametrize("vocabulary", [KEYWORDS, DISTRESS_LEXICON])
def test_vocabularies_are_sorted_tuples(vocabulary):
    assert isinstance(vocabulary, tuple)
    assert list(vocabulary) == sorted(set(vocabulary))


def test_keyword_detection_ignores_case():
    rng = random.Random(11)
    text = "please help me now"
    for _ in range(50):
        mixed = "".join(ch.upper() if rng.random() < 0.5 else ch for ch in text)
        assert detect_keywords(mixed) == ModalitySignal(Modality.KEYWORD, 1.0)


# -- silence --

def test_silent_window_is_a_full_strength_signal():
    signal = detect_silence(5)
    assert signal is not None
    assert signal.modality is Modality.SILENCE
    assert signal.strength == 1.0


def test_zero_duration_window_rejected():
    with pytest.raises(ValueError, match="window duration must be positive, got 0"):
        detect_silence(0)


# -- media descriptions --

def test_two_distress_terms_saturate():
    signal = flag_media("smoke and fire in kitchen", Modality.IMAGE_DESCRIPTION)
    assert signal is not None
    assert signal.strength == 1.0


def test_harmless_description_yields_nothing():
    assert flag_media("sunny garden photo", Modality.IMAGE_DESCRIPTION) is None


def test_single_term_scores_half():
    signal = flag_media("person collapsed", Modality.VIDEO_DESCRIPTION)
    assert signal is not None
    assert signal.strength == 0.5
    assert signal.modality is Modality.VIDEO_DESCRIPTION


@pytest.mark.parametrize("term", DISTRESS_LEXICON)
def test_every_distress_term_alone_scores_half(term: str):
    signal = flag_media(f"a {term.upper()} here", Modality.GESTURE)
    assert signal == ModalitySignal(Modality.GESTURE, 0.5)


def test_a_repeated_term_counts_once():
    signal = flag_media("fire, more fire, FIRE", Modality.IMAGE_DESCRIPTION)
    assert signal is not None and signal.strength == 0.5


def test_three_terms_still_clamp_to_one():
    signal = flag_media("fire, smoke and blood", Modality.IMAGE_DESCRIPTION)
    assert signal is not None and signal.strength == 1.0


def test_media_requires_a_media_modality():
    with pytest.raises(ValueError):
        flag_media("fire", Modality.KEYWORD)


# -- fusion --

def test_no_signals_means_no_incapacity():
    verdict = assess_incapacity([])
    assert not verdict.incapacitated
    assert verdict.confidence == 0.0
    assert verdict.contributing == ()


def test_silence_alone_suffices():
    verdict = assess_incapacity([ModalitySignal(Modality.SILENCE, 1.0)])
    assert verdict.incapacitated
    assert verdict.confidence == 1.0


def test_half_strength_trips_the_threshold_inclusively():
    verdict = assess_incapacity([ModalitySignal(Modality.IMAGE_DESCRIPTION, 0.5)])
    assert verdict.incapacitated
    assert verdict.confidence == 0.5


def test_below_threshold_is_not_incapacitated():
    verdict = assess_incapacity([ModalitySignal(Modality.IMAGE_DESCRIPTION, 0.4)])
    assert not verdict.incapacitated


def test_signal_order_never_changes_the_verdict():
    rng = random.Random(5)
    signals = [
        ModalitySignal(Modality.SILENCE, 1.0),
        ModalitySignal(Modality.IMAGE_DESCRIPTION, 0.5),
        ModalitySignal(Modality.KEYWORD, 1.0),
        ModalitySignal(Modality.GESTURE, 0.3),
    ]
    baseline = assess_incapacity(signals)
    for _ in range(20):
        shuffled = signals[:]
        rng.shuffle(shuffled)
        verdict = assess_incapacity(shuffled)
        assert verdict.incapacitated == baseline.incapacitated
        assert verdict.confidence == baseline.confidence
        assert set(verdict.contributing) == set(baseline.contributing)


def test_adding_a_signal_never_lowers_confidence():
    rng = random.Random(17)
    for _ in range(200):
        signals = [
            ModalitySignal(Modality.GESTURE, rng.random())
            for _ in range(rng.randint(0, 5))
        ]
        before = assess_incapacity(signals).confidence
        signals.append(ModalitySignal(Modality.SILENCE, rng.random()))
        assert assess_incapacity(signals).confidence >= before


def test_zero_strength_signals_do_not_contribute():
    verdict = assess_incapacity([ModalitySignal(Modality.GESTURE, 0.0)])
    assert verdict.contributing == ()
    assert verdict.confidence == 0.0


def test_signal_invariants():
    with pytest.raises(ValueError, match="strength must be in"):
        ModalitySignal(Modality.KEYWORD, 1.5)
