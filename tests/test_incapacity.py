from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbsim import incapacity
from gvbsim.generation import _TEMPLATE_RULES
from gvbsim.incapacity import (
    DISTRESS_LEXICON,
    KEYWORDS,
    MEDIA_FLAG_TABLE_SIZE,
    MEDIA_MODALITIES,
    VERDICT_TABLE_SIZE,
    Modality,
    ModalitySignal,
    assess_incapacity,
    detect_keywords,
    detect_silence,
    flag_media,
    term_alternation,
)

TEMPLATE_TERMS = tuple(term for term, _ in _TEMPLATE_RULES)


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


# -- both vocabularies against one pattern per term --

def reference_matches(terms: tuple[str, ...], text: str) -> list[str]:
    """The terms of `terms` that `\\b<term>\\b`, in any case, finds in `text`."""
    return [t for t in terms if re.search(rf"\b{re.escape(t)}\b", text, re.IGNORECASE)]


def mixed_case(term: str, mask: int) -> str:
    return "".join(ch.upper() if mask >> i & 1 else ch for i, ch in enumerate(term))


def vocabulary_text(*vocabularies: tuple[str, ...]) -> st.SearchStrategy[str]:
    """Texts built from the terms in mixed case and pieces that sit on or
    break a word boundary, or fold to a term's letter (long s, Kelvin sign,
    dotless i, dotted I)."""
    terms = sorted({term for vocabulary in vocabularies for term in vocabulary})
    piece = st.one_of(
        st.builds(mixed_case, st.sampled_from(terms), st.integers(0, 2**16)),
        st.sampled_from(["\u017f", "\u212a", "\u0131", "\u0130", "'", "_", "fainting", "helpful"]),
        st.sampled_from("0123456789"),
    )
    separator = st.sampled_from(["", " ", ", ", "; "])
    return st.lists(st.tuples(piece, separator), max_size=8).map(
        lambda parts: "".join(p + sep for p, sep in parts)
    )


@settings(deadline=None)
@given(vocabulary_text(KEYWORDS, DISTRESS_LEXICON))
@example("\u017fmoke, HELP_ can't \u212aNOW")
@example("cant speak2 help'")
def test_keyword_detection_matches_a_pattern_per_phrase(text: str):
    fired = detect_keywords(text) is not None
    assert fired == bool(reference_matches(KEYWORDS, text))


@settings(deadline=None)
@given(vocabulary_text(KEYWORDS, DISTRESS_LEXICON), st.sampled_from(MEDIA_MODALITIES))
@example("FIRE fire_ smoke1 blood,fire \u017fmoke", Modality.IMAGE_DESCRIPTION)
@example("fainting faint", Modality.GESTURE)
def test_media_strength_counts_distinct_terms_a_pattern_per_term_finds(
    text: str, modality: Modality
):
    matched = len(reference_matches(DISTRESS_LEXICON, text))
    expected = ModalitySignal(modality, min(1.0, matched / 2)) if matched else None
    assert flag_media(text, modality) == expected


@settings(deadline=None)
@given(
    st.sampled_from([KEYWORDS, DISTRESS_LEXICON, TEMPLATE_TERMS]),
    vocabulary_text(KEYWORDS, DISTRESS_LEXICON, TEMPLATE_TERMS),
)
@example(TEMPLATE_TERMS, "\u017fmoke \u0130ntruder \u0131ntruder Crash_ crash, thief'")
@example(KEYWORDS, "CAN'T SPEAK can't \u017fpeak help1 help")
def test_the_first_character_lookahead_finds_what_the_plain_alternation_finds(
    terms: tuple[str, ...], text: str
):
    # the plain pattern has no lookahead: each term a numbered group between \b
    groups = "|".join(f"({re.escape(term)})" for term in terms)
    plain = re.compile(rf"\b(?:{groups})\b", re.IGNORECASE)
    found = [(m.span(), m.lastindex) for m in term_alternation(terms).finditer(text)]
    assert found == [(m.span(), m.lastindex) for m in plain.finditer(text)]


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


# -- work done once per distinct input --

def detector_signal_tuples() -> set[tuple[ModalitySignal, ...]]:
    """Every signal tuple a burst window can make: silence, a keyword or
    neither, then the media signals of distinct kinds in any order."""
    voice = [(), (detect_silence(1),), (detect_keywords("help"),)]
    media = {
        modality: [flag_media("fire", modality), flag_media("fire and smoke", modality)]
        for modality in MEDIA_MODALITIES
    }
    tuples = set()
    for count in range(len(MEDIA_MODALITIES) + 1):
        for kinds in itertools.permutations(MEDIA_MODALITIES, count):
            for picked in itertools.product(*(media[kind] for kind in kinds)):
                tuples.update(head + picked for head in voice)
    return tuples


@pytest.fixture
def cleared():
    """Empty the incapacity caches, so `cache_info` counts only this test."""
    incapacity._fuse.cache_clear()
    flag_media.cache_clear()


def test_every_verdict_the_detectors_can_need_is_made_once(cleared):
    tuples = detector_signal_tuples()
    assert len(tuples) == 3 * 79 <= VERDICT_TABLE_SIZE
    verdicts = {signals: assess_incapacity(list(signals)) for signals in tuples}
    assert incapacity._fuse.cache_info()[:2] == (0, len(tuples))  # (hits, misses)
    for signals, verdict in verdicts.items():
        assert assess_incapacity(iter(signals)) is verdict
        confidence = max((s.strength for s in signals), default=0.0)
        assert verdict == (confidence >= 0.5, confidence, signals)
    assert incapacity._fuse.cache_info()[:2] == (len(tuples), len(tuples))


def test_the_verdict_table_keeps_at_most_its_bound(cleared):
    strengths = [i / (2 * VERDICT_TABLE_SIZE) for i in range(VERDICT_TABLE_SIZE + 20)]
    for strength in strengths:
        signals = [ModalitySignal(Modality.GESTURE, strength), detect_silence(1)]
        verdict = assess_incapacity(signals)
        assert verdict.confidence == 1.0 and verdict.contributing[-1] is signals[-1]
        assert incapacity._fuse.cache_info().currsize <= VERDICT_TABLE_SIZE
    misses = incapacity._fuse.cache_info().misses
    first = (ModalitySignal(Modality.GESTURE, strengths[0]), detect_silence(1))
    assert assess_incapacity(first).contributing == first[1:]
    assert incapacity._fuse.cache_info().misses == misses + 1  # the oldest went first


def test_the_media_table_keeps_at_most_its_bound_and_scans_a_kept_text_once(
    cleared, monkeypatch
):
    for i in range(MEDIA_FLAG_TABLE_SIZE + 20):
        signal = flag_media(f"room {i} with smoke", Modality.VIDEO_DESCRIPTION)
        assert signal == ModalitySignal(Modality.VIDEO_DESCRIPTION, 0.5)
        assert flag_media.cache_info().currsize <= MEDIA_FLAG_TABLE_SIZE
    monkeypatch.setattr(incapacity, "_DISTRESS_PATTERN", None)  # a scan now fails
    assert flag_media(f"room {i} with smoke", Modality.VIDEO_DESCRIPTION) is signal
    with pytest.raises(AttributeError):
        flag_media("room 0 with smoke", Modality.VIDEO_DESCRIPTION)  # dropped: scanned again
