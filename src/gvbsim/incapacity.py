"""Fuses keyword, silence, and media-description signals into an
incapacity verdict that triggers generated-message substitution.

Two fixed vocabularies are read, each term as a whole word or words in any
case: a transcript holding a KEYWORDS phrase is a full-strength keyword
signal, and a media description scores one half per distinct
DISTRESS_LEXICON term, saturating at two.  Each vocabulary is one
`term_alternation` pattern, scanned once per text.

Each result is made once per distinct input and kept in a bounded
`functools.lru_cache`, the least recently used dropped first: a media
signal per (description, modality), up to MEDIA_FLAG_TABLE_SIZE, and a
verdict per signal tuple, up to VERDICT_TABLE_SIZE.  The detectors make at
most 3 * 79 = 237 signal tuples, all within VERDICT_TABLE_SIZE: silence, a
keyword or neither, then media signals of distinct kinds of strength 0.5
or 1 (1 + 3*2 + 6*4 + 6*8 = 79).
"""
from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple

from .checked import checked


KEYWORDS = ("can't speak", "cant speak", "help")
DISTRESS_LEXICON = ("accident", "blood", "collapsed", "faint", "fire", "intruder", "smoke")
INCAPACITY_THRESHOLD = 0.5
VERDICT_TABLE_SIZE = 256  # signal tuples whose verdict is kept (the detectors make 237)
MEDIA_FLAG_TABLE_SIZE = 1024  # (description, modality) pairs whose signal is kept


class Modality(Enum):
    __hash__ = object.__hash__  # singletons compared by identity; Enum.__hash__ runs Python in 3.11
    KEYWORD = "keyword"
    SILENCE = "silence"
    IMAGE_DESCRIPTION = "image"
    VIDEO_DESCRIPTION = "video"
    GESTURE = "gesture"

    def __init__(self, value: str) -> None:
        self.token = value  # the trace token; a plain read, where `.value` runs Python in 3.11


# The `media` directive's kinds, in the scenario grammar's order.
MEDIA_MODALITIES = (Modality.IMAGE_DESCRIPTION, Modality.VIDEO_DESCRIPTION, Modality.GESTURE)


@checked
class ModalitySignal(NamedTuple):
    modality: Modality
    strength: float

    def _check(self) -> None:
        if not 0 <= self.strength <= 1:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")


class IncapacityVerdict(NamedTuple):
    incapacitated: bool
    confidence: float
    contributing: tuple[ModalitySignal, ...]


def term_alternation(terms: tuple[str, ...]) -> re.Pattern[str]:
    """One pattern finding any of `terms` as a whole word or words, in any
    case ("help" never fires inside "helpful"); a match's `lastindex` is
    the 1-based position of its term in `terms`."""
    alternatives = "|".join(f"({re.escape(term)})" for term in terms)
    # a position where no term can start fails the lookahead before any alternative is tried
    starts = "".join(sorted({re.escape(term[0]) for term in terms}))
    return re.compile(rf"\b(?=[{starts}])(?:{alternatives})\b", re.IGNORECASE)


_KEYWORD_PATTERN = term_alternation(KEYWORDS)
_DISTRESS_PATTERN = term_alternation(DISTRESS_LEXICON)
_KEYWORD_SIGNAL = ModalitySignal(Modality.KEYWORD, 1.0)
_SILENCE_SIGNAL = ModalitySignal(Modality.SILENCE, 1.0)


def detect_keywords(transcript: str) -> ModalitySignal | None:
    """A full-strength signal when any KEYWORDS phrase is in `transcript`."""
    return _KEYWORD_SIGNAL if _KEYWORD_PATTERN.search(transcript) else None


def detect_silence(duration: int) -> ModalitySignal:
    """A permitted window of `duration` seconds that passed with no speech
    is a full-strength silence signal."""
    if duration <= 0:
        raise ValueError(f"window duration must be positive, got {duration}")
    return _SILENCE_SIGNAL


@lru_cache(maxsize=MEDIA_FLAG_TABLE_SIZE)
def flag_media(description: str, modality: Modality) -> ModalitySignal | None:
    """Count distinct DISTRESS_LEXICON terms in a textual media description;
    strength saturates at two matches."""
    if modality not in MEDIA_MODALITIES:
        raise ValueError(f"flag_media expects a media modality, got {modality}")
    # each term is one word, so no two matches overlap and finditer sees all
    matched = len({match.lastindex for match in _DISTRESS_PATTERN.finditer(description)})
    return ModalitySignal(modality, min(1.0, matched / 2)) if matched else None


def assess_incapacity(signals: Iterable[ModalitySignal]) -> IncapacityVerdict:
    """Max-fusion: the strongest signal sets the confidence; the verdict
    trips at INCAPACITY_THRESHOLD (inclusive).  Equal signal tuples get
    the one verdict while it is cached (see `_fuse`)."""
    return _fuse(tuple(signals))


@lru_cache(maxsize=VERDICT_TABLE_SIZE)
def _fuse(signals: tuple[ModalitySignal, ...]) -> IncapacityVerdict:
    contributing = tuple(s for s in signals if s.strength > 0)
    confidence = max((s.strength for s in contributing), default=0.0)
    return IncapacityVerdict(
        incapacitated=confidence >= INCAPACITY_THRESHOLD,
        confidence=confidence,
        contributing=contributing,
    )
