"""Fuses keyword, silence, and media-description signals into an
incapacity verdict that triggers generated-message substitution.

Two fixed vocabularies are read, each term as a whole word or words in any
case: a transcript holding a KEYWORDS phrase is a full-strength keyword
signal, and a media description scores one half per distinct
DISTRESS_LEXICON term, saturating at two.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


KEYWORDS = ("can't speak", "cant speak", "help")
DISTRESS_LEXICON = ("accident", "blood", "collapsed", "faint", "fire", "intruder", "smoke")
INCAPACITY_THRESHOLD = 0.5


class Modality(Enum):
    KEYWORD = "keyword"
    SILENCE = "silence"
    IMAGE_DESCRIPTION = "image"
    VIDEO_DESCRIPTION = "video"
    GESTURE = "gesture"


# The `media` directive's kinds, in the scenario grammar's order.
MEDIA_MODALITIES = (Modality.IMAGE_DESCRIPTION, Modality.VIDEO_DESCRIPTION, Modality.GESTURE)


@dataclass(frozen=True)
class ModalitySignal:
    modality: Modality
    strength: float

    def __post_init__(self) -> None:
        if not 0 <= self.strength <= 1:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")


@dataclass(frozen=True)
class IncapacityVerdict:
    incapacitated: bool
    confidence: float
    contributing: tuple[ModalitySignal, ...]


def phrase_pattern(phrase: str) -> re.Pattern[str]:
    """`phrase` as a whole word or words, in any case: "help" never fires
    inside "helpful"."""
    return re.compile(r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE)


_KEYWORD_PATTERNS = tuple(phrase_pattern(phrase) for phrase in KEYWORDS)
_DISTRESS_PATTERNS = tuple(phrase_pattern(term) for term in DISTRESS_LEXICON)


def detect_keywords(transcript: str) -> ModalitySignal | None:
    """A full-strength signal when any KEYWORDS phrase is in `transcript`."""
    if any(pattern.search(transcript) for pattern in _KEYWORD_PATTERNS):
        return ModalitySignal(Modality.KEYWORD, 1.0)
    return None


def detect_silence(duration: int) -> ModalitySignal:
    """A permitted window of `duration` seconds that passed with no speech
    is a full-strength silence signal."""
    if duration <= 0:
        raise ValueError(f"window duration must be positive, got {duration}")
    return ModalitySignal(Modality.SILENCE, 1.0)


def flag_media(description: str, modality: Modality) -> ModalitySignal | None:
    """Count distinct DISTRESS_LEXICON terms in a textual media description;
    strength saturates at two matches."""
    if modality not in MEDIA_MODALITIES:
        raise ValueError(f"flag_media expects a media modality, got {modality}")
    matched = sum(1 for pattern in _DISTRESS_PATTERNS if pattern.search(description))
    if not matched:
        return None
    return ModalitySignal(modality, min(1.0, matched / 2))


def assess_incapacity(signals: Iterable[ModalitySignal]) -> IncapacityVerdict:
    """Max-fusion: the strongest signal sets the confidence; the verdict
    trips at INCAPACITY_THRESHOLD (inclusive)."""
    contributing = tuple(s for s in signals if s.strength > 0)
    confidence = max((s.strength for s in contributing), default=0.0)
    return IncapacityVerdict(
        incapacitated=confidence >= INCAPACITY_THRESHOLD,
        confidence=confidence,
        contributing=contributing,
    )
