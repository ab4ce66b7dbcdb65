"""Fuses keyword, silence, and media-description signals into an
incapacity verdict that triggers generated-message substitution."""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable


DEFAULT_KEYWORDS = frozenset({"help", "can't speak", "cant speak"})
DEFAULT_DISTRESS_LEXICON = frozenset(
    {"fire", "accident", "blood", "collapsed", "smoke", "intruder", "faint"}
)
INCAPACITY_THRESHOLD = 0.5


class Modality(Enum):
    KEYWORD = "keyword"
    SILENCE = "silence"
    IMAGE_DESCRIPTION = "image"
    VIDEO_DESCRIPTION = "video"
    GESTURE = "gesture"


MEDIA_MODALITIES = frozenset(
    {Modality.IMAGE_DESCRIPTION, Modality.VIDEO_DESCRIPTION, Modality.GESTURE}
)


@dataclass(frozen=True)
class ModalitySignal:
    modality: Modality
    strength: float
    evidence: str

    def __post_init__(self) -> None:
        if not 0 <= self.strength <= 1:
            raise ValueError(f"strength must be in [0, 1], got {self.strength}")
        if self.strength > 0 and not self.evidence:
            raise ValueError("evidence required for a non-zero signal")


@dataclass(frozen=True)
class IncapacityVerdict:
    incapacitated: bool
    confidence: float
    contributing: tuple[ModalitySignal, ...]


# Bounded, because library callers may pass any phrases.
@functools.lru_cache(maxsize=1024)
def phrase_pattern(phrase: str) -> re.Pattern[str]:
    """`phrase` as a whole word or words, in any case: "help" never fires
    inside "helpful"."""
    return re.compile(r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE)


def detect_keywords(
    transcript: str, keywords: frozenset[str] = DEFAULT_KEYWORDS
) -> ModalitySignal | None:
    """Case-insensitive phrase match on word boundaries; first matching
    phrase (in sorted order) becomes the evidence."""
    if not keywords:
        raise ValueError("keyword set must be non-empty")
    for phrase in sorted(keywords):
        if phrase_pattern(phrase).search(transcript):
            return ModalitySignal(Modality.KEYWORD, 1.0, phrase)
    return None


def detect_silence(duration: int) -> ModalitySignal:
    """A permitted window of `duration` seconds that passed with no speech
    is a full-strength silence signal."""
    if duration <= 0:
        raise ValueError(f"window duration must be positive, got {duration}")
    return ModalitySignal(Modality.SILENCE, 1.0, f"no speech in {duration}s window")


def flag_media(
    description: str,
    modality: Modality,
    lexicon: frozenset[str] = DEFAULT_DISTRESS_LEXICON,
) -> ModalitySignal | None:
    """Count distinct distress terms in a textual media description;
    strength saturates at two matches."""
    if modality not in MEDIA_MODALITIES:
        raise ValueError(f"flag_media expects a media modality, got {modality}")
    matched = sorted(term for term in lexicon if phrase_pattern(term).search(description))
    if not matched:
        return None
    return ModalitySignal(modality, min(1.0, len(matched) / 2), ", ".join(matched))


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
