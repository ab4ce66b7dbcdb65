"""Contextual anomaly factors, combined emergency score, and priority tiers.

`FACTORS` maps each factor's name to its anomaly function, in
`FactorWeights` field order.  Each compares the caller's current context
against their baseline profile and yields a score in [0, 1].  Missing
inputs never escalate: an absent sensor reading or an empty baseline
contributes 0.  The combined score is a normalized weighted average,
classified into a tier by three thresholds.
"""
from __future__ import annotations

import math
from enum import Enum, IntEnum
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Sequence

from .checked import checked


# Normalization constants for the factor formulas; no flag or scenario
# line sets them.
LOCATION_NORM_KM = 5.0
HOUR_NORM = 6.0
HEART_RATE_NORM_BPM = 60.0
SPEED_NORM_MPS = 10.0


class LocationType(Enum):
    __hash__ = object.__hash__  # singletons compared by identity; Enum.__hash__ runs Python in 3.11
    HOME = "home"
    OFFICE = "office"
    HIGHWAY = "highway"
    HOSPITAL = "hospital"
    BANK = "bank"
    ISOLATED = "isolated"
    OTHER = "other"

    def __init__(self, value: str) -> None:
        # the place as a generation seed part (OTHER says nothing of it); a plain read
        self.seed_text = None if value == "other" else value


HIGH_RISK_LOCATIONS = frozenset({LocationType.HIGHWAY, LocationType.HOSPITAL, LocationType.ISOLATED})


class PriorityTier(IntEnum):
    """Total order NONE < LOW < MEDIUM < HIGHEST; each member's trace `token`
    is its lowercase name, set once when the class is made."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGHEST = 3

    def __init__(self, value: int) -> None:
        self.token = self.name.lower()


@checked
class CallerContext(NamedTuple):
    """Current multimodal context of a caller at call time.

    Every field may be absent; absent fields score 0 in their factor.
    """

    location: tuple[float, float] | None = None  # km on the scenario plane
    location_type: LocationType = LocationType.OTHER
    hour_of_day: int | None = None
    heart_rate: float | None = None  # bpm
    moving_speed: float | None = None  # m/s

    def _check(self) -> None:
        if self.location is not None and not all(map(math.isfinite, self.location)):
            raise ValueError(f"location must be finite, got {self.location}")
        if self.hour_of_day is not None and not 0 <= self.hour_of_day <= 23:
            raise ValueError(f"hour_of_day must be in 0..23, got {self.hour_of_day}")
        if self.heart_rate is not None and not 20 <= self.heart_rate <= 250:
            raise ValueError(f"heart_rate must be in [20, 250], got {self.heart_rate}")
        if self.moving_speed is not None and not (
            math.isfinite(self.moving_speed) and self.moving_speed >= 0
        ):
            raise ValueError(f"moving_speed must be finite and >= 0, got {self.moving_speed}")


@checked
class BaselineProfile(NamedTuple):
    """Historical baseline a context is scored against."""

    usual_locations: frozenset[tuple[float, float]] = frozenset()
    usual_hours: frozenset[int] = frozenset(range(24))
    resting_heart_rate: float = 70.0
    usual_moving: bool = False

    def _check(self) -> None:
        if not all(math.isfinite(c) for point in self.usual_locations for c in point):
            raise ValueError("usual_locations must be finite")
        if not self.usual_hours:
            raise ValueError("usual_hours must be non-empty")
        if any(not 0 <= h <= 23 for h in self.usual_hours):
            raise ValueError("usual_hours entries must be in 0..23")
        if not 30 <= self.resting_heart_rate <= 120:
            raise ValueError(
                f"resting_heart_rate must be in [30, 120], got {self.resting_heart_rate}"
            )


@checked
class TierThresholds(NamedTuple):
    """Score partition boundaries; lower edges are inclusive."""

    theta_connect: float = 0.9
    theta_voice: float = 0.6
    theta_text: float = 0.3

    def _check(self) -> None:
        if not 0 < self.theta_text < self.theta_voice < self.theta_connect <= 1:
            raise ValueError(
                "thresholds must satisfy 0 < text < voice < connect <= 1, got "
                f"({self.theta_connect}, {self.theta_voice}, {self.theta_text})"
            )


@checked
class FactorWeights(NamedTuple):
    location: float = 1.0
    timing: float = 1.0
    health: float = 1.0
    activity: float = 1.0

    def _check(self) -> None:
        if not all(map(math.isfinite, self)):
            raise ValueError(f"weights must be finite, got {tuple(self)}")
        if any(w < 0 for w in self):
            raise ValueError("weights must be non-negative")
        if sum(self) == 0:
            raise ValueError("at least one weight must be positive")


class EmergencyAssessment(NamedTuple):
    factors: tuple[float, float, float, float]  # in `FACTORS` order
    emergency_score: float
    tier: PriorityTier


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def location_anomaly(ctx: CallerContext, profile: BaselineProfile) -> float:
    """High-risk location types score 1.0; otherwise distance to the
    nearest usual location, normalized by LOCATION_NORM_KM."""
    if ctx.location_type in HIGH_RISK_LOCATIONS:
        return 1.0
    if ctx.location is None or not profile.usual_locations:
        return 0.0
    cx, cy = ctx.location
    nearest = min(math.dist((cx, cy), usual) for usual in profile.usual_locations)
    return min(1.0, nearest / LOCATION_NORM_KM)


def timing_anomaly(ctx: CallerContext, profile: BaselineProfile) -> float:
    """Circular hour distance to the nearest usual hour, normalized by
    HOUR_NORM; 0 when the hour itself is usual or unreported."""
    hour = ctx.hour_of_day
    if hour is None or hour in profile.usual_hours:
        return 0.0
    gap = min(min(abs(hour - u), 24 - abs(hour - u)) for u in profile.usual_hours)
    return min(1.0, gap / HOUR_NORM)


def health_anomaly(ctx: CallerContext, profile: BaselineProfile) -> float:
    """Heart-rate elevation above the resting baseline, normalized by
    HEART_RATE_NORM_BPM and clamped to [0, 1]."""
    if ctx.heart_rate is None:
        return 0.0
    return _clamp01((ctx.heart_rate - profile.resting_heart_rate) / HEART_RATE_NORM_BPM)


def activity_anomaly(ctx: CallerContext, profile: BaselineProfile) -> float:
    """Moving speed normalized by SPEED_NORM_MPS, but only when movement
    is atypical for the caller."""
    if ctx.moving_speed is None or profile.usual_moving:
        return 0.0
    return min(1.0, ctx.moving_speed / SPEED_NORM_MPS)


FACTORS = {
    "location": location_anomaly,
    "timing": timing_anomaly,
    "health": health_anomaly,
    "activity": activity_anomaly,
}


def emergency_score(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Weighted average of factor scores, the weights first divided by the
    largest, so no positive scaling of them overflows or underflows (the
    score is exact when the largest is 1).  Raises ValueError when every
    weight is zero.  A weight vector is normalized once while it is among the
    16 latest used (`_normalized`)."""
    if len(scores) != len(weights) or not scores:
        raise ValueError("scores and weights must be equal-length, non-empty sequences")
    weights, total = _normalized(*weights)
    return sum(map(mul, weights, scores)) / total


@lru_cache(maxsize=16, typed=True)
def _normalized(*weights: float) -> tuple[tuple[float, ...], float]:
    """`weights` divided by the largest, and their sum; typed, since equal int
    and float weights may divide apart: 1 / (2**53 + 1) != 1.0 / (2**53 + 1)."""
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    largest = max(weights)
    if largest == 0:
        raise ValueError("at least one weight must be positive")
    weights = tuple(w / largest for w in weights)
    return weights, sum(weights)


def classify_tier(score: float, thresholds: TierThresholds = TierThresholds()) -> PriorityTier:
    if score >= thresholds.theta_connect:
        return PriorityTier.HIGHEST
    if score >= thresholds.theta_voice:
        return PriorityTier.MEDIUM
    if score >= thresholds.theta_text:
        return PriorityTier.LOW
    return PriorityTier.NONE


def assess(
    ctx: CallerContext,
    profile: BaselineProfile,
    weights: FactorWeights = FactorWeights(),
    thresholds: TierThresholds = TierThresholds(),
) -> EmergencyAssessment:
    """Score every factor, combine them, and classify the tier."""
    factors = tuple([anomaly(ctx, profile) for anomaly in FACTORS.values()])
    score = emergency_score(factors, weights)
    return EmergencyAssessment(
        factors=factors,
        emergency_score=score,
        tier=classify_tier(score, thresholds),
    )
