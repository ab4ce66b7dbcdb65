"""Contextual anomaly factors, combined emergency score, and priority tiers.

Each factor compares the caller's current context against their baseline
profile and yields a score in [0, 1].  Missing inputs never escalate: an
absent sensor reading or an empty baseline contributes 0.  The combined
score is a normalized weighted average, classified into a tier by three
thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

from .errors import ZeroWeights

# Normalization constants for the factor formulas.  All are configuration
# knobs in principle; the module-level values are the defaults.
LOCATION_NORM_KM = 5.0
HOUR_NORM = 6.0
HEART_RATE_NORM_BPM = 60.0
SPEED_NORM_MPS = 10.0


class LocationType(Enum):
    HOME = "home"
    OFFICE = "office"
    HIGHWAY = "highway"
    HOSPITAL = "hospital"
    BANK = "bank"
    ISOLATED = "isolated"
    OTHER = "other"


HIGH_RISK_LOCATIONS = frozenset({LocationType.HIGHWAY, LocationType.HOSPITAL, LocationType.ISOLATED})


class PriorityTier(IntEnum):
    """Total order NONE < LOW < MEDIUM < HIGHEST."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGHEST = 3

    @property
    def token(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CallerContext:
    """Current multimodal context of a caller at call time.

    Every field may be absent; absent fields score 0 in their factor.
    """

    location: tuple[float, float] | None = None  # km on the scenario plane
    location_type: LocationType = LocationType.OTHER
    hour_of_day: int | None = None
    heart_rate: float | None = None  # bpm
    moving_speed: float | None = None  # m/s

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class BaselineProfile:
    """Historical baseline a context is scored against."""

    usual_locations: frozenset[tuple[float, float]] = frozenset()
    usual_hours: frozenset[int] = frozenset(range(24))
    resting_heart_rate: float = 70.0
    usual_moving: bool = False

    def __post_init__(self) -> None:
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


@dataclass(frozen=True)
class TierThresholds:
    """Score partition boundaries; lower edges are inclusive."""

    theta_connect: float = 0.9
    theta_voice: float = 0.6
    theta_text: float = 0.3

    def __post_init__(self) -> None:
        if not 0 < self.theta_text < self.theta_voice < self.theta_connect <= 1:
            raise ValueError(
                "thresholds must satisfy 0 < text < voice < connect <= 1, got "
                f"({self.theta_connect}, {self.theta_voice}, {self.theta_text})"
            )


@dataclass(frozen=True)
class FactorWeights:
    location: float = 1.0
    timing: float = 1.0
    health: float = 1.0
    activity: float = 1.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.as_tuple())):
            raise ValueError(f"weights must be finite, got {self.as_tuple()}")
        if any(w < 0 for w in self.as_tuple()):
            raise ValueError("weights must be non-negative")
        if sum(self.as_tuple()) == 0:
            raise ZeroWeights("at least one weight must be positive")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.location, self.timing, self.health, self.activity)


@dataclass(frozen=True)
class FactorScores:
    location: float
    timing: float
    health: float
    activity: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.location, self.timing, self.health, self.activity)


@dataclass(frozen=True)
class EmergencyAssessment:
    factors: FactorScores
    weights: FactorWeights
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


def emergency_score(scores: Sequence[float], weights: Sequence[float]) -> float:
    """Normalized weighted average of factor scores.

    Invariant under scaling all weights by a positive constant (up to
    float rounding).  Raises ZeroWeights when every weight is zero.
    """
    if len(scores) != len(weights) or not scores:
        raise ValueError("scores and weights must be equal-length, non-empty sequences")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    total = sum(weights)
    if total == 0:
        raise ZeroWeights("at least one weight must be positive")
    return sum(w * s for w, s in zip(weights, scores)) / total


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
    """Score all four factors, combine them, and classify the tier."""
    factors = FactorScores(
        location=location_anomaly(ctx, profile),
        timing=timing_anomaly(ctx, profile),
        health=health_anomaly(ctx, profile),
        activity=activity_anomaly(ctx, profile),
    )
    score = emergency_score(factors.as_tuple(), weights.as_tuple())
    return EmergencyAssessment(
        factors=factors,
        weights=weights,
        emergency_score=score,
        tier=classify_tier(score, thresholds),
    )
