from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gvbsim.scoring import (
    FACTORS,
    BaselineProfile,
    CallerContext,
    FactorWeights,
    LocationType,
    PriorityTier,
    TierThresholds,
    activity_anomaly,
    assess,
    classify_tier,
    emergency_score,
    health_anomaly,
    location_anomaly,
    timing_anomaly,
)

HOME_PROFILE = BaselineProfile(
    usual_locations=frozenset({(0.0, 0.0)}),
    usual_hours=frozenset(range(8, 23)),
    resting_heart_rate=70,
    usual_moving=False,
)


def circular_hour_gap(hour: int, usual: frozenset[int]) -> int:
    # Independent oracle: brute-force minimum over the 24-hour circle.
    return min(min(abs(hour - u), 24 - abs(hour - u)) for u in usual)


# -- location --

@pytest.mark.parametrize(
    "loctype", [LocationType.HIGHWAY, LocationType.HOSPITAL, LocationType.ISOLATED]
)
def test_high_risk_location_types_score_one(loctype):
    ctx = CallerContext(location=(0.0, 0.0), location_type=loctype)
    assert location_anomaly(ctx, HOME_PROFILE) == 1.0


def test_usual_location_scores_zero():
    ctx = CallerContext(location=(0.0, 0.0), location_type=LocationType.HOME)
    assert location_anomaly(ctx, HOME_PROFILE) == 0.0


def test_distance_is_normalized_by_five_km():
    # sqrt(1.5^2 + 2.0^2) = 2.5 km -> 2.5 / 5 = 0.5
    ctx = CallerContext(location=(1.5, 2.0), location_type=LocationType.OTHER)
    assert location_anomaly(ctx, HOME_PROFILE) == pytest.approx(0.5)


def test_far_distance_clamps_to_one():
    ctx = CallerContext(location=(40.0, 9.0), location_type=LocationType.OTHER)
    assert location_anomaly(ctx, HOME_PROFILE) == 1.0


def test_nearest_of_several_usual_locations_wins():
    profile = BaselineProfile(
        usual_locations=frozenset({(0.0, 0.0), (10.0, 0.0)}),
        usual_hours=frozenset({9}),
    )
    ctx = CallerContext(location=(9.0, 0.0), location_type=LocationType.OTHER)
    assert location_anomaly(ctx, profile) == pytest.approx(0.2)


def test_missing_location_data_never_escalates():
    no_baseline = BaselineProfile(usual_hours=frozenset({9}))
    ctx = CallerContext(location=(40.0, 9.0), location_type=LocationType.OTHER)
    assert location_anomaly(ctx, no_baseline) == 0.0
    assert location_anomaly(CallerContext(), HOME_PROFILE) == 0.0


# -- timing --

def test_usual_hour_scores_zero():
    assert timing_anomaly(CallerContext(hour_of_day=9), HOME_PROFILE) == 0.0


def test_three_am_against_daytime_habit():
    gap = circular_hour_gap(3, HOME_PROFILE.usual_hours)
    assert gap == 5
    assert timing_anomaly(CallerContext(hour_of_day=3), HOME_PROFILE) == pytest.approx(gap / 6)


def test_midnight_against_noon_habit_clamps():
    profile = BaselineProfile(usual_hours=frozenset({12}))
    assert timing_anomaly(CallerContext(hour_of_day=0), profile) == 1.0


def test_circular_distance_wraps_midnight():
    profile = BaselineProfile(usual_hours=frozenset({23}))
    assert timing_anomaly(CallerContext(hour_of_day=1), profile) == pytest.approx(2 / 6)


def test_unreported_hour_scores_zero():
    assert timing_anomaly(CallerContext(), HOME_PROFILE) == 0.0


# -- health --

def test_missing_heart_rate_scores_zero():
    assert health_anomaly(CallerContext(), HOME_PROFILE) == 0.0


def test_heart_rate_elevation_normalized_by_sixty():
    assert health_anomaly(CallerContext(heart_rate=130), HOME_PROFILE) == pytest.approx(1.0)
    assert health_anomaly(CallerContext(heart_rate=100), HOME_PROFILE) == pytest.approx(0.5)


def test_heart_rate_clamps_both_ways():
    assert health_anomaly(CallerContext(heart_rate=50), HOME_PROFILE) == 0.0
    assert health_anomaly(CallerContext(heart_rate=200), HOME_PROFILE) == 1.0


# -- activity --

def test_missing_speed_scores_zero():
    assert activity_anomaly(CallerContext(), HOME_PROFILE) == 0.0


def test_atypical_movement_normalized_by_ten():
    assert activity_anomaly(CallerContext(moving_speed=14), HOME_PROFILE) == 1.0
    assert activity_anomaly(CallerContext(moving_speed=5), HOME_PROFILE) == pytest.approx(0.5)


def test_usual_movers_score_zero():
    mover = BaselineProfile(usual_hours=frozenset({9}), usual_moving=True)
    assert activity_anomaly(CallerContext(moving_speed=14), mover) == 0.0


# -- combination --

def test_all_zero_factors_score_zero():
    assert emergency_score((0, 0, 0, 0), (1, 1, 1, 1)) == 0.0


def test_equal_weights_give_the_mean():
    assert emergency_score((1, 1, 0, 0), (1, 1, 1, 1)) == pytest.approx(0.5)


def test_runtime_emergency_context_scores_23_over_24():
    # Composition of the factor examples: (1 + 5/6 + 1 + 1) / 4 = 23/24.
    score = emergency_score((1.0, 5 / 6, 1.0, 1.0), (1, 1, 1, 1))
    assert score == pytest.approx(23 / 24, abs=1e-12)
    assert round(score, 3) == 0.958


def test_zero_weights_rejected():
    with pytest.raises(ValueError, match="at least one weight must be positive"):
        emergency_score((1, 1, 1, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="at least one weight must be positive"):
        FactorWeights(0, 0, 0, 0)


def test_bad_weight_vectors_rejected():
    with pytest.raises(ValueError):
        emergency_score((1, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        emergency_score((1, 1, 1, 1), (1, -1, 1, 1))
    with pytest.raises(ValueError):
        emergency_score((), ())


@pytest.mark.parametrize(
    ("scores", "weights", "expected"),
    [
        ((1, 0, 1, 1), (1e308, 1e308, 1e308, 1e308), 0.75),  # the sum overflowed: nan
        ((1, 0, 0, 0), (1e308, 1e308, 0, 0), 0.5),  # the sum overflowed: 0.0
        ((0.6, 0, 0, 0), (5e-324, 0, 0, 0), 0.6),  # the product underflowed: 1.0
    ],
    ids=["huge", "huge_pair", "tiny"],
)
def test_extreme_weights_score_as_their_ratio(scores, weights, expected: float):
    assert emergency_score(scores, weights) == expected


# -- classification --

def test_tier_partition():
    th = TierThresholds(0.9, 0.6, 0.3)
    assert classify_tier(0.958, th) is PriorityTier.HIGHEST
    assert classify_tier(0.0, th) is PriorityTier.NONE
    assert classify_tier(0.6, th) is PriorityTier.MEDIUM  # lower edge inclusive
    assert classify_tier(0.3, th) is PriorityTier.LOW
    assert classify_tier(0.9, th) is PriorityTier.HIGHEST
    assert classify_tier(0.29999, th) is PriorityTier.NONE


def test_threshold_ordering_enforced():
    with pytest.raises(ValueError):
        TierThresholds(0.3, 0.6, 0.9)
    with pytest.raises(ValueError):
        TierThresholds(1.1, 0.6, 0.3)


def test_context_field_validation():
    with pytest.raises(ValueError):
        CallerContext(hour_of_day=24)
    with pytest.raises(ValueError):
        CallerContext(heart_rate=300)
    with pytest.raises(ValueError):
        CallerContext(moving_speed=-1)
    with pytest.raises(ValueError):
        BaselineProfile(usual_hours=frozenset())
    with pytest.raises(ValueError, match="usual_hours entries must be in 0..23"):
        BaselineProfile(usual_hours=frozenset({24}))
    with pytest.raises(ValueError):
        BaselineProfile(usual_hours=frozenset({9}), resting_heart_rate=20)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FactorWeights(math.nan, 1, 1, 1),
        lambda: FactorWeights(1, 1, math.inf, 1),
        lambda: CallerContext(location=(math.nan, 0.0)),
        lambda: CallerContext(location=(0.0, -math.inf)),
        lambda: CallerContext(moving_speed=math.nan),
        lambda: CallerContext(moving_speed=math.inf),
        lambda: BaselineProfile(usual_locations=frozenset({(math.nan, 0.0)})),
    ],
    ids=[
        "weight-nan", "weight-inf", "location-nan", "location-inf", "speed-nan", "speed-inf",
        "usual-location-nan",
    ],
)
def test_non_finite_inputs_rejected(build):
    # nan slips past every range check (all comparisons are false) and
    # min(1.0, nan) is 1.0, so an accepted nan would escalate.
    with pytest.raises(ValueError, match="finite"):
        build()


# -- property checks --

def random_profile(rng: random.Random) -> BaselineProfile:
    return BaselineProfile(
        usual_locations=frozenset(
            (rng.uniform(-20, 20), rng.uniform(-20, 20)) for _ in range(rng.randint(0, 3))
        ),
        usual_hours=frozenset(rng.sample(range(24), rng.randint(1, 24))),
        resting_heart_rate=rng.uniform(40, 100),
        usual_moving=rng.random() < 0.3,
    )


def random_context(rng: random.Random) -> CallerContext:
    return CallerContext(
        location=(rng.uniform(-30, 30), rng.uniform(-30, 30)) if rng.random() < 0.8 else None,
        location_type=rng.choice(list(LocationType)),
        hour_of_day=rng.randrange(24) if rng.random() < 0.8 else None,
        heart_rate=rng.uniform(20, 250) if rng.random() < 0.8 else None,
        moving_speed=rng.uniform(0, 40) if rng.random() < 0.8 else None,
    )


def test_factor_scores_stay_in_unit_interval():
    rng = random.Random(20240811)
    factor_fns = (location_anomaly, timing_anomaly, health_anomaly, activity_anomaly)
    for _ in range(2000):
        ctx, profile = random_context(rng), random_profile(rng)
        for fn in factor_fns:
            assert 0.0 <= fn(ctx, profile) <= 1.0


def test_emergency_score_monotone_in_each_factor():
    rng = random.Random(7)
    for _ in range(2000):
        scores = [rng.random() for _ in range(4)]
        weights = [rng.uniform(0, 3) for _ in range(4)]
        if sum(weights) == 0:
            weights[0] = 1.0
        base = emergency_score(scores, weights)
        index = rng.randrange(4)
        bumped = list(scores)
        bumped[index] = min(1.0, bumped[index] + rng.random() * (1 - bumped[index]))
        assert emergency_score(bumped, weights) >= base - 1e-15


def test_weight_scaling_leaves_score_unchanged():
    rng = random.Random(99)
    for _ in range(2000):
        scores = [rng.random() for _ in range(4)]
        weights = [rng.uniform(0.01, 5) for _ in range(4)]
        scale = rng.uniform(0.001, 1000)
        original = emergency_score(scores, weights)
        scaled = emergency_score(scores, [w * scale for w in weights])
        assert math.isclose(original, scaled, abs_tol=1e-12)
        assert classify_tier(original) is classify_tier(scaled)


def test_classify_tier_is_monotone():
    rng = random.Random(3)
    th = TierThresholds()
    for _ in range(2000):
        a, b = sorted((rng.random(), rng.random()))
        assert classify_tier(a, th) <= classify_tier(b, th)


def test_fully_baseline_context_scores_zero():
    ctx = CallerContext(
        location=(0.0, 0.0),
        location_type=LocationType.HOME,
        hour_of_day=9,
        heart_rate=70,
        moving_speed=0.0,
    )
    result = assess(ctx, HOME_PROFILE)
    assert result.emergency_score == 0.0
    assert result.tier is PriorityTier.NONE


# -- values computed once, against the code they replace --

def _emergency_score_reference(scores, weights) -> float:
    """`emergency_score` as it was before its weights were cached."""
    if len(scores) != len(weights) or not scores:
        raise ValueError("scores and weights must be equal-length, non-empty sequences")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    largest = max(weights)
    if largest == 0:
        raise ValueError("at least one weight must be positive")
    weights = [w / largest for w in weights]
    return sum(w * s for w, s in zip(weights, scores)) / sum(weights)


def _score_outcome(score, scores, weights) -> str:
    try:
        return score(scores, weights).hex()
    except ValueError as exc:
        return f"ValueError: {exc}"


_WEIGHT = st.one_of(
    st.just(0.0), st.just(0), st.floats(-1, 1e308), st.integers(-1, 2**60), st.just(2**53 + 1)
)


@given(
    st.lists(_WEIGHT, max_size=5).flatmap(
        lambda w: st.tuples(st.just(w), st.lists(st.floats(0, 1), min_size=len(w), max_size=len(w)))
    ),
    st.booleans(),
)
@example(([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]), False)
@example(([0.0, 0.0, 3.0, 0.0], [0.2, 0.4, 0.6, 0.8]), True)
@example(([1e308, 1e308, 1e308, 1e308], [1.0, 0.0, 1.0, 1.0]), False)
@example(([1, 2**53 + 1], [1.0, 0.0]), True)  # equal to the next weights, but divides apart
@example(([1.0, 2**53 + 1], [1.0, 0.0]), True)
def test_cached_emergency_score_equals_the_uncached_formula(drawn, as_tuple: bool):
    weights, scores = drawn
    if as_tuple:
        weights = tuple(weights)
    expected = _score_outcome(_emergency_score_reference, scores, weights)
    for _ in range(2):  # the first call may fill the cache, the second reads it
        assert _score_outcome(emergency_score, scores, weights) == expected
    assert _score_outcome(emergency_score, scores[:-1], weights) == _score_outcome(
        _emergency_score_reference, scores[:-1], weights
    )


def _assess_reference(ctx, profile, weights) -> tuple[tuple[float, ...], float]:
    """`assess`'s factors and score as they were made with generator expressions."""
    factors = tuple(anomaly(ctx, profile) for anomaly in FACTORS.values())
    weights, total = _normalized_reference(weights)
    return factors, sum(w * s for w, s in zip(weights, factors)) / total


def _normalized_reference(weights) -> tuple[tuple[float, ...], float]:
    largest = max(weights)
    weights = tuple(w / largest for w in weights)
    return weights, sum(weights)


_COORD = st.floats(-30, 30)
_CONTEXTS = st.builds(
    CallerContext,
    location=st.none() | st.tuples(_COORD, _COORD),
    location_type=st.sampled_from(LocationType),
    hour_of_day=st.none() | st.integers(0, 23),
    heart_rate=st.none() | st.floats(20, 250),
    moving_speed=st.none() | st.floats(0, 40),
)
_PROFILES = st.builds(
    BaselineProfile,
    usual_locations=st.frozensets(st.tuples(_COORD, _COORD), max_size=3),
    usual_hours=st.frozensets(st.integers(0, 23), min_size=1),
    resting_heart_rate=st.floats(30, 120),
    usual_moving=st.booleans(),
)
_WEIGHT_VECTORS = st.tuples(*[st.floats(0, 1e308) | st.integers(0, 2**60)] * 4).filter(any)


@given(_CONTEXTS, _PROFILES, _WEIGHT_VECTORS)
@example(CallerContext(heart_rate=190.0), BaselineProfile(), (1e308, 1e308, 1e308, 1e308))
def test_assess_scores_bit_for_bit_as_the_generator_formula(ctx, profile, weights):
    factors, score = _assess_reference(ctx, profile, weights)
    result = assess(ctx, profile, FactorWeights(*weights))
    assert result.factors == factors
    assert result.emergency_score == score
    assert emergency_score(factors, weights) == score


def test_each_tiers_token_is_its_lowercase_name_and_each_places_seed_text_its_value():
    for tier in PriorityTier:
        assert tier.token == tier.name.lower()
    for place in LocationType:
        assert place.seed_text == (None if place is LocationType.OTHER else place.value)
