"""Every checked value type keeps its rules however an instance is built,
and no instance can be changed after it is built."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import gvbsim
from gvbsim.checked import Checked
from gvbsim.incapacity import Modality, ModalitySignal
from gvbsim.policy import BurstPolicy
from gvbsim.scheduler import BurstLedger
from gvbsim.scoring import BaselineProfile, CallerContext, FactorWeights, TierThresholds
from gvbsim.sim import RunConfig

# (a valid instance, a field, a value that breaks the type's rules)
CASES = {
    ModalitySignal: (ModalitySignal(Modality.KEYWORD, 1.0), "strength", 1.5),
    BurstPolicy: (BurstPolicy("A"), "burst_seconds_t", 0),
    BurstLedger: (BurstLedger(BurstPolicy("A")), "bursts_sent", -1),
    CallerContext: (CallerContext(), "hour_of_day", 24),
    BaselineProfile: (BaselineProfile(), "resting_heart_rate", 20.0),
    TierThresholds: (TierThresholds(), "theta_text", 0.7),
    FactorWeights: (FactorWeights(), "location", -1.0),
    RunConfig: (RunConfig(), "rng_seed", -1),
}
BUILDERS = {
    "positional": lambda cls, values, good: cls(*values),
    "keyword": lambda cls, values, good: cls(**dict(zip(cls._fields, values))),
    "_replace": lambda cls, values, good: good._replace(**dict(zip(cls._fields, values))),
    "_make": lambda cls, values, good: cls._make(values),
}


def test_every_checked_type_has_a_case():
    checked = set()
    for module in pkgutil.iter_modules(gvbsim.__path__, "gvbsim."):
        for value in vars(importlib.import_module(module.name)).values():
            if isinstance(value, type) and issubclass(value, Checked) and value is not Checked:
                checked.add(value)
    assert checked == set(CASES)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_every_construction_runs_the_check(cls, build):
    good, field, bad = CASES[cls]
    assert build(cls, tuple(good), good) == good
    values = tuple(bad if name == field else value for name, value in zip(cls._fields, good))
    with pytest.raises(ValueError):
        build(cls, values, good)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_a_checked_value_cannot_be_changed(cls):
    good, field, bad = CASES[cls]
    with pytest.raises(AttributeError):
        setattr(good, field, bad)
    with pytest.raises(AttributeError):
        good.note = "no instance has a __dict__"
