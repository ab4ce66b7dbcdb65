"""Deterministic call-waiting voice-burst engine and simulator.

The package exports the scenario-to-trace path; every other name lives in
its module (`gvbsim.scoring`, `gvbsim.calls`, ...).
"""
from __future__ import annotations

from .scenario import parse_scenario
from .sim import RunConfig, run
from .trace import TraceRecord, parse_trace, render_trace

__all__ = ["RunConfig", "TraceRecord", "parse_scenario", "parse_trace", "render_trace", "run"]
