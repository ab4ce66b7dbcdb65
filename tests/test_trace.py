from __future__ import annotations

import pytest

from gvbsim.generation import ExternalBackend
from gvbsim.scenario import parse_scenario
from gvbsim.sim import RunConfig, Simulation, run
from gvbsim.trace import TRACE_EVENTS, TraceRecord

from .conftest import SCENARIO_DIR, stub_command
from .test_acceptance import STRESS_TIMEOUT, stress_scenario

# Reaches the events that neither the shipped scenarios nor the stress
# scenario emit: a silent window with nothing to seed a message from, and a
# generator that refuses every request.
RARE_EVENTS_SCENARIO = """\
weights 1,2,1,1
thresholds 0.8,0.5,0.2
subscriber A
subscriber B
subscriber C
policy A t=5 G=0 N=3 approve=C
at 0 call A B
at 1 call C A
at 2 burst C silence
at 10 burst C silence keywords="help fire"
"""


def schema_traces() -> list[list[TraceRecord]]:
    traces = [
        run(parse_scenario(path.read_text(encoding="utf-8")), RunConfig(rng_seed=7))
        for path in sorted(SCENARIO_DIR.glob("*.gvb"))
    ]
    stress = parse_scenario(stress_scenario(seed=2024))
    traces.append(run(stress, RunConfig(rng_seed=7, abandon_timeout=STRESS_TIMEOUT)))
    backend = ExternalBackend(stub_command("gen_error.py"), timeout=10.0)
    try:
        traces.append(run(parse_scenario(RARE_EVENTS_SCENARIO), RunConfig(backend=backend)))
    finally:
        backend.close()
    return traces


def test_every_record_follows_the_declared_schema():
    seen: set[str] = set()
    for records in schema_traces():
        for record in records:
            component, keys = TRACE_EVENTS[record.event]
            assert record.component == component, record.render()
            declared = iter(keys)  # `in` consumes it, so keys must come in declared order
            assert all(key in declared for key, _ in record.details), record.render()
            seen.add(record.event)
    assert sorted(set(TRACE_EVENTS) - seen) == []


def test_emit_renders_in_table_order_and_rejects_undeclared_keys():
    sim = Simulation()
    sim._emit("BURST_DENIED", eligible_at=None, reason="gap", session=3)
    sim._emit("BURST_DENIED", eligible_at=40, reason="gap", session=3)
    assert [record.render() for record in sim.records] == [
        "t=0 seq=1 burst_scheduler BURST_DENIED session=3 reason=gap",
        "t=0 seq=2 burst_scheduler BURST_DENIED session=3 reason=gap eligible_at=40",
    ]
    with pytest.raises(TypeError, match="sesion"):
        sim._emit("CALL_HELD", sesion=3)
    assert len(sim.records) == 2
