from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvbsim.errors import SimError
from gvbsim.generation import ExternalBackend, encode_text
from gvbsim.scenario import parse_scenario
from gvbsim.sim import RunConfig, Simulation, run
from gvbsim.trace import TRACE_EVENTS, TraceRecord, parse_trace, render_trace

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
            assert record.component == component, record
            declared = iter(keys)  # `in` consumes it, so keys must come in declared order
            assert all(key in declared for key, _ in record.details), record
            seen.add(record.event)
    assert sorted(set(TRACE_EVENTS) - seen) == []


def test_emit_renders_in_table_order_and_rejects_undeclared_keys():
    sim = Simulation()
    sim._emit("BURST_DENIED", eligible_at=None, reason="gap", session=3)
    sim._emit("BURST_DENIED", eligible_at=40, reason="gap", session=3)
    assert sim.records == [
        "t=0 seq=1 burst_scheduler BURST_DENIED session=3 reason=gap",
        "t=0 seq=2 burst_scheduler BURST_DENIED session=3 reason=gap eligible_at=40",
    ]
    with pytest.raises(TypeError, match="sesion"):
        sim._emit("CALL_HELD", sesion=3)
    assert len(sim.records) == 2
    sim._emit("GEN_FALLBACK", session=3, reason="error", detail="50% off\nnow")
    assert sim.records[2] == (
        "t=0 seq=3 message_generator GEN_FALLBACK session=3 reason=error detail=50%25%20off%0Anow"
    )


@given(st.text())
def test_emit_encodes_a_value_as_encode_text_does(value: str):
    sim = Simulation()
    sim._emit("GEN_FALLBACK", session=1, reason="error", detail=value)
    [record] = sim.records
    header = "t=0 seq=1 message_generator GEN_FALLBACK session=1 reason=error"
    assert record == f"{header} detail={encode_text(value)}"
    assert record.get("detail") == value


def assert_round_trips(records: list[TraceRecord]) -> None:
    """The trace reads back as the same records, and every value decodes to
    the one raw value whose encoding the line holds."""
    assert parse_trace(render_trace(records)) == records
    for record in records:
        fields = record.split(" ")[4:]
        assert [f"{key}={encode_text(record.get(key))}" for key, _ in record.details] == fields


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    calls=st.integers(20, 300),
    timeout=st.sampled_from([0, 7, STRESS_TIMEOUT, 120]),
)
def test_stress_traces_round_trip(seed: int, calls: int, timeout: int):
    sim = Simulation(RunConfig(rng_seed=seed, abandon_timeout=timeout))
    try:
        sim.run(parse_scenario(stress_scenario(seed, calls=calls)))
    except SimError:
        pass  # the records emitted before the error still round-trip
    assert sim.records
    assert_round_trips(sim.records)


def test_raw_line_break_characters_round_trip():
    backend = ExternalBackend(stub_command("gen_cr.py"), timeout=10.0)
    try:
        records = run(parse_scenario(RARE_EVENTS_SCENARIO), RunConfig(backend=backend))
    finally:
        backend.close()
    texts = [record.get("text") for record in records if record.event in ("GEN", "BURST_SENT")]
    assert texts == ["help\rme\x0bnow"] * 2
    assert_round_trips(records)
    # str.splitlines also breaks at the raw \r and \x0b; parse_trace does not
    assert len(render_trace(records).splitlines()) == len(records) + 4


@pytest.mark.parametrize(
    "line",
    [
        "",
        "seq=1 t=0 call_engine CALL_HELD session=1",
        "t=x seq=1 call_engine CALL_HELD session=1",
        "t=0 seq=1 call_engine CALL_PARKED session=1",
        "t=0 seq=1 sim_harness CALL_HELD session=1",
        "t=0 seq=1 call_engine CALL_HELD sesion=1",
        "t=0 seq=1 call_engine CALL_ENDED by=A session=1",
        "t=0 seq=1 call_engine CALL_HELD session",
        "t=0 seq=1 call_engine CALL_HELD  session=1",
    ],
)
def test_parse_trace_rejects_a_line_that_is_not_a_record(line: str):
    good = "t=0 seq=1 call_engine CALL_HELD session=1"
    assert parse_trace(good + "\n") == [good]
    with pytest.raises(ValueError, match="line 2"):
        parse_trace(f"{good}\n{line}\n")
