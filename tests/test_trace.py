from __future__ import annotations

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbsim.errors import SimError
from gvbsim.generation import ExternalBackend, encode_text
from gvbsim.scenario import parse_scenario
from gvbsim.sim import RunConfig, Simulation, run
from gvbsim.trace import (
    TRACE_EVENTS,
    TraceRecord,
    encode_record,
    make_record,
    parse_trace,
    render_trace,
)

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


def test_emit_renders_in_table_order_and_rejects_a_wrong_count():
    sim = Simulation()
    sim._emit("BURST_DENIED", 3, "gap", None)
    sim._emit("BURST_DENIED", 3, "gap", 40)
    assert sim.records == [
        "t=0 seq=1 burst_scheduler BURST_DENIED session=3 reason=gap",
        "t=0 seq=2 burst_scheduler BURST_DENIED session=3 reason=gap eligible_at=40",
    ]
    for values in [(), (3, "x"), (None, 3), (3, None)]:
        with pytest.raises(TypeError, match="CALL_HELD declares 1 trace keys"):
            sim._emit("CALL_HELD", *values)
    assert len(sim.records) == 2
    sim._emit("GEN_FALLBACK", 3, "error", "50% off\nnow")
    sim._emit("BURST_REJECTED", "a b%\nc", None, "no_waiting_call")
    assert sim.records[2:] == [
        "t=0 seq=3 message_generator GEN_FALLBACK session=3 reason=error detail=50%25%20off%0Anow",
        "t=0 seq=4 sim_harness BURST_REJECTED caller=a%20b%25%0Ac reason=no_waiting_call",
    ]


@given(st.text())
def test_emit_encodes_a_value_as_encode_text_does(value: str):
    sim = Simulation()
    sim._emit("GEN_FALLBACK", 1, "error", value)
    [line] = sim.records
    header = "t=0 seq=1 message_generator GEN_FALLBACK session=1 reason=error"
    assert line == f"{header} detail={encode_text(value)}"
    assert TraceRecord(line).get("detail") == value


# The longest event (ASSESSMENT) takes eight values; each event takes the
# first as many as it declares keys.
@pytest.mark.parametrize("event", sorted(TRACE_EVENTS))
@given(values=st.lists(st.none() | st.integers() | st.text(), min_size=8, max_size=8))
@example(values=[" "] * 8)
@example(values=["%"] * 8)
@example(values=["\n"] * 8)
@example(values=["\r"] * 8)
@example(values=["None"] * 8)
@example(values=["é ü", "日本", 0, None, "x%y", "a\nb", "None", "\r"])
@example(values=[1, 2, 3, 4, 5, 6, 7, "50% off\nnow"])
def test_templates_match_the_reference_encoder(event: str, values: list):
    keys = TRACE_EVENTS[event][1]
    values = tuple(values[: len(keys)])
    line = make_record(5, 9, event, values)
    assert line == encode_record(5, 9, event, values)
    [record] = parse_trace(line + "\n")
    assert record.details == tuple((k, str(v)) for k, v in zip(keys, values) if v is not None)
    for wrong in (values[:-1], (*values, 1)):
        for encode in (make_record, encode_record):
            with pytest.raises(TypeError, match=f"{event} declares"):
                encode(5, 9, event, wrong)


def test_a_runs_lines_stay_out_of_the_cyclic_gc_until_run_returns():
    events = parse_scenario(stress_scenario(seed=2024, calls=60))
    sim = Simulation(RunConfig(abandon_timeout=STRESS_TIMEOUT))
    records = sim.run(events)
    assert sim.records and not any(map(gc.is_tracked, sim.records))
    assert records == sim.records
    assert {type(record) for record in records} == {TraceRecord}
    assert {type(record) for record in run(events)} == {TraceRecord}


def test_render_trace_ends_each_record_with_a_newline_and_leaves_the_list_alone():
    records = [TraceRecord("t=0 seq=1 call_engine CALL_HELD session=1"), "t=0 seq=2 x y"]
    text = render_trace(records)
    assert type(text) is str
    assert text == "t=0 seq=1 call_engine CALL_HELD session=1\nt=0 seq=2 x y\n"
    assert records == ["t=0 seq=1 call_engine CALL_HELD session=1", "t=0 seq=2 x y"]
    assert render_trace([]) == ""


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
    assert_round_trips(list(map(TraceRecord, sim.records)))


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
