"""Names and tables that other code or docs repeat: the benchmark's tracer
wraps engine functions by name from outside the package, its generator
writes scenarios that the parser must accept and whose traces must match
its pinned digests, the handlers, the docs and the hostile-text property
each list the scenario directives, and the trace and the weights each
list the factors.
A rename or a new head in `src/` must fail here, not only in a traced run
or a reader's hands.  The error convention is checked here too."""
from __future__ import annotations

import argparse
import ast
import collections
import functools
import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import re
import select
import shlex
import subprocess
import sys

import pytest

from gvbsim import generation, scenario, sim
from gvbsim.cli import _build_parser, main
from gvbsim.errors import ParseError, SimError
from gvbsim.generation import SEED_LABELS
from gvbsim.incapacity import DISTRESS_LEXICON, KEYWORDS, MEDIA_MODALITIES
from gvbsim.policy import BurstPolicy
from gvbsim.scenario import _MEDIA_KEYS, DIRECTIVES, parse_scenario
from gvbsim.scheduler import BurstLedger, request_burst
from gvbsim.scoring import (
    FACTORS,
    HIGH_RISK_LOCATIONS,
    BaselineProfile,
    CallerContext,
    FactorWeights,
    PriorityTier,
    assess,
)
from gvbsim.sim import RunConfig, Simulation
from gvbsim.trace import TRACE_EVENTS, assessment_fields, parse_trace

from .conftest import REPO_ROOT, SCENARIO_DIR
from .test_acceptance import STRESS_TIMEOUT
from .test_cli import _COMMAND_FLAGS, _FLAG_VALUES
from .test_scenario import _TEMPLATES


def load_perfbench(monkeypatch, name: str):
    """Import perfbench/<name>.py without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    tracer = load_perfbench(monkeypatch, "tracer")
    names = [(module, attr) for module, attr, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert names
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the tracer replaces the attribute where it is defined, not an inherited one
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_every_benchmark_workload_parses(monkeypatch):
    # a parser rule stricter than the generator fails here, not in a benchmark run
    gen = load_perfbench(monkeypatch, "gen")
    for workload in gen.WORKLOADS:
        text, _ = gen.generate(workload, 7, gen.FULL_SIZE[workload] // 4)
        assert parse_scenario(text), workload


def run_pinned_quarter_size(gen, workload: str, tmp_path) -> tuple[bytes, str]:
    """Run the workload's pinned seed at a quarter of its full size through
    the CLI; the trace bytes and the digest `pins.json` holds for them."""
    pins = json.loads((REPO_ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    stub = shlex.join([sys.executable, str(REPO_ROOT / "perfbench" / "genstub.py")])
    size = gen.FULL_SIZE[workload] // 4
    text, _ = gen.generate(workload, gen.DEFAULT_SEED, size)
    scenario_path, trace_path = tmp_path / f"{workload}.gvb", tmp_path / f"{workload}.trace"
    scenario_path.write_text(text, encoding="utf-8")
    backend = ["--backend", f"external={stub}"] if workload == "external_gen" else []
    assert main(["run", str(scenario_path), "--trace", str(trace_path), *backend]) == 0
    return trace_path.read_bytes(), pins[workload][str(gen.DEFAULT_SEED)][str(size)]


def test_each_workload_reproduces_its_pinned_quarter_size_trace(monkeypatch, tmp_path):
    # the benchmark rejects a run whose trace differs from pins.json
    gen = load_perfbench(monkeypatch, "gen")
    for workload in gen.WORKLOADS:
        trace, pinned = run_pinned_quarter_size(gen, workload, tmp_path)
        assert hashlib.sha256(trace).hexdigest() == pinned, workload


def test_the_benchmark_lines_stay_off_shlex(monkeypatch):
    # the tokenizer hands a line to shlex only for an escape, a comment, a
    # `'` outside double quotes or an unclosed quote: of the workloads' lines
    # only the `#` header is one, a `can't speak` transcript is not
    calls = [0]

    def split(*args, **kwargs):
        calls[0] += 1
        return shlex_split(*args, **kwargs)

    shlex_split = shlex.split
    monkeypatch.setattr(shlex, "split", split)
    gen = load_perfbench(monkeypatch, "gen")
    for workload in gen.WORKLOADS:
        text, _ = gen.generate(workload, gen.DEFAULT_SEED, gen.FULL_SIZE[workload] // 4)
        assert "can't" in text, workload
        calls[0] = 0
        assert parse_scenario(text), workload
        comments = sum("#" in line for line in text.split("\n"))
        assert calls[0] == comments == 1, workload


def test_the_external_workload_asks_once_per_window(monkeypatch, tmp_path):
    # every incapacitated window asks its own request, a repeated context
    # included, its request line is built once, and the pinned trace keeps
    # its bytes
    asked, built = [], [0]

    def generate_message(seed, *args):
        asked.append(seed)
        return sim_generate_message(seed, *args)

    def build_request_line(*args):
        built[0] += 1
        return generation_build_request_line(*args)

    sim_generate_message = sim.generate_message
    generation_build_request_line = generation.build_request_line
    monkeypatch.setattr(sim, "generate_message", generate_message)
    monkeypatch.setattr(generation, "build_request_line", build_request_line)
    gen = load_perfbench(monkeypatch, "gen")
    trace, pinned = run_pinned_quarter_size(gen, "external_gen", tmp_path)
    assert hashlib.sha256(trace).hexdigest() == pinned
    gens = [r for r in parse_trace(trace.decode("utf-8")) if r.event == "GEN"]
    assert {r.get("backend") for r in gens} == {"external"}
    assert len(asked) == len(gens) > len(set(asked))
    assert built[0] == len(gens)


def test_the_external_workload_writes_requests_ahead_to_one_child(monkeypatch, tmp_path):
    # requests go to the child in windows of at least ASK_AHEAD_BYTES but the
    # last, and a window is written before the first of its replies is read;
    # the pinned trace keeps its bytes
    children, writes, written, at_first_read = [], [], [0], []

    class CountingStdin:
        def __init__(self, stdin):
            self.stdin = stdin

        def write(self, data: bytes) -> None:
            writes.append(len(data))
            written[0] += data.count(b"\n")
            self.stdin.write(data)

        def __getattr__(self, name):
            return getattr(self.stdin, name)

    def popen(*args, **kwargs):
        child = real_popen(*args, **kwargs)
        child.stdin = CountingStdin(child.stdin)
        children.append(child)
        return child

    def wait(*args):
        if not at_first_read:
            at_first_read.append(written[0])
        return real_select(*args)

    real_popen, real_select = subprocess.Popen, select.select
    monkeypatch.setattr(subprocess, "Popen", popen)
    monkeypatch.setattr(select, "select", wait)
    gen = load_perfbench(monkeypatch, "gen")
    trace, pinned = run_pinned_quarter_size(gen, "external_gen", tmp_path)
    assert hashlib.sha256(trace).hexdigest() == pinned
    assert len(children) == 1
    assert at_first_read[0] > 1
    assert len(writes) > 1 and min(writes[:-1]) >= generation.ASK_AHEAD_BYTES


def test_caching_leaves_the_tracer_one_call_per_window(monkeypatch, tmp_path):
    # the benchmark's per-layer counts are calls of the names gvbsim.sim
    # imported: a cache in front of a function must not skip its call, nor
    # one in front of a backend its window's message
    tracer_module, gen = load_perfbench(monkeypatch, "tracer"), load_perfbench(monkeypatch, "gen")
    text, _ = gen.generate("burst_storm", gen.DEFAULT_SEED, gen.FULL_SIZE["burst_storm"] // 4)
    scenario_path = tmp_path / "burst_storm.gvb"
    scenario_path.write_text(text, encoding="utf-8")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert main(["run", str(scenario_path), "--trace", str(tmp_path / "trace")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = collections.Counter(name for name, *_ in tracer.spans)
    records = parse_trace((tmp_path / "trace").read_text(encoding="utf-8"))
    events = collections.Counter(r.event for r in records)
    incapacitated = sum(r.get("incapacitated") == "1" for r in records if r.event == "INCAPACITY")
    assert calls["assess_incapacity"] == events["INCAPACITY"] > 0
    assert calls["request_burst"] == events["PERMIT"] + events["BURST_DENIED"]
    assert calls["record_burst"] == events["BURST_SENT"] + events["BURST_WINDOW_SILENT"]
    assert calls["compose_seed"] == incapacitated > 0
    assert calls["generate_message"] == events["GEN"] > 0


def test_module_caches_carry_nothing_from_one_run_to_the_next(monkeypatch, tmp_path):
    # incapacity's and sim's caches live as long as the process: a run after
    # another, in either order, traces as it does alone in a fresh process
    gen = load_perfbench(monkeypatch, "gen")
    text, _ = gen.generate("burst_storm", gen.DEFAULT_SEED, gen.FULL_SIZE["burst_storm"] // 20)
    storm = tmp_path / "burst_storm.gvb"
    storm.write_text(text, encoding="utf-8")
    scenarios = [storm, SCENARIO_DIR / "preapproved_bursts.gvb"]
    alone = {}
    for path in scenarios:
        trace = tmp_path / f"{path.stem}.alone"
        subprocess.run(
            [sys.executable, "-m", "gvbsim.cli", "run", str(path), "--trace", str(trace)],
            check=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            timeout=60,
        )
        alone[path] = trace.read_bytes()
    for order in (scenarios, scenarios[::-1]):
        for path in order:
            trace = tmp_path / f"{path.stem}.after"
            assert main(["run", str(path), "--trace", str(trace)]) == 0
            assert trace.read_bytes() == alone[path], path.name


def line_events_per_record(events: list) -> float:
    """Line events that `sys.settrace` sees while `Simulation.run` runs
    `events`, per trace record made."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        records = Simulation().run(events)
    finally:
        sys.settrace(previous)
    return count / len(records)


@pytest.mark.parametrize("workload", ["call_storm", "burst_storm"])
def test_the_engine_spends_flat_work_per_record_as_a_shape_grows(monkeypatch, workload):
    # counted work, not time, so the ratio is exact; both sizes in one process
    gen = load_perfbench(monkeypatch, "gen")
    small, large = (
        line_events_per_record(parse_scenario(gen.generate(workload, gen.DEFAULT_SEED, size)[0]))
        for size in (200, 800)
    )
    assert large <= 1.1 * small, (small, large)


def test_a_granted_burst_is_named_permit():
    # `scheduler.permit_ratio` counts results whose type is named "Permit"
    grant = request_burst(BurstLedger(BurstPolicy(callee="A")), now=0)
    assert type(grant).__name__ == "Permit"


def readme_grammar() -> str:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)


def grammar_heads(lines: list[str]) -> list[tuple[str, bool]]:
    """(head, has an `at <sec>` prefix) for each grammar line."""
    heads = []
    for line in lines:
        rest = line.removeprefix("at <sec> ")
        heads.append((rest.split()[0], rest != line))
    return heads


def test_the_directive_table_is_the_one_list_of_heads():
    declared = [(head, directive.takes_at) for head, directive in DIRECTIVES.items()]
    doc_block = scenario.__doc__.split("\n\n")[1]  # after the title line
    doc_lines = [line.strip() for line in doc_block.splitlines()]
    assert grammar_heads(readme_grammar().splitlines()) == declared
    assert grammar_heads([line for line in doc_lines if line != "# comment"]) == declared
    assert set(Simulation._HANDLERS) == set(DIRECTIVES)
    assert set(_TEMPLATES) == set(DIRECTIVES)


def test_each_handler_takes_the_fields_its_parser_returns():
    # Simulation.run calls handler(self, **event.args)
    for head, (template, defaults) in _TEMPLATES.items():
        prefix = "at 1 " if DIRECTIVES[head].takes_at else ""
        (event,) = parse_scenario(f"{prefix}{head} {template.format(*defaults)}\n")
        parameters = list(inspect.signature(Simulation._HANDLERS[head]).parameters)
        assert parameters == ["self", *event.args], head


def test_the_factors_are_declared_once():
    names = tuple(FACTORS)
    assert names == FactorWeights._fields
    assert names == TRACE_EVENTS["WEIGHTS_SET"][1]
    assert names == TRACE_EVENTS["ASSESSMENT"][1][2:-2]
    assert names == tuple(assessment_fields(assess(CallerContext(), BaselineProfile())))[:-2]


def test_the_media_kinds_are_declared_once():
    for grammar in (readme_grammar(), scenario.__doc__):
        kinds = re.search(r"media <caller> \((.*?)\)=", grammar).group(1)
        assert kinds == "|".join(_MEDIA_KEYS)
    assert all(modality.value in SEED_LABELS for modality in MEDIA_MODALITIES)


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ('media C noise="x"', "media kind must be one of image, video, gesture, got 'noise'"),
        ("media C", 'media requires <caller> and one image|video|gesture="..."'),
    ],
    ids=["kind", "arity"],
)
def test_a_bad_media_line_names_the_kinds(line: str, message: str):
    with pytest.raises(ParseError) as error:
        parse_scenario(f"at 1 {line}\n")
    assert error.value.message == message


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    subcommands = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subcommands.choices


def test_every_run_config_field_is_set_by_a_run_flag():
    # a knob that no caller can set is not configuration
    dests = {action.dest for action in subcommand_parsers()["run"]._actions}
    fields = set(RunConfig._fields)
    assert fields == dests - {"help", "scenario", "trace"}


# C's call scores 0.5: highest under the scenario's thresholds, low under the defaults.
THRESHOLDS_SCENARIO = """\
thresholds 0.5,0.4,0.3
subscriber A
subscriber B
subscriber C resting_hr=70
at 0 call B A
at 5 call C A loctype=highway hr=130
at 20 hangup C
at 30 hangup B
"""


def test_the_trace_holds_the_thresholds_its_routing_used(monkeypatch, tmp_path, capsys):
    # a run's thresholds come only from scenario lines, which the trace
    # records, so the benchmark's checker can follow its routing from the trace alone
    oracle = load_perfbench(monkeypatch, "oracle")
    scenario_path = tmp_path / "thresholds.gvb"
    scenario_path.write_text(THRESHOLDS_SCENARIO, encoding="utf-8")
    assert main(["run", str(scenario_path)]) == 0
    text = capsys.readouterr().out
    records = parse_trace(text)
    assert (records[0].seq, records[0].event) == (1, "THRESHOLDS_SET")
    (assessment,) = [r for r in records if r.event == "ASSESSMENT"]
    (routing,) = [r for r in records if r.event == "ROUTING"]
    assert (assessment.get("score"), routing.get("tier")) == ("0.500000", "highest")
    problems, _ = oracle.check(text, None, "thresholds")
    assert problems == []


def test_the_argv_fuzzer_draws_the_flags_of_each_command():
    # a flag the CLI dropped but the fuzzer still draws tests only argparse's rejection
    parsers = subcommand_parsers()
    assert set(_COMMAND_FLAGS) == set(parsers)
    for command, parser in parsers.items():
        flags = [flag for action in parser._actions for flag in action.option_strings]
        assert sorted(_COMMAND_FLAGS[command]) == sorted(set(flags) - {"-h", "--help"}), command
    assert set(_FLAG_VALUES) == {flag for flags in _COMMAND_FLAGS.values() for flag in flags}


def test_the_readme_lists_both_incapacity_vocabularies():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for vocabulary in (KEYWORDS, DISTRESS_LEXICON):
        listed = ", ".join(f"`{term}`" for term in vocabulary)
        assert listed in readme



def test_the_readme_protocol_numbers_are_the_sources():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## External generator protocol\n", 1)[1].split("\n## ", 1)[0]
    stated = {
        r"reach (\d+) KiB\s+\(`generation\.ASK_AHEAD_BYTES`": generation.ASK_AHEAD_BYTES / 1024,
        r"at most (\d+) KiB, newline included": generation.MAX_RESPONSE_LINE_BYTES / 1024,
        r"max_words=(\d+)": generation.MAX_WORDS,
        r"the same (\d+) words": generation.MAX_WORDS,
        r"temperature=([\d.]+)": generation.TEMPERATURE,
    }
    for pattern, value in stated.items():
        found = re.findall(pattern, section)
        assert found and {float(n) for n in found} == {value}, pattern


def test_the_readme_speaking_rate_is_the_source():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"([\d.]+) words per second\s+\(`generation\.SPEAKING_RATE_WPS`\)", readme)
    assert [float(n) for n in stated] == [generation.SPEAKING_RATE_WPS]
    assert readme.count("words per second") == 1  # the rate is stated once


def test_the_readme_abandon_timeout_is_the_source():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"after (\d+) s\s+\(`sim\.ABANDON_TIMEOUT_S`", readme)
    assert [int(n) for n in stated] == [sim.ABANDON_TIMEOUT_S]
    patched = re.findall(r"`sim\.ABANDON_TIMEOUT_S` patched\s+to (\d+)", readme)
    assert [int(n) for n in patched] == [STRESS_TIMEOUT]
    assert readme.count("by=timeout") == 1  # the rule is stated once


def test_the_benchmark_shadow_copies_the_engines_constants(monkeypatch):
    # perfbench/gen.py never imports gvbsim, so its model keeps copies that
    # would mispredict in silence if a source constant moved
    gen = load_perfbench(monkeypatch, "gen")
    assert gen.ABANDON_TIMEOUT == sim.ABANDON_TIMEOUT_S
    assert gen.SPEAKING_RATE == generation.SPEAKING_RATE_WPS
    assert set(gen.HIGH_RISK) == {location.value for location in HIGH_RISK_LOCATIONS}
    assert set(gen.KEYWORDS) <= set(KEYWORDS)
    assert gen.TIER_NAMES == tuple(tier.token for tier in sorted(PriorityTier))


_TRANSPORT_MODULES = ("subprocess", "socket", "shlex", "select", "queue", "threading")
# dataclasses alone loads inspect, ast, dis and tokenize: about half of a
# cold start that no gvbsim command needs
_UNUSED_STDLIB = ("dataclasses", "inspect", "json")
_IMPORT_PROBE = f"""
import sys
before = set(sys.modules)
import gvbsim.cli
loaded = set(sys.modules) - before
print(sorted(set({_TRANSPORT_MODULES!r}) & loaded))
print(sorted(set({_UNUSED_STDLIB!r}) & loaded))
gvbsim.cli.build_backend("external=generator --flag").close()
built = set(sys.modules) - before
print("subprocess" in built, "socket" in built)
"""


@functools.cache
def import_probe() -> tuple[str, ...]:
    # a fresh interpreter, since this one has loaded all of them already
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return tuple(result.stdout.splitlines())


def test_only_an_external_backend_loads_the_transport():
    transport, _, built = import_probe()
    assert (transport, built) == ("[]", "True False")


def test_importing_the_cli_loads_no_unused_stdlib_module():
    assert import_probe()[1] == "[]"


_ERROR_CLASSES = ("ParseError", "SimError", "ExternalGeneratorError", "ExternalTimeout")
_RAISABLE = {*_ERROR_CLASSES, "ValueError", "TypeError", "argparse.ArgumentTypeError", "SystemExit"}


def test_a_broken_rule_raises_value_error_and_errors_py_has_four_classes():
    src = REPO_ROOT / "src" / "gvbsim"
    errors = ast.parse((src / "errors.py").read_text(encoding="utf-8"))
    # the private base holds the line-numbered constructor of the first two
    assert [node.name for node in errors.body if isinstance(node, ast.ClassDef)] == [
        "_LineError",
        *_ERROR_CLASSES,
    ]
    other = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:  # not a bare re-raise
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in _RAISABLE:
                    other.append(f"{path.name}:{node.lineno} raises {ast.unparse(exc)}")
    assert other == []


def test_a_parse_error_and_a_sim_error_share_a_constructor_not_a_handler():
    # main maps ParseError to exit 2 and SimError to exit 1: neither catches the other
    assert not issubclass(SimError, ParseError) and not issubclass(ParseError, SimError)
    for cls in (ParseError, SimError):
        error = cls(7, "bad value")
        assert (str(error), error.line_no, error.message) == ("line 7: bad value", 7, "bad value")


def test_only_the_scenario_parser_gives_an_error_its_line():
    # a grammar rule raises ValueError; parse_scenario knows the line it broke
    builders = set()
    for path in sorted((REPO_ROOT / "src" / "gvbsim").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("ParseError"):
                around = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                innermost = max(around, key=lambda f: f.lineno, default=None)
                builders.add(f"{path.stem}.{innermost.name if innermost else '<module>'}")
    assert builders == {"scenario._lines", "scenario.parse_scenario"}


def test_only_main_maps_a_failure_to_an_exit_code():
    tree = ast.parse((REPO_ROOT / "src" / "gvbsim" / "cli.py").read_text(encoding="utf-8"))
    exits = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Constant)
                    and node.value.value in (1, 2)
                ):
                    exits.append((function.name, node.value.value))
    assert sorted(set(exits)) == [("main", 1), ("main", 2)]
