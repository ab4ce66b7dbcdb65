from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gvbsim.cli import main
from gvbsim.errors import ParseError
from gvbsim.generation import word_budget
from gvbsim.policy import DEFAULT_BURST_SECONDS
from gvbsim.scenario import parse_scenario
from gvbsim.sim import RunConfig
from gvbsim.trace import parse_trace

from .conftest import REPO_ROOT, SCENARIO_DIR
from .test_sim import EMERGENCY_CALL, PREAMBLE, run_text


def test_run_writes_a_trace_file(tmp_path: Path, capsys):
    trace = tmp_path / "out.trace"
    code = main(["run", str(SCENARIO_DIR / "preapproved_bursts.gvb"), "--trace", str(trace)])
    assert code == 0
    content = trace.read_text(encoding="utf-8")
    assert "PERMIT" in content
    assert "budget_exhausted" in content
    assert capsys.readouterr().out == ""


def test_run_prints_to_stdout_without_trace_flag(capsys):
    code = main(["run", str(SCENARIO_DIR / "runtime_override.gvb")])
    assert code == 0
    out = capsys.readouterr().out
    assert "CALL_OVERRIDE_CONNECTED" in out
    assert "score=0.958333" in out


def test_repeated_runs_hash_identically(tmp_path: Path):
    digests = []
    for name in ("a.trace", "b.trace"):
        path = tmp_path / name
        code = main(
            [
                "run",
                str(SCENARIO_DIR / "silent_generative_burst.gvb"),
                "--trace",
                str(path),
                "--rng-seed",
                "7",
            ]
        )
        assert code == 0
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_parse_error_exits_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.gvb"
    bad.write_text("at -5 call C A\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_scenario_exits_2(tmp_path: Path, capsys):
    assert main(["run", str(tmp_path / "nope.gvb")]) == 2
    assert capsys.readouterr().err


def test_scenario_that_is_not_utf8_exits_2(tmp_path: Path, capsys):
    bad = tmp_path / "bad.gvb"
    bad.write_bytes(b"subscriber A\xff\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gvbsim: ") and "is not UTF-8" in err
    assert err.count("\n") == 1


def test_sim_error_exits_1(tmp_path: Path, capsys):
    bad = tmp_path / "bad.gvb"
    bad.write_text("subscriber A\nat 5 hangup A\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "simulation error" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("subscriber A resting_hr=500", "resting_heart_rate must be in [30, 120], got 500"),
        ('subscriber ""', "subscriber id must be a non-empty ASCII token: ''"),
        ('subscriber "A B"', "subscriber id must be a non-empty ASCII token: 'A B'"),
        ("subscriber \u00c4", "subscriber id must be a non-empty ASCII token: '\u00c4'"),
        ('policy "A B" t=5 G=0 N=1', "subscriber id must be a non-empty ASCII token: 'A B'"),
        (
            'policy A t=5 G=0 N=1 approve="x y"',
            "subscriber id must be a non-empty ASCII token: 'x y'",
        ),
        ("weights 0,0,0,0", "at least one weight must be positive"),
        ("weights nan,1,1,1", "weights must be a finite number, got 'nan'"),
    ],
    ids=[
        "resting_hr", "empty_id", "spaced_id", "non_ascii_id", "policy_callee", "approve_id",
        "zero_weights", "nan_weights",
    ],
)
def test_an_out_of_range_subscriber_value_exits_2(
    line: str, message: str, tmp_path: Path, capsys
):
    bad = tmp_path / "bad.gvb"
    bad.write_text(line + "\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    assert capsys.readouterr().err == f"gvbsim: parse error: line 1: {message}\n"


_RUN = ["run", str(SCENARIO_DIR / "runtime_override.gvb")]


@pytest.mark.parametrize("flag", ["--rng-seed"])
def test_run_rejects_negative_integer_flags(flag: str, capsys):
    # RunConfig's own rule, which a library caller meets too
    field = flag.removeprefix("--").replace("-", "_")
    assert main([*_RUN, flag, "-1"]) == 2
    assert capsys.readouterr().err == f"gvbsim: {field} must be >= 0, got -1\n"
    assert main([*_RUN, flag, "0"]) == 0


INPUT_FILES = {
    "backward_time": "subscriber A\nsubscriber B\nat 7 call A B\nat 4 hangup A\n",
    "zero_weights": "weights 0,0,0,0\n"
    + (SCENARIO_DIR / "preapproved_bursts.gvb").read_text(encoding="utf-8"),
    "nan_weights": "weights nan,1,1,1\n"
    + (SCENARIO_DIR / "runtime_override.gvb").read_text(encoding="utf-8"),
}
DEEP_NESTING = "(" * 100000


@pytest.mark.parametrize(
    "argv",
    [
        "run {backward_time} --trace {tmp}/out.trace",
        "run {zero_weights}",
        "score --weights 0,0,0,0",
        "run {nan_weights}",
        "run {scenarios}/preapproved_bursts.gvb --backend bogus",
        "run {scenarios}/preapproved_bursts.gvb --backend external=",
        "run {scenarios}/preapproved_bursts.gvb --trace {tmp}/no-such-dir/out.trace",
        "run {scenarios}/preapproved_bursts.gvb --trace {tmp}",
        "run {scenarios}/preapproved_bursts.gvb --speaking-rate 0",  # a removed flag
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate 0",
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate -1",
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate nan",
        "gen transcript=fire --speaking-rate inf",
        "gen transcript=help --loctype bogus",
        "run {scenarios}/silent_generative_burst.gvb --rng-seed -1",
        "run {scenarios}/silent_generative_burst.gvb --abandon-timeout -1",  # a removed flag
        "score speed=nan",
        "score loc=(nan,0) --profile home=(0,0)",
        "score loc=(1,1) --profile home=(nan,0)",
        "score loc=((1,2",
        "score --profile home=5",
        "score --profile home=(1)",
        "score --profile usual_hours=5",
        "score --profile usual_hours=25-3",
        "score --profile [1]",
        "score --profile usual_moving=false",
        "score loc=(1,0) --profile home=(true,false)",
        "score --profile resting_hr=true",
        "score --profile resting_hr=70.5",
        "score --profile resting_HR=40",
        "score --profile home=\"(0,0)",
        "score --profile home={deep_nesting}",
    ],
)
def test_input_faults_exit_2_without_a_traceback(argv: str, tmp_path: Path):
    files = {name: tmp_path / name for name in INPUT_FILES}
    for name, path in files.items():
        path.write_text(INPUT_FILES[name], encoding="utf-8")
    args = argv.format(scenarios=SCENARIO_DIR, tmp=tmp_path, deep_nesting=DEEP_NESTING, **files)
    result = subprocess.run(
        [sys.executable, "-m", "gvbsim.cli", *args.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("gvbsim")
    assert not (tmp_path / "out.trace").exists()


HUGE = "9" * 400  # overflows a float


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "silent_generative_burst.gvb", "--backend", "external= "],
        ["run", "silent_generative_burst.gvb", "--backend", 'external=gen "unclosed'],
        ["gen", "silence keywords=fire", "--t", HUGE],
        ["gen", 'transcript="help me" keywords=fire keywords=smoke'],
        ["score", "loc=(1,1) hr=130 speed=nan"],
    ],
)
def test_input_faults_in_one_argument_exit_2(argv: list[str], capsys):
    # Arguments with spaces in them, which the table above cannot hold.
    if argv[0] == "run":
        argv = ["run", str(SCENARIO_DIR / argv[1]), *argv[2:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("gvbsim: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["tcp:nohost", "tcp:localhost:notaport", "tcp:localhost:65535"])
def test_a_tcp_target_is_a_command_name_that_falls_back(target: str, tmp_path: Path, capsys):
    # no socket transport: the spec names a command that cannot be spawned
    trace = tmp_path / "out.trace"
    code = main([
        "run", str(SCENARIO_DIR / "silent_generative_burst.gvb"), "--trace", str(trace),
        "--backend", f"external={target}",
    ])
    assert code == 0, capsys.readouterr().err
    records = parse_trace(trace.read_text(encoding="utf-8"))
    fallbacks = [r for r in records if r.event == "GEN_FALLBACK"]
    assert [r.get("reason") for r in fallbacks] == ["error"]
    assert fallbacks[0].get("detail").startswith("cannot reach generator: ")


def test_cli_weights_and_thresholds_flags(tmp_path: Path, capsys):
    # a run takes its weights and thresholds from scenario lines, which its
    # trace records; only `score`, which reads no scenario, has the flags
    scenario = tmp_path / "s.gvb"
    scenario.write_text(
        "weights 1,0,0,0\nthresholds 0.9,0.6,0.3\nsubscriber A\nsubscriber B\nsubscriber C\n"
        "at 0 call A B\n"
        "at 10 call C A loctype=highway\n",
        encoding="utf-8",
    )
    assert main(["run", str(scenario)]) == 0
    records = parse_trace(capsys.readouterr().out)
    assert [r.event for r in records[:2]] == ["WEIGHTS_SET", "THRESHOLDS_SET"]
    (assessment,) = [r for r in records if r.event == "ASSESSMENT"]
    (routing,) = [r for r in records if r.event == "ROUTING"]
    assert (assessment.get("score"), routing.get("kind")) == ("1.000000", "connect_override")
    for flag, value in (("--weights", "1,0,0,0"), ("--thresholds", "0.9,0.6,0.3")):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(scenario), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}\n" in capsys.readouterr().err
    assert RunConfig._fields == ("backend", "rng_seed")
    argv = ["score", "loctype=highway", "--weights", "1,0,0,0", "--thresholds", "0.9,0.6,0.3"]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("score=1.000000\ntier=highest\n")


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--weights", "1,2,3"),
        ("--weights", "x,1,1,1"),
        ("--weights", "0,0,0,0"),
        ("--thresholds", "0.3,0.6,0.9"),
        ("--thresholds", "0.9,0.6"),
    ],
)
def test_weights_and_thresholds_flags_report_the_scenario_rule(flag: str, value: str, capsys):
    with pytest.raises(ParseError) as line_error:
        parse_scenario(f"{flag.removeprefix('--')} {value}\n")
    with pytest.raises(SystemExit) as exc:
        main(["score", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {line_error.value.message}\n" in capsys.readouterr().err


def test_score_subcommand(capsys):
    code = main(
        [
            "score",
            "loc=(40,9) loctype=highway hour=3 hr=130 speed=14",
            "--profile",
            "home=(0,0) usual_hours=8-22 resting_hr=70 usual_moving=0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "score=0.958333" in out
    assert "tier=highest" in out


def test_score_prints_the_fields_of_the_assessment_record(capsys):
    # the options of EMERGENCY_CALL and of C's line in PREAMBLE
    records = run_text(PREAMBLE + "at 0 call A B\n" + EMERGENCY_CALL)
    (record,) = [r for r in records if r.event == "ASSESSMENT"]
    fields = [f"{k}={v}" for k, v in record.details if k not in ("session", "caller")]
    context = EMERGENCY_CALL.split(maxsplit=5)[5]  # after `at 10 call C A`
    profile = PREAMBLE.splitlines()[2].split(maxsplit=2)[2]  # after `subscriber C`
    assert main(["score", context, "--profile", profile]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == fields
    assert [field.partition("=")[0] for field in fields] == [
        "location", "timing", "health", "activity", "score", "tier"
    ]


@pytest.mark.parametrize(
    ("weights", "context", "expected"),
    [
        ("1e308,1e308,1e308,1e308", "loctype=highway hr=200 speed=20 hour=3", 0.75),
        ("1,1,1,1", "loctype=highway hr=200 speed=20 hour=3", 0.75),
        ("5e-324,0,0,0", "loc=(3,0)", 0.6),
        ("1,0,0,0", "loc=(3,0)", 0.6),
    ],
    ids=["huge", "huge_as_one", "tiny", "tiny_as_one"],
)
def test_score_reads_extreme_weights_as_their_ratio(
    weights: str, context: str, expected: float, capsys
):
    # 1e308 weights printed score=nan tier=none; 5e-324 escalated to highest
    argv = ["score", context, "--weights", weights, "--profile", "home=(0,0)"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [f"score={expected:.6f}", "tier=medium"]


def test_score_defaults_to_an_uninformative_profile(capsys):
    assert main(["score"]) == 0
    out = capsys.readouterr().out
    assert "score=0.000000" in out
    assert "tier=none" in out


def test_score_rejects_bad_input(capsys):
    assert main(["score", "hour=99"]) == 2
    assert capsys.readouterr().err


# `score` options have no scenario line, so their message stands alone.
@pytest.mark.parametrize(
    ("profile", "context", "message"),
    [
        ("resting_hr=60 resting_HR=40", "", "unknown subscriber option 'resting_HR'"),
        ("home=(1)", "", "expected (x,y), got '(1)'"),
        ("usual_hours=25-3", "", "usual_hours must be within 0..23, got '25-3'"),
        ("resting_hr=true", "", "resting_hr must be an integer, got 'true'"),
        ("", "loc=1", "expected (x,y), got '1'"),
        ("home=(0,0) home=(1,1)", "", "option 'home' given twice"),
        ('home="(0,0)', "", "--profile: bad quoting: No closing quotation"),
        ("", "hr=1 hr=2", "option 'hr' given twice"),
        ("", "Loc=(0,0)", "unknown call option 'Loc'"),
        ("", "hr=1 'loc=(0,0)", "context: bad quoting: No closing quotation"),
    ],
    ids=[
        "unknown_key", "home", "usual_hours", "resting_hr", "loc",
        "repeated_key", "unclosed_quote", "repeated_call_key", "unknown_call_key",
        "unclosed_call_quote",
    ],
)
def test_score_names_an_unknown_profile_key(
    profile: str, context: str, message: str, capsys
):
    assert main(["score", context, "--profile", profile]) == 2
    assert capsys.readouterr().err == f"gvbsim: {message}\n"


# The options of a `call` line after its ids and of a `subscriber` line
# after its id, valid and hostile; `score` reads both grammars.
CALL_OPTIONS = [
    "loc=(40,9)", "loc=(0,0)", "loc=(nan,0)", "loc=((1,2", "loc=1", "loc=",
    "loctype=highway", "loctype=HOME", "loctype=bogus",
    "hour=3", "hour=9", "hour=24", "hour=-1",
    "hr=130", "hr=70.5", "hr=nan", "hr=true", "hr=1e400",
    "speed=14", "speed=0", "speed=inf", "speed=-1",
    "Loc=(0,0)", "loc", "",
]
SUBSCRIBER_OPTIONS = [
    "home=(0,0)", "home=(40,9)", "home=(nan,0)", "home=(true,false)", "home=(1)", "home=5",
    "usual_hours=8-22", "usual_hours=22-3", "usual_hours=25-3", "usual_hours=5",
    "resting_hr=70", "resting_hr=130", "resting_hr=70.5", "resting_hr=true",
    "usual_moving=0", "usual_moving=1", "usual_moving=false",
    "resting_HR=40", "[1]", 'usual_moving="1', "'unclosed", "home=(0,0)\\", "# a comment",
]


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("agree") / "s.gvb"


@settings(deadline=None)
@given(
    st.lists(st.sampled_from(CALL_OPTIONS), max_size=4),
    st.lists(st.sampled_from(SUBSCRIBER_OPTIONS), max_size=4).map(" ".join),
)
@example(EMERGENCY_CALL.split()[5:], "home=(0,0) usual_hours=8-22 resting_hr=70 usual_moving=0")
@example(["loc=(1,1)"], "home=(nan,0)")
@example([], "usual_hours=25-3")
@example([], "resting_hr=true")
@example([], "home=(0,0) home=(0,0)")
@example(["hr=130", "hr=130"], "")
@example([], "resting_HR=40")
@example(["Loc=(0,0)"], "")
@example([], 'usual_moving="1')
def test_score_agrees_with_the_assessment_of_a_run(
    scenario_file: Path, context: list[str], profile: str
):
    # C's waiting call carries the context, C's subscriber line the profile
    scenario_file.write_text(
        f"subscriber A\nsubscriber B\nsubscriber C {profile}\nat 0 call A B\n"
        f"at 1 call C A {shlex.join(context)}\n",
        encoding="utf-8",
    )
    run_code, trace = _main(["run", str(scenario_file)])
    score_code, scored = _main(["score", shlex.join(context), "--profile", profile])
    assert (run_code, score_code) in ((0, 0), (2, 2))
    if run_code == 0:
        (record,) = [r for r in parse_trace(trace) if r.event == "ASSESSMENT"]
        fields = [f"{k}={v}" for k, v in record.details if k not in ("session", "caller")]
        assert scored.splitlines() == fields


def test_score_reads_its_call_options_before_or_after_a_flag(capsys):
    # read as several positionals, `score loctype=highway --weights 1,1,1,1 hr=200` exited 2
    fields = []
    for argv in (
        ["score", "--weights", "1,1,1,1", "loctype=highway hr=200"],
        ["score", "loctype=highway hr=200", "--weights", "1,1,1,1"],
    ):
        assert main(argv) == 0
        fields.append(capsys.readouterr().out)
    assert fields[0] == fields[1]
    assert "location=1.000000" in fields[0] and "health=1.000000" in fields[0]


def test_gen_subcommand(capsys):
    assert main(["gen", 'silence keywords="House Fire Help Come"']) == 0
    out = capsys.readouterr().out.strip()
    assert "fire" in out.lower()
    assert out.endswith(".")


def test_gen_fits_the_duration(capsys):
    argv = ["gen", 'silence keywords="please ring me"', "--loctype", "highway", "--t", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip()
    assert len(out.split()) <= 5  # floor(2 * 2.5)
    assert "Emergency" in out
    # with no --t, gen fits the t of a callee with no `policy` line: a
    # message of one sentence per step in the word budget keeps one, two
    # or all three sentences in t - 1, t and t + 1 seconds
    lengths = [DEFAULT_BURST_SECONDS - 1, DEFAULT_BURST_SECONDS, DEFAULT_BURST_SECONDS + 1]
    budgets = [0, *map(word_budget, lengths)]
    text = " ".join("word " * (budgets[i + 1] - budgets[i] - 1) + "end." for i in range(3))
    argv, fitted = ["gen", "silence keywords=fire"], {}
    with mock.patch("gvbsim.generation._template_text", return_value=text):
        for t in (*lengths, None):
            assert main([*argv, "--t", str(t)] if t else argv) == 0
            fitted[t] = capsys.readouterr().out
    assert [len(fitted[t].split()) for t in lengths] == budgets[1:]
    assert fitted[None] == fitted[DEFAULT_BURST_SECONDS]


def test_gen_rejects_bad_duration(capsys):
    assert main(["gen", "silence keywords=fire", "--t", "0"]) == 2
    assert capsys.readouterr().err


def test_gen_reads_loctype_as_a_run_does(capsys):
    out = {}
    for loctype in ("", "other", "highway", "HIGHWAY"):
        loctype_flag = ["--loctype", loctype] if loctype else []
        assert main(["gen", "silence keywords=help", *loctype_flag]) == 0
        out[loctype] = capsys.readouterr().out
    assert "Location" not in out[""]  # OTHER says nothing about the place
    assert out["other"] == out[""]
    assert "Location: highway." in out["highway"]
    assert out["HIGHWAY"] == out["highway"]


def test_gen_rejects_an_empty_keywords_option_as_a_burst_line_does(capsys):
    # `--keywords ""` generated from an empty seed part and exited 0
    assert main(["gen", 'silence keywords=""']) == 2
    assert capsys.readouterr().err == "gvbsim: keywords must be non-empty\n"


def test_gen_seeds_the_message_with_the_burst_image(capsys):
    # the transcript alone has no template term; the image picks the smoke template
    assert main(["gen", 'transcript="help" image="smoke"']) == 0
    assert capsys.readouterr().out == (
        "There is smoke everywhere. Please send the fire brigade.\n"
    )


# The options of a `burst` line after its caller, valid and hostile.
BURST_OPTIONS = [
    "silence", 'transcript="help me"', 'transcript="I am fine"', "transcript=help",
    'transcript="smoke everywhere, help"', "silence keywords=fire", 'silence image="smoke"',
    'silence keywords="chest pain" image="blood on the floor"', 'transcript="help" image="smoke"',
    'transcript="help me" image="smoke" keywords=fire', 'transcript="I am fine" image="fire"',
    'transcript="can\'t speak" keywords=accident', "silence keywords=intruder image=thief",
    'transcript="one two three four five six seven eight nine ten eleven twelve help"',
    "transcript=", 'silence keywords=""', "silence image=", "Silence", "",
    "silence keywords=fire keywords=smoke", 'transcript="help', "silence loctype=highway",
    "keywords=fire", "silence fire", "'unclosed", "silence \\",
]


@settings(deadline=None)
@given(
    st.integers(1, 10),
    st.sampled_from(["other", "highway"]),
    st.sampled_from(BURST_OPTIONS),
)
@example(5, "other", 'transcript="help" image="smoke"')
@example(5, "other", "silence")
@example(1, "highway", "silence")
@example(1, "other", "silence keywords=fire")
@example(5, "highway", 'silence keywords=""')
@example(5, "other", 'transcript="I am fine"')
def test_gen_prints_the_gen_text_of_the_matching_one_burst_run(
    scenario_file: Path, t: int, loctype: str, options: str
):
    scenario_file.write_text(
        f"subscriber A\nsubscriber B\nsubscriber C\npolicy A t={t} G=0 N=1 approve=C\n"
        f"at 0 call B A\nat 1 call C A loctype={loctype}\nat 2 burst C {options}\n",
        encoding="utf-8",
    )
    run_code, trace = _main(["run", str(scenario_file)])
    gen_code, generated = _main(["gen", options, "--t", str(t), "--loctype", loctype])
    assert run_code in (0, 2)
    if run_code == 2:
        assert gen_code == 2
        return
    records = parse_trace(trace)
    (incapacity,) = [r for r in records if r.event == "INCAPACITY"]
    gens = [r for r in records if r.event == "GEN"]
    if incapacity.get("incapacitated") == "1" and gens:
        assert (gen_code, generated) == (0, gens[0].get("text") + "\n")
        (sent,) = [r for r in records if r.event == "BURST_SENT"]  # never cut to no word
        assert sent.get("text") == gens[0].get("text")
    elif incapacity.get("incapacitated") == "1":
        assert gen_code == 2  # nothing seeds a message
    else:
        # the run sends the transcript itself; gen still shows the message
        # the transcript seeds
        assert not gens
        assert gen_code == 0


# -- argv fuzzing --

_FLAG_VALUES = {
    "--backend": ["template", "bogus", "external=", "external= ", 'external="unclosed'],
    "--t": ["1", "5", "0", "-3", HUGE, "x"],
    "--rng-seed": ["0", "7", "-1", HUGE],
    "--weights": ["1,1,1,1", "0,0,0,0", "nan,1,1,1", "1,2,3"],
    "--thresholds": ["0.9,0.6,0.3", "0.3,0.6,0.9", "1,1,1"],
    "--loctype": ["highway", "other", "bogus", ""],
    "--profile": [*SUBSCRIBER_OPTIONS, "home=(0,0) usual_hours=22-3 resting_hr=50", ""],
    "--trace": ["{trace}", "{trace_in_missing_dir}", "{trace_dir}"],
}
_COMMAND_FLAGS = {
    "run": ["--backend", "--rng-seed", "--trace"],
    "score": ["--profile", "--weights", "--thresholds"],
    "gen": ["--t", "--loctype"],
}
_SCENARIOS = [
    *(str(path) for path in sorted(SCENARIO_DIR.glob("*.gvb"))),
    "{huge_t}",
    "{missing}",
    "{not_utf8}",
]


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    if command == "run" and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(_SCENARIOS)))
    if command == "gen" and draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(BURST_OPTIONS)))
    if command == "score" and draw(st.integers(0, 9)):
        argv.append(" ".join(draw(st.lists(st.sampled_from(CALL_OPTIONS), max_size=4))))
    # now and then a flag of another command
    flags = st.sampled_from(_COMMAND_FLAGS[command] * 4 + sorted(_FLAG_VALUES))
    for flag in draw(st.lists(flags, max_size=4)):
        argv.append(flag)
        if draw(st.integers(0, 9)):  # now and then the value is missing
            argv.append(draw(st.sampled_from(_FLAG_VALUES[flag])))
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("argv")
    huge_t = root / "huge_t.gvb"
    huge_t.write_text(
        (SCENARIO_DIR / "silent_generative_burst.gvb")
        .read_text(encoding="utf-8")
        .replace("t=5 ", f"t={HUGE} "),
        encoding="utf-8",
    )
    not_utf8 = root / "not_utf8.gvb"
    not_utf8.write_bytes(b"subscriber A\xff\n")
    return {
        "huge_t": str(huge_t),
        "missing": str(root / "missing"),
        "not_utf8": str(not_utf8),
        "trace": str(root / "out.trace"),
        "trace_in_missing_dir": str(root / "no-such-dir" / "out.trace"),
        "trace_dir": str(root),
    }


@contextlib.contextmanager
def _working_directory(path: str):
    # contextlib.chdir, which Python 3.10 lacks
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def _no_spawn(argv, *args, **kwargs):
    pytest.fail(f"a generator process was started: {argv!r}")


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["run", _SCENARIOS[2], "--backend", "external= "])
@example(["run", _SCENARIOS[2], "--backend", 'external="unclosed'])
@example(["run", _SCENARIOS[0], "--t", "1"])
@example(["run", "{huge_t}"])
@example(["run", "{not_utf8}"])
@example(["gen", "silence keywords=fire", "--t", HUGE])
@example(["run", _SCENARIOS[0], "--trace", "{trace_in_missing_dir}"])
@example(["run", _SCENARIOS[0], "--trace", "{trace_dir}"])
@example(["run", _SCENARIOS[2], "--backend", "external=gen", "--rng-seed", "-1"])
@example(["run", _SCENARIOS[2], "--backend", "external=gen", "--abandon-timeout", "-1"])
@example(["score", "loc=(1,1) hr=130", "--profile", "home=(nan,0)"])
@example(["score", "--profile", "home=5"])
@example(["score", "--profile", "home=(1)"])
@example(["score", "--profile", "usual_hours=5"])
@example(["score", "--profile", "usual_hours=25-3"])
@example(["score", "--profile", "[1]"])
@example(["score", "--profile", "usual_moving=false"])
@example(["score", "loc=(1,0) loctype=highway", "--profile", "home=(true,false)"])
@example(["score", "--profile", "resting_hr=true"])
@example(["score", "--profile", "resting_HR=40"])
@example(["score", "--profile", "home=" + DEEP_NESTING])
def test_any_argv_exits_0_1_or_2(argv_files: dict[str, str], argv: list[str]):
    # and writes nothing in its working directory: every path it names is absolute
    argv = [arg.format(**argv_files) if arg.startswith("{") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with (
        tempfile.TemporaryDirectory() as cwd,
        mock.patch("subprocess.Popen", _no_spawn),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        with _working_directory(cwd):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        left = os.listdir(cwd)
    assert code in (0, 1, 2), err.getvalue()
    assert left == [], argv


_HEADS = {"run": ["run", "{scenario}"], "score": ["score"], "gen": ["gen", "silence keywords=fire"]}


@pytest.mark.parametrize(
    "argv",
    [
        # argparse once read `run s.gvb --t 1` (`--t` is gen's) as `--trace 1`
        # and wrote the trace to a file named `1` in the working directory
        ["run", "{scenario}", "--t", "1"],
        ["run", "{scenario}", "--speaking-rate", "2.5"],
        ["gen", "silence", "--speaking-rate", "1"],
        ["run", "{scenario}", "--abandon-timeout", "25"],
        ["--hel", "run", "{scenario}"],  # gvbsim's own --help
        *(
            [*_HEADS[command], flag[:-1], "1"]
            for command, flags in _COMMAND_FLAGS.items()
            for flag in [*flags, "--help"]
            if flag != "--t"
        ),
    ],
    ids=" ".join,
)
def test_a_prefix_of_a_flag_or_a_removed_flag_is_unrecognized(
    argv: list[str], tmp_path: Path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = [str(SCENARIO_DIR / "preapproved_bursts.gvb") if arg == "{scenario}" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    prefix = next(arg for arg in argv if arg.startswith("--"))
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
