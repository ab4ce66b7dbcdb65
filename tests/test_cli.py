from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gvbsim.cli import main

from .conftest import REPO_ROOT, SCENARIO_DIR


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


def test_sim_error_exits_1(tmp_path: Path, capsys):
    bad = tmp_path / "bad.gvb"
    bad.write_text("subscriber A\nat 5 hangup A\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert "simulation error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--rng-seed", "--abandon-timeout"])
def test_run_rejects_negative_integer_flags(flag: str, capsys):
    scenario = str(SCENARIO_DIR / "runtime_override.gvb")
    with pytest.raises(SystemExit) as exc:
        main(["run", scenario, flag, "-1"])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 0, got -1" in capsys.readouterr().err
    assert main(["run", scenario, flag, "0"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        "run {scenarios}/preapproved_bursts.gvb --weights 0,0,0,0",
        "score --weights 0,0,0,0",
        "run {scenarios}/runtime_override.gvb --weights nan,1,1,1",
        "run {scenarios}/preapproved_bursts.gvb --backend bogus",
        "run {scenarios}/preapproved_bursts.gvb --backend external=",
        "run {scenarios}/preapproved_bursts.gvb --speaking-rate 0",
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate 0",
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate -1",
        "run {scenarios}/silent_generative_burst.gvb --speaking-rate nan",
        "gen --keywords fire --speaking-rate inf",
        "score --speed nan",
        "score --loc nan,0 --profile {home_profile}",
        "score --loc 1,1 --profile {nan_profile}",
    ],
)
def test_input_faults_exit_2_without_a_traceback(argv: str, tmp_path: Path):
    home_profile = tmp_path / "home.json"
    home_profile.write_text('{"home": [0, 0]}', encoding="utf-8")
    nan_profile = tmp_path / "nan.json"
    nan_profile.write_text('{"home": [NaN, 0]}', encoding="utf-8")  # json.loads accepts NaN
    args = argv.format(scenarios=SCENARIO_DIR, home_profile=home_profile, nan_profile=nan_profile)
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


def test_cli_weights_and_thresholds_flags(tmp_path: Path, capsys):
    scenario = tmp_path / "s.gvb"
    scenario.write_text(
        "subscriber A\nsubscriber B\nsubscriber C\n"
        "at 0 call A B\n"
        "at 10 call C A loctype=highway\n",
        encoding="utf-8",
    )
    assert main(["run", str(scenario), "--weights", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "score=1.000000" in out
    assert "connect_override" in out
    assert main(["run", str(scenario), "--weights", "1,0,0,0", "--thresholds", "0.9,0.6,0.3"]) == 0


def test_score_subcommand(tmp_path: Path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps(
            {"home": [0, 0], "usual_hours": "8-22", "resting_hr": 70, "usual_moving": False}
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "score",
            "--loc",
            "40,9",
            "--loctype",
            "highway",
            "--hour",
            "3",
            "--hr",
            "130",
            "--speed",
            "14",
            "--profile",
            str(profile),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "score=0.958333" in out
    assert "tier=highest" in out


def test_score_defaults_to_an_uninformative_profile(capsys):
    assert main(["score"]) == 0
    out = capsys.readouterr().out
    assert "score=0.000000" in out
    assert "tier=none" in out


def test_score_rejects_bad_input(capsys):
    assert main(["score", "--hour", "99"]) == 2
    assert capsys.readouterr().err


def test_gen_subcommand(capsys):
    assert main(["gen", "--keywords", "House Fire Help Come"]) == 0
    out = capsys.readouterr().out.strip()
    assert "fire" in out.lower()
    assert out.endswith(".")


def test_gen_fits_the_duration(capsys):
    assert main(["gen", "--keywords", "please ring me", "--loctype", "highway", "--t", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert len(out.split()) <= 5  # floor(2 * 2.5)
    assert "Emergency" in out


def test_gen_rejects_bad_duration(capsys):
    assert main(["gen", "--keywords", "fire", "--t", "0"]) == 2
    assert capsys.readouterr().err
