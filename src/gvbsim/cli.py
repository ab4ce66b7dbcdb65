"""Command-line interface.

    gvbsim run <scenario> [--trace PATH] [--weights a,b,c,d]
               [--thresholds c,v,t] [--backend template|external=<target>]
               [--rng-seed N] [--speaking-rate WPS] [--abandon-timeout S]
    gvbsim score [--loc x,y] [--loctype T] [--hour H] [--hr BPM]
                 [--speed MPS] [--profile FILE] [--weights ...] [--thresholds ...]
    gvbsim gen --keywords "<text>" [--t S] [--loctype T] [--speaking-rate WPS]

Exit codes: 0 success, 1 simulation error (`SimError`), 2 a parse error
(`ParseError`) or any other bad input (`ValueError`, `OSError`).
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable

from .errors import ParseError, SimError
from .generation import (
    DEFAULT_SPEAKING_RATE_WPS,
    build_backend,
    compose_seed,
    fit_to_duration,
    generate_message,
)
from .scenario import (
    _parse_coordinates,
    _parse_float,
    _parse_hours,
    _parse_loctype,
    _parse_thresholds_value,
    _parse_weights_value,
    parse_scenario,
)
from .scoring import (
    BaselineProfile,
    CallerContext,
    FactorWeights,
    LocationType,
    TierThresholds,
    assess,
)
from .sim import DEFAULT_ABANDON_TIMEOUT_S, RunConfig, run
from .trace import assessment_fields, render_trace


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _grammar_arg(rule: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse `type=` that applies a scenario grammar rule and reports
    its message, where argparse would report only the rule's name."""

    def parse(text: str) -> object:
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_weights_arg = _grammar_arg(_parse_weights_value)
_thresholds_arg = _grammar_arg(_parse_thresholds_value)
_loctype_arg = _grammar_arg(_parse_loctype)


def _load_profile(path: str | None) -> BaselineProfile:
    """Read a JSON baseline profile; an unknown key or a malformed field
    raises ValueError."""
    if path is None:
        return BaselineProfile()
    import json  # here, its only reader, so `run` and `gen` never load it

    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"profile {path!r} nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("profile must be a JSON object")
    for key in data:
        if key not in ("home", "usual_hours", "resting_hr", "usual_moving"):
            raise ValueError(f"unknown profile key {key!r}")
    home, hours = data.get("home"), data.get("usual_hours", "0-23")
    if not isinstance(home, (list, type(None))):
        raise ValueError(f"home must be [x, y], got {home!r}")
    points = [] if home is None else [_parse_coordinates(home, home)]
    if isinstance(hours, str):
        hours = _parse_hours(hours)
    elif not (isinstance(hours, list) and all(type(h) is int for h in hours)):
        raise ValueError(f'usual_hours must be an "a-b" range or a list of hours, got {hours!r}')
    moving = data.get("usual_moving", False)
    if moving not in (True, False):  # 1 and 0 compare equal to them
        raise ValueError(f"usual_moving must be true or false, got {moving!r}")
    return BaselineProfile(
        usual_locations=frozenset(points),
        usual_hours=frozenset(hours),
        resting_heart_rate=_parse_float(data.get("resting_hr", 70), "resting_hr"),
        usual_moving=bool(moving),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gvbsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and emit its trace")
    run_p.add_argument("scenario")
    run_p.add_argument("--trace", help="write the trace here instead of stdout")
    run_p.add_argument("--weights", type=_weights_arg, default=FactorWeights())
    run_p.add_argument("--thresholds", type=_thresholds_arg, default=TierThresholds())
    run_p.add_argument("--backend", default="template")
    run_p.add_argument("--rng-seed", type=_non_negative_int, default=0)
    run_p.add_argument("--speaking-rate", type=_positive_float, default=DEFAULT_SPEAKING_RATE_WPS)
    run_p.add_argument(
        "--abandon-timeout", type=_non_negative_int, default=DEFAULT_ABANDON_TIMEOUT_S
    )

    score_p = sub.add_parser("score", help="one-shot emergency scoring")
    score_p.add_argument("--loc")
    score_p.add_argument("--loctype", type=_loctype_arg, default=LocationType.OTHER)
    score_p.add_argument("--hour", type=int)
    score_p.add_argument("--hr", type=float)
    score_p.add_argument("--speed", type=float)
    score_p.add_argument("--profile", help="JSON baseline profile file")
    score_p.add_argument("--weights", type=_weights_arg, default=FactorWeights())
    score_p.add_argument("--thresholds", type=_thresholds_arg, default=TierThresholds())

    gen_p = sub.add_parser("gen", help="one-shot message generation")
    gen_p.add_argument("--keywords", required=True)
    gen_p.add_argument("--t", type=int, default=5)
    gen_p.add_argument("--loctype", type=_loctype_arg, default=LocationType.OTHER)
    gen_p.add_argument("--speaking-rate", type=_positive_float, default=DEFAULT_SPEAKING_RATE_WPS)
    return parser


def _cmd_run(args: argparse.Namespace) -> None:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.scenario!r} is not UTF-8: {exc}") from None
    events = parse_scenario(text)
    backend = build_backend(args.backend)
    config = RunConfig(
        weights=args.weights,
        thresholds=args.thresholds,
        backend=backend,
        rng_seed=args.rng_seed,
        speaking_rate=args.speaking_rate,
        abandon_timeout=args.abandon_timeout,
    )
    try:
        records = run(events, config)
    finally:
        backend.close()
    rendered = render_trace(records)
    if args.trace:
        Path(args.trace).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)


def _cmd_score(args: argparse.Namespace) -> None:
    profile = _load_profile(args.profile)
    ctx = CallerContext(
        location=(
            _parse_coordinates(args.loc.strip("()").split(","), args.loc)
            if args.loc
            else None
        ),
        location_type=args.loctype,
        hour_of_day=args.hour,
        heart_rate=args.hr,
        moving_speed=args.speed,
    )
    assessment = assess(ctx, profile, args.weights, args.thresholds)
    for key, value in assessment_fields(assessment).items():
        print(f"{key}={value}")


def _cmd_gen(args: argparse.Namespace) -> None:
    seed = compose_seed(keywords=args.keywords, location=args.loctype.seed_text)
    message = generate_message(seed)
    message = fit_to_duration(message, args.t, args.speaking_rate)
    if not message.word_count:
        raise ValueError(f"no word fits {args.t}s at {args.speaking_rate} words/s")
    print(message.text)


def main(argv: list[str] | None = None) -> int:
    """Run one command; here, and only here, a failure picks the exit code."""
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "score": _cmd_score, "gen": _cmd_gen}[args.command]
    try:
        command(args)
    except SimError as exc:
        print(f"gvbsim: simulation error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"gvbsim: parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"gvbsim: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
