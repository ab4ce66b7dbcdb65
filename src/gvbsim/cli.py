"""Command-line interface.

    gvbsim run <scenario> [--trace PATH] [--weights a,b,c,d]
               [--thresholds c,v,t] [--backend template|external=<target>]
               [--rng-seed N] [--speaking-rate WPS] [--abandon-timeout S]
    gvbsim score [--loc x,y] [--loctype T] [--hour H] [--hr BPM]
                 [--speed MPS] [--profile FILE] [--weights ...] [--thresholds ...]
    gvbsim gen --keywords "<text>" [--t S] [--loctype T] [--rng-seed N]
               [--speaking-rate WPS]

Exit codes: 0 success, 1 simulation error, 2 scenario/input parse error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ParseError, SimError, ZeroWeights
from .generation import (
    DEFAULT_SPEAKING_RATE_WPS,
    GenerationParams,
    SeedBundle,
    build_backend,
    compose_seed,
    fit_to_duration,
    generate_message,
)
from .scenario import parse_scenario
from .scoring import (
    BaselineProfile,
    CallerContext,
    FactorWeights,
    LocationType,
    TierThresholds,
    assess,
)
from .sim import DEFAULT_ABANDON_TIMEOUT_S, RunConfig, run
from .trace import fmt_score, render_trace


def _parse_weights(text: str) -> FactorWeights:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--weights requires four comma-separated numbers")
    try:
        return FactorWeights(*parts)
    except (ValueError, ZeroWeights) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_thresholds(text: str) -> TierThresholds:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--thresholds requires three comma-separated numbers")
    return TierThresholds(*parts)


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


def _parse_point(text: str) -> tuple[float, float]:
    parts = [float(p) for p in text.strip("()").split(",")]
    if len(parts) != 2:
        raise ValueError("--loc requires x,y")
    return (parts[0], parts[1])


def _load_profile(path: str | None) -> BaselineProfile:
    if path is None:
        return BaselineProfile()
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    hours = data.get("usual_hours", list(range(24)))
    if isinstance(hours, str):
        lo, _, hi = hours.partition("-")
        lo_i, hi_i = int(lo), int(hi)
        if lo_i <= hi_i:
            hours = list(range(lo_i, hi_i + 1))
        else:
            hours = list(range(lo_i, 24)) + list(range(0, hi_i + 1))
    home = data.get("home")
    return BaselineProfile(
        usual_locations=frozenset({(float(home[0]), float(home[1]))}) if home else frozenset(),
        usual_hours=frozenset(int(h) for h in hours),
        resting_heart_rate=float(data.get("resting_hr", 70)),
        usual_moving=bool(data.get("usual_moving", False)),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gvbsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file and emit its trace")
    run_p.add_argument("scenario")
    run_p.add_argument("--trace", help="write the trace here instead of stdout")
    run_p.add_argument("--weights", type=_parse_weights, default=FactorWeights())
    run_p.add_argument("--thresholds", type=_parse_thresholds, default=TierThresholds())
    run_p.add_argument("--backend", default="template")
    run_p.add_argument("--rng-seed", type=_non_negative_int, default=0)
    run_p.add_argument("--speaking-rate", type=_positive_float, default=DEFAULT_SPEAKING_RATE_WPS)
    run_p.add_argument(
        "--abandon-timeout", type=_non_negative_int, default=DEFAULT_ABANDON_TIMEOUT_S
    )

    score_p = sub.add_parser("score", help="one-shot emergency scoring")
    score_p.add_argument("--loc")
    score_p.add_argument("--loctype", default="other")
    score_p.add_argument("--hour", type=int)
    score_p.add_argument("--hr", type=float)
    score_p.add_argument("--speed", type=float)
    score_p.add_argument("--profile", help="JSON baseline profile file")
    score_p.add_argument("--weights", type=_parse_weights, default=FactorWeights())
    score_p.add_argument("--thresholds", type=_parse_thresholds, default=TierThresholds())

    gen_p = sub.add_parser("gen", help="one-shot message generation")
    gen_p.add_argument("--keywords", required=True)
    gen_p.add_argument("--t", type=int, default=5)
    gen_p.add_argument("--loctype")
    gen_p.add_argument("--rng-seed", type=int, default=0)
    gen_p.add_argument("--speaking-rate", type=_positive_float, default=DEFAULT_SPEAKING_RATE_WPS)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"gvbsim: {exc}", file=sys.stderr)
        return 2
    try:
        events = parse_scenario(text)
    except ParseError as exc:
        print(f"gvbsim: parse error: {exc}", file=sys.stderr)
        return 2
    try:
        backend = build_backend(args.backend)
    except ValueError as exc:
        print(f"gvbsim: {exc}", file=sys.stderr)
        return 2
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
    except SimError as exc:
        print(f"gvbsim: simulation error: {exc}", file=sys.stderr)
        return 1
    finally:
        backend.close()
    rendered = render_trace(records)
    if args.trace:
        Path(args.trace).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    try:
        profile = _load_profile(args.profile)
        ctx = CallerContext(
            location=_parse_point(args.loc) if args.loc else None,
            location_type=LocationType(args.loctype.lower()),
            hour_of_day=args.hour,
            heart_rate=args.hr,
            moving_speed=args.speed,
        )
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"gvbsim: {exc}", file=sys.stderr)
        return 2
    assessment = assess(ctx, profile, args.weights, args.thresholds)
    print(f"location={fmt_score(assessment.factors.location)}")
    print(f"timing={fmt_score(assessment.factors.timing)}")
    print(f"health={fmt_score(assessment.factors.health)}")
    print(f"activity={fmt_score(assessment.factors.activity)}")
    print(f"score={fmt_score(assessment.emergency_score)}")
    print(f"tier={assessment.tier.token}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        seed = compose_seed(SeedBundle(keywords=args.keywords, location_type=args.loctype))
        params = GenerationParams(rng_seed=args.rng_seed)
        message = generate_message(seed, params, speaking_rate=args.speaking_rate)
        message = fit_to_duration(message, args.t, args.speaking_rate)
    except ValueError as exc:
        print(f"gvbsim: {exc}", file=sys.stderr)
        return 2
    print(message.text)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "score":
        return _cmd_score(args)
    return _cmd_gen(args)


if __name__ == "__main__":
    raise SystemExit(main())
