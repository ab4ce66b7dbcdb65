"""Command-line interface.

    gvbsim run <scenario> [--trace PATH] [--backend template|external=<target>]
               [--rng-seed N] [--abandon-timeout S]
    gvbsim score ['<call options>'] [--profile '<subscriber options>']
                 [--weights ...] [--thresholds ...]
    gvbsim gen '<burst options>' [--t S] [--loctype T]

Each quoted group is one argument: the options after `call <caller>
<callee>`, `subscriber <id>` or `burst <caller>` on a scenario line, read
by that line's rules, e.g. `'loc=(40,9) hour=3'` or `'transcript="help"'`.
A flag is spelled in full: a prefix of one is an unrecognized argument.

Exit codes: 0 success, 1 simulation error (`SimError`), 2 a parse error
(`ParseError`) or any other bad input (`ValueError`, `OSError`).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable

from .errors import ParseError, SimError
from .generation import build_backend
from .incapacity import Modality
from .policy import DEFAULT_BURST_SECONDS
from .scenario import (
    _parse_burst_options,
    _parse_context,
    _parse_loctype,
    _parse_profile,
    _parse_thresholds_value,
    _parse_weights_value,
    _split_line,
    parse_scenario,
)
from .scoring import FactorWeights, LocationType, TierThresholds, assess
from .sim import DEFAULT_ABANDON_TIMEOUT_S, RunConfig, run, substitute
from .trace import assessment_fields, render_trace


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gvbsim", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", allow_abbrev=False, help="run a scenario file and emit its trace")
    run_p.add_argument("scenario")
    run_p.add_argument("--trace", help="write the trace here instead of stdout")
    run_p.add_argument("--backend", default="template")
    run_p.add_argument("--rng-seed", type=int, default=0)
    run_p.add_argument("--abandon-timeout", type=int, default=DEFAULT_ABANDON_TIMEOUT_S)

    score_p = sub.add_parser("score", allow_abbrev=False, help="one-shot emergency scoring")
    score_p.add_argument("context", nargs="?", default="", help="a call line's options")
    score_p.add_argument("--profile", default="", help="a subscriber line's options")
    score_p.add_argument("--weights", type=_weights_arg, default=FactorWeights())
    score_p.add_argument("--thresholds", type=_thresholds_arg, default=TierThresholds())

    gen_p = sub.add_parser("gen", allow_abbrev=False, help="one-shot message generation")
    gen_p.add_argument("burst", help="a burst line's options")
    gen_p.add_argument("--t", type=int, default=DEFAULT_BURST_SECONDS)
    gen_p.add_argument("--loctype", type=_grammar_arg(_parse_loctype), default=LocationType.OTHER)
    return parser


def _cmd_run(args: argparse.Namespace) -> None:
    try:
        text = Path(args.scenario).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.scenario!r} is not UTF-8: {exc}") from None
    events = parse_scenario(text)
    backend = build_backend(args.backend)
    config = RunConfig(
        backend=backend,
        rng_seed=args.rng_seed,
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


def _read_options(label: str, text: str, rule: Callable[[list[str]], Any]) -> Any:
    """The options in one argument, split and read as a scenario line's."""
    try:
        tokens = _split_line(text)
    except ValueError as exc:
        raise ValueError(f"{label}: bad quoting: {exc}") from None
    return rule(tokens)


def _cmd_score(args: argparse.Namespace) -> None:
    ctx = _read_options("context", args.context, _parse_context)
    profile = _read_options("--profile", args.profile, _parse_profile)["profile"]
    assessment = assess(ctx, profile, args.weights, args.thresholds)
    for key, value in assessment_fields(assessment).items():
        print(f"{key}={value}")


def _cmd_gen(args: argparse.Namespace) -> None:
    burst = _read_options("burst", args.burst, _parse_burst_options)
    image = burst.pop("image")
    media = {Modality.IMAGE_DESCRIPTION.token: image} if image else {}
    message = substitute(RunConfig(), args.loctype.seed_text, args.t, media=media, **burst)
    if message is None:
        raise ValueError("a silent burst with no keywords, image or place seeds no message")
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
