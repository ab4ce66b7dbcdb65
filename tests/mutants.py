"""Mutants that the tier-1 tests must kill, re-runnable by hand:

    python3 tests/mutants.py             # every mutant
    python3 tests/mutants.py NAME ...    # only the named ones

Each mutant names a file, one exact snippet of it, the snippet's
replacement and the tier-1 node ids that must fail.  The script copies the
tree to a temporary directory and runs every named node id there once,
unmutated: they must pass.  It then applies each mutant in turn, runs only
its node ids, and restores the file.  A mutant is killed when pytest reports
a failing test (exit code 1); an error while collecting does not count.  A
snippet that is not in its file exactly once is a stale mutant, and an
error: a change to the code a mutant names re-aims or retires the mutant.
Pytest does not collect this file, as its name does not start with `test_`.
Takes under two minutes.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
_SKIP = shutil.ignore_patterns(".git", ".hypothesis", ".perfbench_work", ".pytest_cache", "__pycache__")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    node_ids: tuple[str, ...]


MUTANTS = (
    Mutant(
        "template_head_keeps_a_percent",
        "src/gvbsim/trace.py",
        ' and "%" not in head',
        "",
        ("tests/test_trace.py::test_templates_match_the_reference_encoder",),
    ),
    Mutant(
        "run_holds_gc_tracked_records",
        "src/gvbsim/trace.py",
        "return head + encode_text(str(last))",
        "return TraceRecord(head + encode_text(str(last)))",
        ("tests/test_trace.py::test_a_runs_lines_stay_out_of_the_cyclic_gc_until_run_returns",),
    ),
    Mutant(
        "render_trace_appends_to_the_callers_list",
        "src/gvbsim/trace.py",
        'return "\\n".join([*records, ""])',
        'records.append("")\n    return "\\n".join(records)',
        (
            "tests/test_trace.py::"
            "test_render_trace_ends_each_record_with_a_newline_and_leaves_the_list_alone",
        ),
    ),
    Mutant(
        "a_newline_is_not_encoded",
        "src/gvbsim/generation.py",
        '.replace("\\n", "%0A")',
        "",
        (
            "tests/test_trace.py::test_emit_renders_in_table_order_and_rejects_a_wrong_count",
            "tests/test_trace.py::test_emit_encodes_a_value_as_encode_text_does",
        ),
    ),
    Mutant(
        "place_call_scans_every_session",
        "src/gvbsim/calls.py",
        "for s in self.sessions_of(callee))",
        "for s in self.sessions() if s.state is not CallState.ENDED and callee in (s.caller, s.callee))",
        ("tests/test_tooling.py::test_the_engine_spends_flat_work_per_record_as_a_shape_grows[call_storm]",),
    ),
    Mutant(
        "a_burst_scans_the_records_made_so_far",
        "src/gvbsim/sim.py",
        "t = session.ledger.policy.burst_seconds_t\n",
        "t = session.ledger.policy.burst_seconds_t + 0 * sum(1 for _ in self.records)\n",
        ("tests/test_tooling.py::test_the_engine_spends_flat_work_per_record_as_a_shape_grows[burst_storm]",),
    ),
    Mutant(
        "session_ids_from_a_class_level_counter",
        "src/gvbsim/calls.py",
        "self._next_session_id += 1",
        "self._next_session_id = CallEngine._last = "
        'max(self._next_session_id, getattr(CallEngine, "_last", 0)) + 1',
        ("tests/test_tooling.py::test_module_caches_carry_nothing_from_one_run_to_the_next",),
    ),
    Mutant(
        "the_apostrophe_regex_accepts_a_bare_apostrophe",
        "src/gvbsim/scenario.py",
        """re.compile(r'[^"\\']*(?:"[^"]*"[^"\\']*)*')""",
        """re.compile(r'[^"]*(?:"[^"]*"[^"]*)*')""",
        ("tests/test_scenario.py::test_the_tokenizers_own_paths_match_shlex",),
    ),
    Mutant(
        "the_apostrophe_branch_is_dropped",
        "src/gvbsim/scenario.py",
        """("'" not in line or _QUOTED_APOSTROPHES.fullmatch(line))""",
        """"'" not in line""",
        ("tests/test_tooling.py::test_the_benchmark_lines_stay_off_shlex",),
    ),
    Mutant(
        "a_child_is_spawned_per_request",
        "src/gvbsim/generation.py",
        "        self._written -= 1\n",
        "        self._written -= 1\n        self._end_child()\n",
        (
            "tests/test_external_backend.py::test_one_relay_child_carries_every_request",
            "tests/test_external_backend.py::test_each_burst_sends_its_own_request_in_order_to_one_child",
            "tests/test_tooling.py::test_the_external_workload_writes_requests_ahead_to_one_child",
        ),
    ),
    Mutant(
        "ending_the_child_keeps_it",
        "src/gvbsim/generation.py",
        "proc, self._proc, self._written = self._proc, None, 0",
        "proc, self._written = self._proc, 0",
        ("tests/test_external_backend.py::test_after_a_failure_the_next_request_spawns_a_fresh_child",),
    ),
    Mutant(
        "a_run_leaves_its_backend_open",
        "src/gvbsim/cli.py",
        "    finally:\n        backend.close()\n",
        "    finally:\n        pass\n",
        ("tests/test_external_backend.py::test_a_run_ends_its_generator_child_as_it_exits",),
    ),
    Mutant(
        "close_keeps_the_child",
        "src/gvbsim/generation.py",
        '"""End the child and forget every request not yet answered."""\n        self._end_child()\n',
        '"""End the child and forget every request not yet answered."""\n',
        ("tests/test_external_backend.py::test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes",),
    ),
    Mutant(
        "a_child_that_never_reads_is_not_killed",
        "src/gvbsim/generation.py",
        "        proc.kill()\n",
        "",
        ("tests/test_external_backend.py::test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes",),
    ),
    Mutant(
        "an_ended_child_keeps_its_stdin",
        "src/gvbsim/generation.py",
        "            proc.stdin.close()\n",
        "            pass\n",
        ("tests/test_external_backend.py::test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes",),
    ),
    Mutant(
        "an_ended_child_is_not_reaped",
        "src/gvbsim/generation.py",
        "        proc.wait()\n",
        "",
        ("tests/test_external_backend.py::test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes",),
    ),
    Mutant(
        "an_ended_child_keeps_its_stdout",
        "src/gvbsim/generation.py",
        "        proc.stdout.close()\n",
        "",
        ("tests/test_external_backend.py::test_a_closed_backend_has_reaped_its_child_and_closed_its_pipes",),
    ),
    Mutant(
        "a_pipe_failure_is_not_raised",
        "src/gvbsim/generation.py",
        'raise ExternalGeneratorError(f"generator transport failed: {exc}") from exc',
        "pass",
        (
            "tests/test_external_backend.py::"
            "test_a_broken_pipe_drops_its_request_and_the_next_reply_spawns_a_fresh_child",
        ),
    ),
    Mutant(
        "a_bare_subscriber_line_is_read",
        "src/gvbsim/scenario.py",
        '    if not tokens:\n        raise ValueError("subscriber requires an id")\n',
        "",
        (
            "tests/test_scenario.py::test_a_missing_argument_or_an_unknown_option_is_a_parse_error",
            "tests/test_scenario.py::test_scenario_text_parses_or_raises_a_parse_error",
        ),
    ),
    Mutant(
        "an_unknown_policy_option_is_ignored",
        "src/gvbsim/scenario.py",
        'raise ValueError(f"unknown policy option {key!r}")',
        "pass",
        ("tests/test_scenario.py::test_a_missing_argument_or_an_unknown_option_is_a_parse_error",),
    ),
    Mutant(
        "sim_keeps_its_own_verdicts",
        "src/gvbsim/sim.py",
        "        verdict = assess_incapacity(signals)\n",
        "        key = tuple(signals)\n"
        '        verdicts = self.__dict__.setdefault("_verdicts", {})\n'
        "        verdict = verdicts.get(key) or verdicts.setdefault(key, assess_incapacity(key))\n",
        ("tests/test_tooling.py::test_caching_leaves_the_tracer_one_call_per_window",),
    ),
    Mutant(
        "gen_drops_the_image",
        "src/gvbsim/cli.py",
        "media = {Modality.IMAGE_DESCRIPTION.token: image} if image else {}",
        "media = {}",
        ("tests/test_cli.py::test_gen_seeds_the_message_with_the_burst_image",),
    ),
    Mutant(
        "the_readme_states_another_word_cap",
        "README.md",
        "request:  GENERATE max_words=50 ",
        "request:  GENERATE max_words=40 ",
        ("tests/test_tooling.py::test_the_readme_protocol_numbers_are_the_sources",),
    ),
    Mutant(
        "the_readme_states_another_speaking_rate",
        "README.md",
        "Messages are spoken at 2.5 words per second",
        "Messages are spoken at 3 words per second",
        ("tests/test_tooling.py::test_the_readme_speaking_rate_is_the_source",),
    ),
    Mutant(
        "run_reads_a_prefix_as_its_flag",
        "src/gvbsim/cli.py",
        'sub.add_parser("run", allow_abbrev=False, ',
        'sub.add_parser("run", ',
        (
            "tests/test_cli.py::test_any_argv_exits_0_1_or_2",
            "tests/test_cli.py::test_a_prefix_of_a_flag_or_a_removed_flag_is_unrecognized",
        ),
    ),
    Mutant(
        "gvbsim_reads_a_prefix_as_its_flag",
        "src/gvbsim/cli.py",
        'argparse.ArgumentParser(prog="gvbsim", allow_abbrev=False)',
        'argparse.ArgumentParser(prog="gvbsim")',
        ("tests/test_cli.py::test_a_prefix_of_a_flag_or_a_removed_flag_is_unrecognized",),
    ),
    Mutant(
        "an_expiry_is_pushed_a_second_late",
        "src/gvbsim/sim.py",
        "(self.clock + ABANDON_TIMEOUT_S, sid)",
        "(self.clock + ABANDON_TIMEOUT_S + 1, sid)",
        (
            "tests/test_acceptance.py::test_c7_golden_traces_hash_identically",
            "tests/test_sim.py::test_a_waiting_call_has_ended_one_second_after_its_expiry",
        ),
    ),
    Mutant(
        "the_readme_states_another_abandon_timeout",
        "README.md",
        "ends with `CALL_ENDED by=timeout` after 120 s",
        "ends with `CALL_ENDED by=timeout` after 60 s",
        ("tests/test_tooling.py::test_the_readme_abandon_timeout_is_the_source",),
    ),
    Mutant(
        "the_speaking_rate_leaves_the_benchmarks_copy",
        "src/gvbsim/generation.py",
        "SPEAKING_RATE_WPS = 2.5",
        "SPEAKING_RATE_WPS = 2.6",
        (
            "tests/test_tooling.py::test_the_benchmark_shadow_copies_the_engines_constants",
            "tests/test_tooling.py::test_the_readme_speaking_rate_is_the_source",
        ),
    ),
    Mutant(
        "burst_options_skip_the_repeated_key_rule",
        "src/gvbsim/scenario.py",
        '    for key, value in _options(tokens[1:]):\n        if key not in ("keywords", "image"):',
        '    for key, value in map(_split_kv, tokens[1:]):\n        if key not in ("keywords", "image"):',
        (
            "tests/test_scenario.py::test_burst_options_use_the_shared_repeated_key_rule",
            "tests/test_scenario.py::test_a_repeated_option_is_a_parse_error",
        ),
    ),
    Mutant(
        "the_readme_states_another_ask_ahead_cap",
        "README.md",
        "until the unanswered requests reach 8 KiB",
        "until the unanswered requests reach 16 KiB",
        ("tests/test_tooling.py::test_the_readme_protocol_numbers_are_the_sources",),
    ),
)


def _pytest(tree: Path, node_ids: tuple[str, ...]) -> subprocess.CompletedProcess[str]:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    problems = []
    with tempfile.TemporaryDirectory(prefix="gvbsim-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(REPO_ROOT, tree, ignore=_SKIP)
        stale = []
        for mutant in chosen:
            count = (tree / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
            if count != 1:
                stale.append(f"stale mutant {mutant.name}: its snippet is in {mutant.path} {count} times")
        if stale:
            print("\n".join(stale))
            return 1
        all_ids = tuple(dict.fromkeys(i for m in chosen for i in m.node_ids))
        result = _pytest(tree, all_ids)
        if result.returncode != 0:
            print(f"the unmutated tree fails its mutants' tests:\n{result.stdout[-3000:]}{result.stderr[-3000:]}")
            return 1
        print(f"PASS unmutated ({len(all_ids)} node ids)")
        for mutant in chosen:
            path = tree / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            start = time.monotonic()
            try:
                result = _pytest(tree, mutant.node_ids)
            finally:
                path.write_text(original, encoding="utf-8")
            killed = result.returncode == 1
            print(f"{'KILLED' if killed else 'SURVIVED'} {mutant.name} ({time.monotonic() - start:.1f}s)")
            if not killed:
                tail = result.stdout[-1500:] + result.stderr[-1500:]
                problems.append(f"{mutant.name}: pytest exit {result.returncode}\n{tail}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
