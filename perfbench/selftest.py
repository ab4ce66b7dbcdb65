"""Self-tests for the benchmark itself (not part of the repository's test suite).

    python3 perfbench/selftest.py

Checks that the generator is deterministic and seed-sensitive, that its
scenarios parse, that the oracle rejects broken traces, that tracing
restores every wrapper and does not change the trace bytes, and that the
pinned digests in pins.json reproduce.  Takes about a minute.
"""
from __future__ import annotations

import hashlib
import sys
import time

import run  # puts perfbench/ on sys.path and defines ROOT
import gen
import genstub
import oracle

SMALL = {"call_storm": 200, "burst_storm": 600, "external_gen": 300}


def test_generator_is_seeded() -> None:
    for workload, size in SMALL.items():
        a, shape_a = gen.generate(workload, 5, size)
        b, shape_b = gen.generate(workload, 5, size)
        c, _ = gen.generate(workload, 6, size)
        assert a == b and shape_a == shape_b, f"{workload}: same seed, different bytes"
        assert a != c, f"{workload}: different seeds, same bytes"


def test_scenarios_parse() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from gvbsim.scenario import parse_scenario

    for workload, size in SMALL.items():
        text, _ = gen.generate(workload, 5, size)
        lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        assert len(parse_scenario(text)) == len(lines), workload


def test_stub_is_deterministic() -> None:
    line = "GENERATE max_words=6 temperature=0.9 sample=1 seed_rng=0 text=keywords:%20Fire"
    assert genstub.reply(line) == genstub.reply(line)
    assert genstub.reply(line).startswith("OK text=")
    assert len(genstub.reply(line)[len("OK text="):].split("%20")) <= 6
    assert genstub.reply("HELLO").startswith("ERR")


def _trace_of(workload: str, seed: int, size: int) -> str:
    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    scen = run.Scenario(workload, seed, size, work)
    runner = run.Runner(workload, work, time.monotonic() + 120)
    assert runner.run(scen) is not None, runner.problems
    return (work / f"{scen.key}.trace").read_text(encoding="utf-8")


def test_oracle_rejects_broken_traces() -> None:
    text = _trace_of("call_storm", 5, SMALL["call_storm"])
    _, expected = gen.generate("call_storm", 5, SMALL["call_storm"])
    assert oracle.check(text, expected, "call_storm")[0] == []
    lines = text.splitlines(keepends=True)
    ended = next(i for i, ln in enumerate(lines) if " CALL_ENDED " in ln)
    routed = next(i for i, ln in enumerate(lines) if " ROUTING " in ln and "tier=none" in ln)
    mutants = {
        "dropped CALL_ENDED": lines[:ended] + lines[ended + 1:],
        "wrong tier": lines[:routed] + [lines[routed].replace("tier=none", "tier=low")]
        + lines[routed + 1:],
        "swapped records": lines[:ended - 1] + [lines[ended], lines[ended - 1]] + lines[ended + 1:],
    }
    for name, mutant in mutants.items():
        assert oracle.check("".join(mutant), expected, "call_storm")[0], f"oracle missed: {name}"
    burst = _trace_of("burst_storm", 5, SMALL["burst_storm"])
    _, expected = gen.generate("burst_storm", 5, SMALL["burst_storm"])
    assert oracle.check(burst, expected, "burst_storm")[0] == []
    early = burst.replace(" BURST_SENT session=", " BURST_WINDOW_SILENT session=", 1)
    assert oracle.check(early, expected, "burst_storm")[0], "oracle missed a changed payload"


def test_tracer_restores_and_keeps_bytes() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    import gvbsim.cli
    import gvbsim.calls
    import gvbsim.generation
    import gvbsim.sim
    from tracer import COUNTED, SPANNED, Tracer, _owner

    names = [(m, a) for m, a, _ in SPANNED] + list(COUNTED)
    before = {(m, a): _owner(m, a)[0].__dict__[_owner(m, a)[1]] for m, a in names}
    tracer = Tracer()
    tracer.install()
    assert not tracer.missing, tracer.missing
    tracer.uninstall()
    after = {(m, a): _owner(m, a)[0].__dict__[_owner(m, a)[1]] for m, a in names}
    assert before == after, "a wrapper was not restored"

    for workload, size in SMALL.items():
        work = run.WORK / "selftest"
        work.mkdir(parents=True, exist_ok=True)
        scen = run.Scenario(workload, 5, size, work)
        runner = run.Runner(workload, work, time.monotonic() + 120)
        plain = runner.run(scen)
        traced = runner.run(scen, mode="traced")
        counted = runner.run(scen, mode="counted")
        assert plain and traced and counted and not runner.problems, runner.problems
        assert traced["layers"]["scenario.parse_s"] > 0, workload
        assert counted["counts"]["CallEngine.get"] > 0, workload


def test_pinned_digests_reproduce() -> None:
    for workload in gen.WORKLOADS:
        for seed in (gen.DEFAULT_SEED, gen.HELD_OUT_SEED):
            for size in (gen.FULL_SIZE[workload], gen.FULL_SIZE[workload] // 4):
                digest = hashlib.sha256(_trace_of(workload, seed, size).encode()).hexdigest()
                pinned = run.Runner(workload, run.WORK, 0).pins[workload][str(seed)][str(size)]
                assert digest == pinned, f"{workload} seed={seed} size={size}: {digest}"


def main() -> int:
    failures = 0
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            start = time.monotonic()
            try:
                test()
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name} ({time.monotonic() - start:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
