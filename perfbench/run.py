"""gvbsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a gvbsim checkout.  The load is a closed loop of one
client: each scenario run is a fresh `python3` process doing
`gvbsim run <scenario> --trace <file>` through `gvbsim.cli.main`, one at a
time, because every real `gvbsim run` pays cold imports.  gvbsim is an
offline batch simulator, so the benchmark reports work per second at a
stated input size rather than latency at offered rates.

--trace 0 interleaves full-size and quarter-size runs of the seeded
scenario for about --seconds and reports the end-to-end metrics.
--trace 1 makes one counting run, then alternates untraced and traced
full-size runs, and reports the per-layer metrics from tracer.py.  All of
it runs on one CPU.  Every run's trace is checked by oracle.py against the
generator's predicted shape, against the pinned digests in pins.json where
the seed is pinned, and against the other runs of the same scenario.
Every metric is also printed by name and unit before the last line, which
is the JSON result.
"""
from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle  # noqa: E402

RUN_BUDGET_S = 170  # a run, including a hung child, ends inside three minutes
MIN_CYCLES = {0: 2, 1: 1}
# Quarter-size runs per full-size run in a --trace 0 cycle.  A call_storm
# quarter-size run takes a tenth of its full-size run, so it needs more
# samples for per_event_growth's denominator to be as steady as its numerator.
QUARTERS_PER_FULL = {"call_storm": 3, "burst_storm": 1, "external_gen": 1}
PROBE_REFERENCE_S = 0.1  # probe() on an uncontended core of the baseline host

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "events_per_s": "1/s",
    "per_event_growth": "ratio", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "sim.run_s": "s", "sim.self_s": "s", "calls.self_s": "s", "calls.place_call_s": "s",
    "calls.sessions_calls": "count", "calls.sessions_rows_per_event": "count",
    "calls.get_per_event": "count", "scoring.assess_s": "s", "scoring.assess_calls": "count",
    "scenario.parse_s": "s", "scenario.us_per_line": "us", "scheduler.self_s": "s",
    "scheduler.requests": "count", "scheduler.permit_ratio": "ratio", "incapacity.self_s": "s",
    "incapacity.windows": "count", "incapacity.rate": "ratio", "generation.self_s": "s",
    "generation.calls": "count", "generation.fallback_ratio": "ratio",
    "generation.external_s": "s", "generation.latency_p50_ms": "ms",
    "generation.latency_p99_ms": "ms", "generation.latency_samples": "count",
    "trace.render_s": "s", "trace.records": "count", "trace.bytes": "B", "cli.self_s": "s",
    "tracing_overhead": "ratio",
}


def probe() -> float:
    """Seconds this core needs right now for a fixed loop of the dict,
    string and sort work gvbsim does.  Timed here, between children, so
    that the program under test cannot touch its own correction."""
    gc.disable()  # a collection would time this process's heap, not the core
    start = time.perf_counter()
    table: dict[str, int] = {}
    keys = []
    for i in range(300_000):
        key = f"k{i % 997}"
        table[key] = table.get(key, 0) + i % 7
        if i % 64 == 0:
            keys.append((table[key], key))
    keys.sort()
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Scenario:
    """A generated scenario file plus what the oracle needs to judge it."""

    def __init__(self, workload: str, seed: int, size: int, work: Path):
        text, self.expected = gen.generate(workload, seed, size)
        self.key = f"{workload}-{seed}-{size}"
        self.seed, self.size = seed, size
        self.path = work / f"{self.key}.gvb"
        self.path.write_text(text, encoding="utf-8")
        self.events = sum(
            1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")
        )


class Runner:
    """Runs scenarios in fresh interpreters and checks every output."""

    def __init__(self, workload: str, work: Path, deadline: float):
        self.workload, self.work, self.deadline = workload, work, deadline
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.counts: dict[str, object] = {}
        self.pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
        self.backend: list[str] = []
        if workload == "external_gen":
            stub = shlex.join([sys.executable, str(BENCH / "genstub.py")])
            self.backend = ["--backend", f"external={stub}"]

    def _fail(self, scen: Scenario, msg: str) -> None:
        self.failed += 1
        self.problems.append(f"{scen.key}: {msg}")

    def run(self, scen: Scenario, mode: str | None = None) -> dict | None:
        """One child run; mode is None, "traced" or "counted"."""
        self.attempted += 1
        out = self.work / f"{scen.key}.trace"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), str(result_path)]
        if mode == "traced":
            cmd += ["--traced", str(self.work / "spans.tsv")]
        elif mode == "counted":
            cmd += ["--counted"]
        cmd += ["--", str(scen.path), "--trace", str(out), *self.backend]
        probe_before = probe()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            self._fail(scen, "run did not finish inside the run budget")
            return None
        if proc.returncode != 0 or not result_path.exists():
            self._fail(scen, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["probe_s"] = (probe_before + probe()) / 2
        if result.get("missing"):
            # a renamed function would silently move its time to its caller
            self._fail(scen, f"tracer found no {', '.join(result['missing'])}")
            return None
        if result["rc"] != 0:
            self._fail(scen, f"gvbsim run exited {result['rc']}: {proc.stderr.strip()[-500:]}")
            return None
        data = out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.get(scen.key)
        if first is not None and digest != first:
            self._fail(scen, f"trace digest {digest[:12]} differs from the first run's {first[:12]}")
            return None
        if first is None:  # first output of this scenario: full check
            self.digests[scen.key] = digest
            pinned = self.pins.get(self.workload, {}).get(str(scen.seed), {}).get(str(scen.size))
            if pinned is not None and pinned != digest:
                self._fail(scen, f"trace digest {digest[:12]} differs from pinned {pinned[:12]}")
                return None
            problems, counts = oracle.check(data.decode("utf-8"), scen.expected, self.workload)
            if problems:
                self._fail(scen, "; ".join(problems))
                return None
            self.counts[scen.key] = counts
        return result


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(runner: Runner, full: Scenario, quarter: Scenario, trace: int, seconds: float) -> dict:
    """Repeat a cycle of runs until --seconds is used up."""
    start = time.monotonic()
    if trace == 0:
        cycle = (("full", full, None),) + (("quarter", quarter, None),) * QUARTERS_PER_FULL[
            runner.workload]
    else:
        cycle = (("untraced", full, None), ("traced", full, "traced"))
    samples: dict[str, list] = {slot: [] for slot, _, _ in cycle}
    if trace == 1:  # exact counts, the same in every run, so taken once
        counted = runner.run(full, mode="counted")
        samples["counted"] = [counted] if counted is not None else []
    cycles = 0
    while True:
        cycle_start = time.monotonic()
        for slot, scen, mode in cycle:
            result = runner.run(scen, mode=mode)
            if result is not None:
                samples[slot].append(result)
        cycles += 1
        elapsed = time.monotonic() - start
        per_cycle = elapsed / cycles
        if cycles >= MIN_CYCLES[trace] and (elapsed + per_cycle > seconds or runner.failed):
            break
        if time.monotonic() + 2 * (time.monotonic() - cycle_start) > runner.deadline:
            break
    return samples


def host_factor(samples: dict) -> float:
    """Scale from this run's host speed to the reference host speed.

    Other tenants of the host slow its cores in phases from seconds to
    minutes, so as-measured medians of one scenario spread by up to 58%
    from run to run.  Runner.run times probe() right before and after each
    child (`probe_s`); times are reported as medians scaled by
    PROBE_REFERENCE_S / median(probe_s).
    """
    probes = [r["probe_s"] for runs in samples.values() for r in runs]
    return PROBE_REFERENCE_S / _median(probes)


def end_to_end(samples: dict, full: Scenario, quarter: Scenario) -> dict[str, float]:
    fulls, quarters = samples["full"], samples["quarter"]
    scale = host_factor(samples)
    wall = _median([r["wall_s"] for r in fulls]) * scale
    # Both sides come from the same interleaved cycles, so host slowdowns hit
    # them alike.  Means, not medians: contention comes in sub-second bursts,
    # and the median of a few short quarter-size runs jumps between the
    # contended and the quiet level.
    growth = (statistics.fmean(f["wall_s"] for f in fulls) / full.events) / (
        statistics.fmean(q["wall_s"] for q in quarters) / quarter.events)
    return {
        "setup_s": _median([r["setup_s"] for r in fulls + quarters]) * scale,
        "wall_s": wall,
        "events_per_s": full.events / wall,
        "per_event_growth": growth,
        "peak_rss_mb": _median([r["rss_mb"] for r in fulls]),
    }


def per_layer(samples: dict, runner: Runner, full: Scenario) -> dict[str, float]:
    plain, traced, (counted,) = samples["untraced"], samples["traced"], samples["counted"]
    scale = host_factor(samples)
    timed = {name for name, unit in LAYER_UNITS.items() if unit in ("s", "ms", "us")}
    metrics = {
        name: _median([r["layers"][name] for r in traced]) * (scale if name in timed else 1)
        for name in traced[0]["layers"]
    }
    metrics["tracing_overhead"] = (
        _median([r["wall_s"] for r in traced]) / _median([r["wall_s"] for r in plain])
    )
    metrics["calls.get_per_event"] = counted["counts"]["CallEngine.get"] / full.events
    metrics.update(oracle.shape_metrics(runner.counts[full.key]))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    # One CPU for this process, the probe and every child.  On a shared VM a
    # wakeup across CPUs (the external generator's replies) took from
    # microseconds to milliseconds by phase, which made external_gen's time
    # vary twofold between runs; the line protocol is request/response, so the
    # engine and its generator child do not run in parallel anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # SystemExit inside subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    package = ROOT / "src" / "gvbsim"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no gvbsim sources at {package}; run from a gvbsim checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once, so that every measured run imports from the same
    # cached bytecode an installed gvbsim would use.
    if not compileall.compile_dir(str(package), quiet=1):
        print("perfbench: gvbsim sources do not compile", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)  # keep one run's scenarios and traces, not all
    work.mkdir(parents=True)
    size = gen.FULL_SIZE[args.workload]
    full = Scenario(args.workload, args.seed, size, work)
    quarter = Scenario(args.workload, args.seed, size // 4, work)
    runner = Runner(args.workload, work, deadline)
    if args.seed != gen.DEFAULT_SEED:
        # every run also proves the pinned bytes, whatever seed it measures
        runner.run(Scenario(args.workload, gen.DEFAULT_SEED, size // 4, work))

    samples = measure(runner, full, quarter, args.trace, args.seconds)
    correct = runner.failed == 0 and all(samples.values())
    metrics: dict[str, float] = {}
    if correct:
        if args.trace == 0:
            metrics, units = end_to_end(samples, full, quarter), END_TO_END_UNITS
        else:
            metrics = per_layer(samples, runner, full)
            units = {**LAYER_UNITS, **{k: "count" for k in metrics if k.startswith("shape.")}}
    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"workload={args.workload} seed={args.seed} full_size={size} quarter_size={size // 4}"
          f" events={full.events}/{quarter.events} runs={runner.attempted}"
          f" failed={runner.failed} error_rate={runner.failed / max(1, runner.attempted):g}")
    for slot, runs in samples.items():
        print(f"{slot} runs, wall_s as measured: " + " ".join(f"{r['wall_s']:.4g}" for r in runs))
        print(f"{slot} runs, probe_s: " + " ".join(f"{r['probe_s']:.4g}" for r in runs))
    if correct:
        print(f"host factor {host_factor(samples):.4f} (times below are scaled by it)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
