"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions each gvbsim layer calls
with wrappers that record spans (name, start, end, parent) in memory;
`uninstall()` puts every original back.  `layer_metrics()` turns the
spans into self times, counts and ratios.  `Tracer.install(counts=True)`
instead wraps only the hot COUNTED methods with call counters, for a run
of its own whose times are not reported.  Nothing in `src/` knows about
this module.
"""
from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, layer).  A "Class.method" attribute wraps the method
# on the class.  The module functions are the names `gvbsim.sim` and
# `gvbsim.cli` imported, so the wrappers sit on the calls between layers.
SPANNED = (
    ("gvbsim.cli", "parse_scenario", "scenario"),
    ("gvbsim.cli", "run", "sim"),
    ("gvbsim.cli", "render_trace", "trace"),
    ("gvbsim.cli", "build_backend", "generation"),
    ("gvbsim.sim", "assess", "scoring"),
    ("gvbsim.sim", "route_waiting_call", "calls"),
    ("gvbsim.sim", "request_burst", "scheduler"),
    ("gvbsim.sim", "record_burst", "scheduler"),
    ("gvbsim.sim", "dismiss", "scheduler"),
    ("gvbsim.sim", "detect_keywords", "incapacity"),
    ("gvbsim.sim", "detect_silence", "incapacity"),
    ("gvbsim.sim", "flag_media", "incapacity"),
    ("gvbsim.sim", "assess_incapacity", "incapacity"),
    ("gvbsim.sim", "compose_seed", "generation"),
    ("gvbsim.sim", "generate_message", "generation"),
    ("gvbsim.sim", "fit_to_duration", "generation"),
    ("gvbsim.calls", "CallEngine.register", "calls"),
    ("gvbsim.calls", "CallEngine.place_call", "calls"),
    ("gvbsim.calls", "CallEngine.sessions", "calls"),
    ("gvbsim.calls", "CallEngine.apply_event", "calls"),
    ("gvbsim.calls", "CallEngine.hold", "calls"),
    ("gvbsim.calls", "CallEngine.resume", "calls"),
    ("gvbsim.calls", "CallEngine.connected_sessions", "calls"),
    ("gvbsim.calls", "CallEngine.waiting_sessions_for", "calls"),
    ("gvbsim.calls", "CallEngine.pick_waiting", "calls"),
    ("gvbsim.generation", "ExternalBackend.generate", "generation.external"),
    ("gvbsim.generation", "ExternalBackend.close", "generation.external"),
)
# Called millions of times per call_storm run, so a wrapper would roughly
# double its cost and inflate its caller's self time: only counted, and
# only in a counting run that installs no span wrappers.
COUNTED = (("gvbsim.calls", "CallEngine.get"),)


def _owner(module_name: str, attr: str):
    owner = sys.modules[module_name]
    name = attr
    if "." in attr:
        cls, name = attr.split(".")
        owner = getattr(owner, cls)
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.results: dict[str, list] = defaultdict(list)  # name -> observed outcomes
        self._stack: list[int] = []
        self._layer: dict[str, str] = {}
        self._counters: dict[str, itertools.count] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrappers --

    def _span(self, fn, name: str, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        outcomes = self.results[name]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if observe is not None:
                outcomes.append(observe(result))
            return result

        return wrapper

    @staticmethod
    def _count(fn, counter: itertools.count):
        tick = counter.__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, module_name: str, attr: str, make) -> None:
        try:
            owner, name = _owner(module_name, attr)
            original = owner.__dict__[name]
        except (KeyError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self, counts: bool = False) -> None:
        if counts:
            for module_name, attr in COUNTED:
                counter = self._counters[attr] = itertools.count()
                self._replace(module_name, attr, lambda fn, c=counter: self._count(fn, c))
            return
        observers = {
            "CallEngine.sessions": len,
            "request_burst": lambda r: type(r).__name__ == "Permit",
            "assess_incapacity": lambda r: bool(r.incapacitated),
            "generate_message": lambda r: r.fallback_reason is not None,
            "parse_scenario": len,
            "render_trace": lambda r: (r.count("\n"), len(r.encode("utf-8"))),
        }
        for module_name, attr, layer in SPANNED:
            self._layer[attr] = layer
            self._replace(
                module_name, attr,
                lambda fn, attr=attr: self._span(fn, attr, observers.get(attr)),
            )

    def wrap_entry(self, fn, name: str = "main", layer: str = "cli"):
        """Span around the entry point the benchmark calls itself."""
        self._layer[name] = layer
        return self._span(fn, name, None)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results --

    def counts(self) -> dict[str, int]:
        """Calls of each COUNTED method, after a counting run."""
        return {attr: next(counter) for attr, counter in self._counters.items()}

    def write_spans(self, path: str) -> None:
        """One span per line: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self, scenario_lines: int) -> dict[str, float]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_by_layer: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        for idx, (name, start, end, _parent) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            self_by_layer[self._layer[name]] += end - start - child_time[idx]
            if name == "generate_message":
                durations[name].append(end - start)
        res = self.results

        def ratio(hits, base) -> float:
            return hits / base if base else 0.0

        events = sum(res["parse_scenario"])
        records, size = res["render_trace"][0] if res["render_trace"] else (0, 0)
        latencies = sorted(durations["generate_message"])
        if len(latencies) >= 2:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
            p50, p99 = statistics.median(latencies), cuts[98]
        else:
            p50 = p99 = latencies[0] if latencies else 0.0
        return {
            "sim.run_s": total["run"],
            "sim.self_s": self_by_layer["sim"],
            "calls.self_s": self_by_layer["calls"],
            "calls.place_call_s": total["CallEngine.place_call"],
            "calls.sessions_calls": calls["CallEngine.sessions"],
            "calls.sessions_rows_per_event": ratio(sum(res["CallEngine.sessions"]), events),
            "scoring.assess_s": total["assess"],
            "scoring.assess_calls": calls["assess"],
            "scenario.parse_s": total["parse_scenario"],
            "scenario.us_per_line": ratio(total["parse_scenario"] * 1e6, scenario_lines),
            "scheduler.self_s": self_by_layer["scheduler"],
            "scheduler.requests": calls["request_burst"],
            "scheduler.permit_ratio": ratio(sum(res["request_burst"]), calls["request_burst"]),
            "incapacity.self_s": self_by_layer["incapacity"],
            "incapacity.windows": calls["assess_incapacity"],
            "incapacity.rate": ratio(sum(res["assess_incapacity"]), calls["assess_incapacity"]),
            "generation.self_s": self_by_layer["generation"],
            "generation.calls": calls["generate_message"],
            "generation.fallback_ratio": ratio(sum(res["generate_message"]), calls["generate_message"]),
            "generation.external_s": self_by_layer["generation.external"],
            "generation.latency_p50_ms": p50 * 1e3,
            "generation.latency_p99_ms": p99 * 1e3,
            "generation.latency_samples": len(latencies),
            "trace.render_s": total["render_trace"],
            "trace.records": records,
            "trace.bytes": size,
            "cli.self_s": self_by_layer["cli"],
        }
