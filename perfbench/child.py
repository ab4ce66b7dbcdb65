"""One fresh-interpreter `gvbsim run`, timed from the inside.

    python3 perfbench/child.py <root> <result.json> [--traced <spans.tsv> | --counted] -- <gvbsim run args>

Times `import gvbsim` plus building the backend (setup), then
`gvbsim.cli.main(run args)` from reading the scenario to writing the
trace (wall).  With `--traced`, the span wrappers from tracer.py are
installed after setup and removed after the run; with `--counted`, only
its call counters are.  Writes one JSON object to <result.json>.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, run_args = argv[:split], argv[split + 1:]
    root, result_path = Path(own[0]), own[1]
    mode = own[2] if len(own) > 2 else None
    spans_path = own[3] if mode == "--traced" else None
    src = root / "src"

    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import gvbsim.cli
    from gvbsim.generation import build_backend

    backend_spec = run_args[run_args.index("--backend") + 1] if "--backend" in run_args else "template"
    build_backend(backend_spec).close()
    setup_s = time.perf_counter() - t0
    if not Path(gvbsim.__file__).resolve().is_relative_to(src.resolve()):
        print(f"child: imported gvbsim from {gvbsim.__file__}, not {src}", file=sys.stderr)
        return 3

    entry = gvbsim.cli.main
    tracer = None
    if mode is not None:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(counts=mode == "--counted")
        if spans_path is not None:
            entry = tracer.wrap_entry(entry)
    t1 = time.perf_counter()
    try:
        rc = entry(["run", *run_args])
    finally:
        wall_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["missing"] = tracer.missing
    if mode == "--counted":
        result["counts"] = tracer.counts()
    elif spans_path is not None:
        scenario_lines = Path(run_args[0]).read_text(encoding="utf-8").count("\n")
        result["layers"] = tracer.layer_metrics(scenario_lines)
        tracer.write_spans(spans_path)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
