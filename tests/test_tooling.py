"""The benchmark's tracer wraps engine functions by name from outside the
package; a rename in `src/` must fail here, not only in a traced run."""
from __future__ import annotations

import importlib
import importlib.util
import sys

from .conftest import REPO_ROOT


def load_tracer(monkeypatch):
    """Import perfbench/tracer.py without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    names = [(module, attr) for module, attr, _ in tracer.SPANNED] + list(tracer.COUNTED)
    assert names
    missing = []
    for module_name, attr in names:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        # the tracer replaces the attribute where it is defined, not an inherited one
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
