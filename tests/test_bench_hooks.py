"""The benchmark's per-layer hooks must name functions that exist.

`bench/spans.py` wraps solver functions by name.  A name that no longer
resolves shows up only as a missing metric in a traced benchmark run, so
this checks every entry of its HOOKS table here.
"""

import importlib
import sys
from pathlib import Path

import dpllsat.cli  # noqa: F401  (loads every module, as the benchmark does)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_hook_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    hooks = importlib.import_module("spans").HOOKS
    missing = []
    for name, (module_name, path) in hooks.items():
        owner = sys.modules.get("dpllsat." + module_name)
        for attribute in path.split("."):
            owner = getattr(owner, attribute, None)
        if not callable(owner):
            missing.append(name)
    assert hooks and missing == []
