"""The benchmark tracer's rebinding targets exist in the package.

``perfbench/tracer.py`` wraps module-level names such as
``morita.census.enumerate_multimorphisms``; a name that moves or goes away
breaks only the traced benchmark run, which the unit suite never makes.
"""

import importlib
import inspect
import sys
from pathlib import Path


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for modname, attr, span, kind in tracer.TARGETS:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{modname}.{attr} ({span}) is missing"
        assert inspect.isgeneratorfunction(fn) == (kind == "gen"), span
