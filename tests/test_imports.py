"""Every module-level import in the package is used where it is bound.

A name that a module imports only so that the benchmark tracer
(``perfbench/tracer.py``) can rebind it there counts as used; the tracer's
``TARGETS`` say which names those are. ``__init__.py`` imports to export.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_module_level_import_is_used(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    rebound = {(modname, attr) for modname, attr, _, _
               in importlib.import_module("tracer").TARGETS}
    unused = []
    for path in sorted((ROOT / "src" / "morita").glob("*.py")):
        if path.name == "__init__.py":
            continue
        modname = f"morita.{path.stem}"
        unused += [f"{modname}.{name}" for name in _unused_imports(path)
                   if (modname, name) not in rebound]
    assert unused == []
