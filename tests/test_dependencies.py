"""The only runtime dependency is numpy: every module of the package
imports the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import slemma

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "slemma"}


def _imported_roots(path):
    """Top-level names of the absolute imports in the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_stdlib_numpy_and_slemma():
    modules = sorted(Path(slemma.__file__).parent.rglob("*.py"))
    assert len(modules) >= 10
    foreign = {(path.name, root) for path in modules
               for root in _imported_roots(path) if root not in ALLOWED}
    assert not foreign
