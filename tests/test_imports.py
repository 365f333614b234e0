"""No module of the package or of its tests imports a name it never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that nothing in it reads.

    A name counts as read where it appears as an identifier anywhere in the
    module or as a string in a module-level ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from json import dumps as to_json, loads\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    import csv\n"
        "    return sys.argv, numpy.linalg.norm\n"
    )
    assert unused_imports(source) == ["csv (line 8)", "loads (line 4)", "os (line 2)", "to_json (line 4)"]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
