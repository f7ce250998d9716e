"""The public surface resolves: every ``__all__`` entry of every package exists.

A name deleted from a module but left in its package's ``__all__`` does not
fail ``import repro``; it fails only ``from repro.x import *`` or a user's
``from repro.x import name``.  This walks every package of :mod:`repro`.

The same walk, over source files, fails on a name a module imports and
never uses: a stale import outlives the code that needed it silently,
because the lint policy selects no unused-import rule.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import repro


def packages() -> list[str]:
    """``repro`` and the dotted names of all its subpackages."""
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", packages())
def test_all_entries_resolve_once(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", ())
    assert [entry for entry in exported if not hasattr(package, entry)] == []
    assert [entry for entry, count in Counter(exported).items() if count > 1] == []


def annotation_names(annotation: ast.expr) -> set[str]:
    """Names an annotation mentions, inside string annotations too."""
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= annotation_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports but never reads, annotates with, or lists in ``__all__``."""
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(entry.value for entry in node.value.elts)
    return sorted(imported - used)


def test_unused_import_scan_sees_exports_and_string_annotations():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import os.path\n"
        "from a import Exported, Quoted, Stale\n"
        "__all__ = ['Exported']\n"
        "def f(x: 'Quoted | None') -> None:\n"
        "    return TYPE_CHECKING\n"
    )
    assert unused_imports(source) == ["Stale", "os"]


def test_no_module_imports_a_name_it_never_uses():
    root = Path(repro.__file__).parent
    found = {
        str(path.relative_to(root)): names
        for path in sorted(root.rglob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
