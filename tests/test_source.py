"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "scanplan"


def unused_imports(text: str) -> list[str]:
    """The names that a module's module-level imports bind and that the
    module never reads, as ``line: name``. A name listed in ``__all__``, or
    read in a string annotation, counts as read; ``__future__`` imports and
    lines marked ``noqa: F401`` are left out."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if not any("noqa: F401" in lines[k - 1] for k in {node.lineno, alias.lineno}):
                    bound[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for annotation in annotations(node):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    read.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


def annotations(node) -> list:
    """The annotations that ``node`` holds itself: of its arguments and
    return value, or of an annotated assignment."""
    if isinstance(node, ast.arg):
        return [node.annotation] if node.annotation else []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns] if node.returns else []
    if isinstance(node, ast.AnnAssign):
        return [node.annotation]
    return []


@pytest.mark.parametrize("module", sorted(path.name for path in SOURCE.glob("*.py")))
def test_every_module_level_import_is_used(module):
    assert unused_imports((SOURCE / module).read_text(encoding="utf-8")) == []


def test_the_import_check_finds_an_unused_import():
    text = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import NoReturn, Sequence\n"
        "from .graph import (\n"
        "    loads_graph,  # noqa: F401  (re-exported)\n"
        "    save_graph,\n"
        ")\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(text) == ["2: json", "4: NoReturn", "7: save_graph"]
