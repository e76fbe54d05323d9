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
    bound = {name: line for name, line, kept in module_imports(text) if not kept}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        for annotation in annotations(node):
            for c in ast.walk(annotation):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    read.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name))
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


def module_imports(text: str) -> list[tuple[str, int, bool]]:
    """``(name, line, kept)`` for each name that a module-level import of
    the module binds, ``__future__`` imports aside; ``kept`` when the
    import's line is marked ``noqa: F401``."""
    lines = text.splitlines()
    found = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                kept = any("noqa: F401" in lines[k - 1] for k in {node.lineno, alias.lineno})
                found.append((alias.asname or alias.name.partition(".")[0], alias.lineno, kept))
    return found


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


def unread_definitions(texts: dict[str, str]) -> list[str]:
    """The module-level functions and classes of ``texts`` (module name:
    source) that no module of ``texts`` reads, as ``module: name``. A name
    counts as read where it is loaded as a name or an attribute, or where a
    string constant equals it, as in ``__all__`` and in the handler names
    that ``cli.main`` looks up."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in read
    ]


def test_every_module_level_definition_is_read():
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    assert unread_definitions(texts) == []


def test_the_dead_code_check_finds_an_unread_definition():
    texts = {
        "a": "__all__ = ['public']\ndef public():\n    return helper()\ndef helper():\n    pass\n"
        "def left_over():\n    pass\nclass Spec:\n    pass\n",
        "b": "from . import a\nclass Unused:\n    def method(self):\n        return a.Spec\n"
        "def cmd_run(args):\n    pass\nHANDLER = 'cmd_run'\nleft = 1\n",
    }
    assert unread_definitions(texts) == ["a: left_over", "b: Unused"]


def traced_sites(text: str) -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of the ``SITES`` list in a
    perfbench tracing module's text, read without importing it."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SITES" for t in node.targets):
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("no SITES list")


def test_every_kept_import_is_a_traced_site():
    # a name imported only for perfbench to wrap (noqa: F401) must be one
    # that it wraps, so a stale one shows when the wrapper is dropped
    sites = traced_sites((SOURCE.parent.parent / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    kept = {
        (f"scanplan.{path.stem}", name)
        for path in SOURCE.glob("*.py")
        for name, _, marked in module_imports(path.read_text(encoding="utf-8"))
        if marked
    }
    assert kept - sites == set()


def test_the_site_check_reads_the_sites_list():
    text = 'SITES = [\n    ("scanplan.cli", "monolog", "policy.monolog"),  # wrapped\n]\nOTHER = [("a", "b", "c")]\n'
    assert traced_sites(text) == {("scanplan.cli", "monolog")}
    assert module_imports("from .policy import monolog, solve  # noqa: F401\nimport json\n") == [
        ("monolog", 1, True),
        ("solve", 1, True),
        ("json", 2, False),
    ]
