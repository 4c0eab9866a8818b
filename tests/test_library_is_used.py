"""The library holds only what runs: every function, class and method in
src/deltasparse/ is referenced from src/ or perfbench/ outside its own
definition. A helper that only tests call belongs in tests/.

Names are matched by `ast` nodes, not by text: a module-level function or
class counts as referenced by a `Name` or an attribute access of its name, a
method by an attribute access only. Strings (`__all__`, getattr names) and
imports do not count. Dunder methods are exempt."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import deltasparse

# the imported package, so that a copy on PYTHONPATH is the one scanned
LIBRARY = Path(deltasparse.__file__).resolve().parent
CALLERS = (LIBRARY, Path(__file__).resolve().parents[1] / "perfbench")

# name as "module.function", "module.Class" or "module.Class.method", with
# the one-line reason it stays although nothing in src/ or perfbench/ uses it
ALLOWED: dict[str, str] = {}
MAX_ALLOWED = 5


def definitions() -> list[tuple[str, ast.AST, bool]]:
    """(qualified name, node, is a method) for every module-level function
    and class and every method under LIBRARY, dunders left out."""
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.append((f"{path.stem}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{sub.name}", sub, True)
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
    return [d for d in found if not (d[1].name.startswith("__") and d[1].name.endswith("__"))]


def references(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each identifier appears as a `Name` and as an attribute."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def unused() -> list[str]:
    names, attrs = Counter(), Counter()
    for folder in CALLERS:
        for path in sorted(folder.rglob("*.py")):
            found = references(ast.parse(path.read_text(encoding="utf-8")))
            names += found[0]
            attrs += found[1]
    out = []
    for qualified, node, is_method in definitions():
        own_names, own_attrs = references(node)  # a definition does not use itself
        uses = attrs[node.name] - own_attrs[node.name]
        if not is_method:
            uses += names[node.name] - own_names[node.name]
        if uses == 0:
            out.append(qualified)
    return out


def test_every_library_name_is_referenced_outside_tests():
    found = unused()
    assert set(found) - set(ALLOWED) == set(), (
        "referenced by nothing in src/ or perfbench/: move to tests/ or delete"
    )
    # an entry for a name that is now used, or gone, is stale
    assert set(ALLOWED) <= set(found)


def test_allowlist_is_short_and_every_entry_has_a_reason():
    assert len(ALLOWED) <= MAX_ALLOWED
    assert all(reason.strip() for reason in ALLOWED.values())

