"""No public code in ``src/repro`` that only the tests call.

A public top-level function or class, or a public method of a top-level
class, whose name appears nowhere in ``src``, ``benchmarks/`` or
``examples/`` outside its own definition is reachable from the tests
alone.  Such a helper either moves into the test it serves as an oracle
for, or goes.  The few that stay on purpose are listed in
:data:`ALLOWED` with the reason; any other name the scan finds fails
this test, and so does an allowlisted name that is no longer found.

The scan is textual: a name counts as used wherever it appears as an
identifier — code, string, comment or docstring — in any ``.py`` file of
those trees, except inside the definition's own lines.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples")

#: ``"module path: qualified name"`` -> why it stays with no caller in
#: the scanned trees.
ALLOWED = {
    "src/repro/profiling/cct.py: CallingContextTree.to_dcg": (
        "library API: projects a context-sensitive profile (CBS with "
        "--context-depth > 1) onto the DCG the inliners read"
    ),
    "src/repro/profiling/dcg.py: DCG.edge_weight": (
        "library API: the DCG's point query, beside edges() and "
        "weight_fraction()"
    ),
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _public_definitions(tree: ast.Module):
    """``(qualified name, name, first line, last line)`` per public
    top-level function or class and public method of a top-level class."""
    defining = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defining) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not item.name.startswith("_")
                ):
                    yield (
                        f"{node.name}.{item.name}",
                        item.name,
                        item.lineno,
                        item.end_lineno,
                    )


def unreferenced_definitions() -> set[str]:
    uses: dict[str, list[tuple[Path, int]]] = {}
    definitions = []
    for tree_name in SCANNED:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                for name in _IDENTIFIER.findall(line):
                    uses.setdefault(name, []).append((path, number))
            if tree_name == "src":
                for definition in _public_definitions(ast.parse(text)):
                    definitions.append((path, *definition))
    found = set()
    for path, qualified, name, first, last in definitions:
        if all(
            used_in == path and first <= line <= last
            for used_in, line in uses.get(name, ())
        ):
            found.add(f"{path.relative_to(ROOT).as_posix()}: {qualified}")
    return found


def test_no_public_code_is_called_only_by_tests():
    found = unreferenced_definitions()
    assert sorted(found - set(ALLOWED)) == [], (
        "public code nothing in src, benchmarks/ or examples/ uses: move "
        "it into the test that needs it, delete it, or allowlist it with "
        "a reason"
    )
    assert sorted(set(ALLOWED) - found) == [], (
        "allowlisted code now has a caller: drop its ALLOWED entry"
    )
