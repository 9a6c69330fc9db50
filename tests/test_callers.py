"""Every public name of the package has a caller outside the unit tests.

Callers are the package's own modules, the benchmark harness and the
acceptance gate; a name that only unit tests reach is dead weight.  The
definitions in ``selfcheck`` are exempt, since its oracles serve the
test suite by design.
"""

import ast
from pathlib import Path

import storyvae

PACKAGE = Path(storyvae.__file__).parent
ROOT = PACKAGE.parent.parent
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def public_definitions(module: ast.Module):
    """Public module-level functions and classes, and the public methods and properties of those classes."""
    for top in module.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name
            if isinstance(top, ast.ClassDef):
                yield from (f"{top.name}.{node.name}" for node in top.body
                            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))


def references(module: ast.Module) -> set[str]:
    """The names and attributes a module reads or imports; a function naming itself does not count."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name is not None and name not in inside:
            found.add(name)
        if isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(module, frozenset())
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    referenced = set().union(*(references(parse(path)) for path in CALLERS))
    uncalled = [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py")) if path.name != "selfcheck.py"
                for name in public_definitions(parse(path)) if name.rsplit(".", 1)[-1] not in referenced]
    assert uncalled == []
