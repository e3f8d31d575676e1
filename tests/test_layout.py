"""src/ holds only what the package and its benchmark use: every module-level
function or class, and every method other than a dunder, defined in
src/crosshinge is referenced by name somewhere in src/crosshinge or
perfbench. Code that only the tests call belongs in tests/oracles.py."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "crosshinge").glob("*.py"))
USERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree: ast.Module):
    """(qualified name, name) of the module-level functions and classes and
    the non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name


def references(tree: ast.Module) -> set[str]:
    """Names read or written, attributes accessed and names imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_src_definition_is_used_outside_the_tests():
    used = set().union(*(references(ast.parse(p.read_text())) for p in USERS))
    unused = [f"{path.name}: {qualified}"
              for path in SOURCES
              for qualified, name in definitions(ast.parse(path.read_text()))
              if name not in used]
    assert not unused, "defined in src/ but used only by tests: " + ", ".join(unused)
