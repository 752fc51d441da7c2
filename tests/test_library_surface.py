"""The library exports no code that only tests reach.

Every name a ``corfd`` module lists in ``__all__`` must be used by library
or benchmark code: a module of ``src/corfd`` other than the package's own
re-exports in ``__init__``, or a file of ``perfbench``.  A name counts as
used where it is loaded, imported or read as an attribute.  Tests may use
anything, but their use alone keeps nothing alive.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "corfd").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def used_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_outside_the_tests():
    trees = {path: ast.parse(path.read_text()) for path in LIBRARY + BENCHMARK}
    used = set()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            used |= used_names(tree)
    unused = [
        f"{path.stem}.{name}"
        for path in LIBRARY
        for name in exported(trees[path])
        if name not in used
    ]
    assert unused == []

