"""Every name ``crossblock`` exports is reached from somewhere.

A public name counts as used when a statement of ``src/crossblock`` other
than its own definition refers to it (``__init__.py``, which only re-exports,
does not count), or when ``tests/test_acceptance.py`` or a demo imports it.
An export that nothing reaches is code kept only for its own unit tests.
The package's submodules are in ``__all__`` because importing them binds
them; they are not definitions and are not checked.
"""

import ast
import inspect
from pathlib import Path

import crossblock

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "crossblock"
IMPORTERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "demos").glob("*.py"))]


def defined_names(statement) -> set:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def referenced_names(statement) -> set:
    """Names a statement reads, bare or as a module attribute (imports do not count)."""
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return set()
    return ({n.id for n in ast.walk(statement) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(statement) if isinstance(n, ast.Attribute)})


def used_in_package() -> set:
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= referenced_names(statement) - defined_names(statement)
    return used


def imported_from_crossblock(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "crossblock" for alias in node.names}


def test_every_public_name_is_used_outside_its_definition():
    used = used_in_package().union(*map(imported_from_crossblock, IMPORTERS))
    public = [n for n in crossblock.__all__ if not inspect.ismodule(getattr(crossblock, n))]
    assert public
    assert sorted(set(public) - used) == []
