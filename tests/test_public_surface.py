"""Every name ``crossblock`` exports is reached from somewhere, and every
option of a public function is set by some call.

A public name counts as used when a statement of ``src/crossblock`` other
than its own definition refers to it (``__init__.py``, which only re-exports,
does not count), or when ``tests/test_acceptance.py`` or a demo imports it.
An export that nothing reaches is code kept only for its own unit tests.
The package's submodules are in ``__all__`` because importing them binds
them; they are not definitions and are not checked. Likewise a defaulted
parameter that no call in those files sets is an option nothing uses.
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


def set_parameters(function: ast.FunctionDef, call: ast.Call) -> set:
    """The parameters of ``function`` that ``call`` passes, by position or keyword;
    a ``*`` or ``**`` argument may pass any of them."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return set(positional) | {a.arg for a in args.kwonlyargs}
    return set(positional[: len(call.args)]) | {k.arg for k in call.keywords}


def test_every_defaulted_parameter_is_set_by_some_call():
    """A public function's defaulted parameter that no call in the package, a demo
    or the acceptance tests sets is an option nothing uses. ``cli.py`` defines
    no library function: its ``main(argv=None)`` is called from outside."""
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py", "cli.py"):
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.FunctionDef) and not statement.name.startswith("_"):
                functions[statement.name] = (path.stem, statement)
    passed = {name: set() for name in functions}
    for path in [*sorted(PACKAGE.glob("*.py")), *IMPORTERS]:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name in functions:
                passed[name] |= set_parameters(functions[name][1], call)
    unset = []
    for name, (module, function) in functions.items():
        args = function.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        unset += [f"{module}.{name}({a.arg})" for a in defaulted if a.arg not in passed[name]]
    assert functions
    assert sorted(unset) == []
