"""The package's public namespace and its import hygiene."""

import ast
import dataclasses
import importlib
from enum import Enum
from pathlib import Path

import jameslab


def test_every_export_resolves_and_is_listed_once():
    names = jameslab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(jameslab, name)]
    assert missing == []


# imports that bind a name their module never reads, kept on purpose
_KEPT_UNREAD = [
    # re-exported: pi_star raises it, and callers catch it from here
    "measure_space.py IrrationalAtomValue",
    # bench/test_bench.py checks that the tracer wraps it at this binding site
    "metastability.py integrate_over",
]


def _unread_imports(path: Path) -> list[str]:
    """'module name' for each name an import anywhere in the module binds
    and the module never reads; a name listed in its ``__all__`` counts as
    read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append(f"{path.name} {name}")
    return unread


def test_every_import_is_read_or_kept_on_purpose():
    # no linter runs here: an import left behind by a deletion fails this,
    # and so does an entry of the kept list that is read again or gone
    sources = sorted(Path(jameslab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [bad for path in sources for bad in _unread_imports(path)] == _KEPT_UNREAD


def _unread_definitions(sources: list[Path], private: bool) -> list[str]:
    """'module name' for each private (or each public) function or class
    defined at module level in the sources that no statement of theirs
    but its own definition reads, as a name or as an attribute."""
    defined, read = [], set()
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
            }
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not stmt.name.startswith("__") and (
                stmt.name.startswith("_") == private
            ):
                defined.append((path.name, stmt.name))
                names.discard(stmt.name)
            read |= names
    return [f"{module} {name}" for module, name in defined if name not in read]


def test_every_private_definition_is_read_in_the_package():
    # a private helper that only tests reach has no place in the package:
    # its behaviour belongs in the code that uses it or in tests/helpers.py
    sources = sorted(Path(jameslab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert _unread_definitions(sources, private=True) == []


def test_every_public_definition_is_read_in_the_package_or_exported():
    # a public function or class that no package module reads and
    # ``jameslab.__all__`` does not export serves only the tests, so it
    # belongs in tests/helpers.py
    sources = sorted(Path(jameslab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    unread = _unread_definitions(sources, private=False)
    assert [u for u in unread if u.split()[1] not in jameslab.__all__] == []


def _assignable_classes(sources: list[Path]) -> list[str]:
    """'module name' for each public class defined in the sources that is
    neither an exception nor an ``Enum`` and whose instances accept
    attribute assignment or deletion: it is not a frozen dataclass and
    does not define both ``__setattr__`` and ``__delattr__`` of its own."""
    assignable = []
    for path in sources:
        module = importlib.import_module(f"jameslab.{path.stem}")
        for name, cls in vars(module).items():
            if (
                not isinstance(cls, type)
                or cls.__module__ != module.__name__
                or name.startswith("_")
                or issubclass(cls, (BaseException, Enum))
            ):
                continue
            frozen = dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
            guarded = {"__setattr__", "__delattr__"} <= vars(cls).keys()
            if not frozen and not guarded:
                assignable.append(f"{path.stem} {name}")
    return assignable


def test_every_public_value_type_refuses_assignment():
    # a value that a check passed at construction must stay the value that
    # was checked: every public class is frozen, as the dataclasses are, or
    # guards __setattr__ and __delattr__ itself, as Root2Scalar and Basis do
    sources = sorted(Path(jameslab.__file__).parent.glob("[!_]*.py"))
    assert len(sources) > 1
    assert _assignable_classes(sources) == []
