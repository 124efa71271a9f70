"""The package's public namespace and its import hygiene."""

import ast
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
