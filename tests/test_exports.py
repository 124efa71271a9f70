"""The package's public namespace and its import hygiene."""

import ast
from pathlib import Path

import jameslab


def test_every_export_resolves_and_is_listed_once():
    names = jameslab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(jameslab, name)]
    assert missing == []


def _unmarked_unused_imports(path: Path) -> list[str]:
    """'module:line name' for each top-level import that binds a name the
    module never reads and that is not on a line marked ``# noqa: F401``;
    a name listed in the module's ``__all__`` counts as read."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_every_top_level_import_is_used_or_marked():
    sources = sorted(Path(jameslab.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [bad for path in sources for bad in _unmarked_unused_imports(path)] == []
