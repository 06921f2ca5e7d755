"""Every name a module of the package imports is used in that module,
every top-level definition has a caller, and symfunc stays apart from
the table layer."""

import ast
from pathlib import Path

import qtpark

PACKAGE = Path(__file__).parents[1] / "src" / "qtpark"

# Definitions kept without a caller in the package.
UNCALLED = {
    ("aggregate", "clear_cache"),  # the tests reset the table cache with it
    ("kernels", "resolve_backend"),  # perfbench calls it
    ("symfunc", "h_in_p"),  # the tests' reference for the h_n expansions
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def referenced_names(node):
    """Names and attributes read anywhere in node, and names imported."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_every_import_is_used():
    # __init__.py imports names to re-export them.
    unused = {}
    for path, tree in trees():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        names = sorted(set(imported_names(tree)) - used)
        if names:
            unused[path.name] = names
    assert unused == {}


def test_every_definition_has_a_caller():
    # A definition's own body does not count as its caller.
    defined, referenced = set(), set()
    for path, tree in trees():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, own))
            referenced.update(name for name in referenced_names(stmt)
                              if name != own)
    uncalled = sorted(d for d in defined - UNCALLED
                      if d[1] not in referenced and d[1] not in qtpark.__all__)
    assert uncalled == []


def test_symfunc_does_not_import_the_table_layer():
    tree = ast.parse((PACKAGE / "symfunc.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    banned = {"quasisym", "aggregate", "kernels"}
    assert {name.rsplit(".", 1)[-1] for name in imported} & banned == set()
