"""Every name a module imports is used in that module, every definition
in the package has a caller or an exemption that the caller check needs,
symfunc stays apart from the table layer, and quasisym builds no table."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "qtpark"

# Definitions kept without a caller in the package: each one the caller
# check would flag without its entry.
UNCALLED = {
    ("kernels", "resolve_backend"),  # perfbench calls it
    ("symfunc", "h_in_p"),  # the tests' reference for the h_n expansions
    # The tests' reference for the sums hmz_check takes by linearity: C_alpha
    # 1 one composition alpha at a time.
    ("symfunc", "compositions"),
    ("symfunc", "c_composition"),
    ("paths", "enumerate_all"),  # perfbench traces it; the tests' scalar sweep
    ("schedules", "shift_multiset"),  # perfbench traces it; a test reference
    ("schedules", "generate"),  # the tests run the insertion tree through it
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


def trees(directory=PACKAGE):
    for path in sorted(directory.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def attributes(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def test_every_import_is_used():
    unused = {}
    for path, tree in [*trees(), *trees(ROOT / "tests")]:
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        names = sorted(set(imported_names(tree)) - used)
        if names:
            unused[f"{path.parent.name}/{path.name}"] = names
    assert unused == {}


def test_every_definition_has_a_caller():
    # A definition's own body does not count as its caller.  A named class
    # member is called when ``.name`` is read outside its own body.
    defined, referenced = set(), set()
    members, read = {}, Counter()
    for path, tree in trees():
        read += attributes(tree)
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, own))
            referenced.update(name for name in referenced_names(stmt)
                              if name != own)
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not member.name.startswith("__")):
                        members[path.stem, f"{own}.{member.name}"] = member
    flagged = {d for d in defined if d[1] not in referenced}
    flagged.update(key for key, member in members.items()
                   if read[member.name] - attributes(member)[member.name] == 0)
    assert sorted(flagged - UNCALLED) == []
    # An exemption is one the check needs: it names a definition that still
    # exists and that nothing in the package reads.
    assert sorted(UNCALLED - flagged) == []


def imports_of(stem):
    """The last component of every module and name a module imports."""
    tree = ast.parse((PACKAGE / f"{stem}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return {name.rsplit(".", 1)[-1] for name in imported}


def test_symfunc_does_not_import_the_table_layer():
    banned = {"quasisym", "aggregate", "kernels"}
    assert imports_of("symfunc") & banned == set()


def test_quasisym_reads_tables_it_does_not_build():
    """The quasisym readers take the table their caller built."""
    assert "aggregate" not in imports_of("quasisym")


NUMPY_BLOCKED = """
import sys
sys.modules["numpy"] = None
from qtpark.symfunc import pn_identity_check
print(pn_identity_check(4), sorted(m for m in sys.modules
                                   if m.split(".")[0] == "qtpark"))
"""


def test_symfunc_runs_without_numpy():
    """The symmetric-function half loads only qt: importing the package
    root pulls in no submodule, so no numpy and no table layer."""
    proc = subprocess.run([sys.executable, "-c", NUMPY_BLOCKED],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True ['qtpark', 'qtpark.qt', 'qtpark.symfunc']\n"


ONE_TAU_TABLE = """
import sys
from qtpark import aggregate
aggregate.qt_by_diagword(8, tau=(7, 8, 4, 1, 3, 6, 2, 5))
print("numpy.ma" in sys.modules)
"""


def test_one_tau_table_does_not_import_numpy_ma():
    """np.unique without return_counts asks np.ma.is_masked on numpy 2.4,
    and importing numpy.ma costs a one-tau run 10-20 ms."""
    proc = subprocess.run([sys.executable, "-c", ONE_TAU_TABLE],
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
