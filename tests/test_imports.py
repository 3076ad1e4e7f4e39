"""numpy is the package's one runtime dependency, and the crosscheck uses
none: every import in `src/hermplane`, function-level ones included,
names the standard library, numpy or the package itself.  The factor
certificate in `plane` is the one reader of `unipoly`."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hermplane"


def _imports(path):
    """The top-level names of the absolute imports in a module, and
    whether it makes a relative import."""
    names, relative = set(), False
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative = True
            else:
                names.add(node.module.split(".")[0])
    return names, relative


def test_package_imports_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        names, _ = _imports(path)
        assert names <= set(sys.stdlib_module_names) | {"numpy"}, path.name


def test_crosscheck_imports_no_package_module_and_no_numpy():
    names, relative = _imports(PACKAGE / "crosscheck.py")
    assert not relative
    assert not names & {"hermplane", "numpy"}
    assert names <= set(sys.stdlib_module_names)


def _imports_unipoly(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "unipoly" for n in names):
            return True
    return False


def test_plane_is_the_only_module_that_imports_unipoly():
    # products and evaluations go through TernaryForm and the FieldSpec
    # vector ops; unipoly keeps only the certificate's factorization
    readers = [p.stem for p in sorted(PACKAGE.glob("*.py")) if _imports_unipoly(p)]
    assert readers == ["plane"]


def test_numpy_is_the_one_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy"]
