"""No module imports a name it never uses.  The package's __init__ only
re-exports, and the acceptance suite is kept as written, so both are
left out.  What __init__ re-exports is exactly its public names."""

import ast
import types
from pathlib import Path

import pytest

import contactflow

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "contactflow").glob("*.py") if p.name != "__init__.py"]
    + [p for p in (ROOT / "tests").glob("*.py") if p.name != "test_acceptance.py"])


def unused_imports(source):
    """Names bound by import statements that no expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom numpy import pi, e as euler\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "euler")]


def test_star_import_binds_exactly_the_public_names():
    # __all__ is derived from the package's imports: `import *` binds it and
    # nothing else, and it holds no submodule, private name or repeat
    namespace = {}
    exec("from contactflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(contactflow.__all__)
    assert len(set(contactflow.__all__)) == len(contactflow.__all__)
    for name in contactflow.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(contactflow, name), types.ModuleType)
