"""Every private function, class and method of the package is read
somewhere in the package outside its own definition: a private name that
only the tests read belongs in the tests, and one that nothing reads goes."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(tree):
    """How often the code under `tree` reads each name, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute))
                   and isinstance(node.ctx, ast.Load))


def unread_private_names(sources):
    """(module, name) of each private module-level function or class, and of
    each private method of a module-level class, that no code in `sources`
    ({module: source}) reads outside its own definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            members = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                members += [(node.name + "." + d.name, d) for d in node.body
                            if isinstance(d, DEFS)]
            for name, d in members:
                private = d.name.startswith("_") and not d.name.endswith("__")
                if private and total[d.name] <= reads(d)[d.name]:
                    unread.append((module, name))
    return unread


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "src" / "contactflow").glob("*.py"))}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    source = (
        "def _helper():\n    return 1\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"      # reads only itself
        "class _Plan:\n"
        "    def _build(self):\n        return _helper()\n"
        "    def _unused(self):\n        return self._build()\n"
        "    def __init__(self):\n        pass\n"
        "def public():\n    return _Plan()\n")
    assert unread_private_names({"m.py": source}) == [("m.py", "_recursive"),
                                                      ("m.py", "_Plan._unused")]
