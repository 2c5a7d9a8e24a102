"""harmonics._groups is the package's one batch order: the brackets, the
section components, the curls and both quadrature pairings group their
items with it, and no module writes its own group-by."""

import ast
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from contactflow.harmonics import _groups

SRC = Path(__file__).resolve().parent.parent / "src" / "contactflow"


@given(st.lists(st.integers(0, 5) | st.tuples(st.integers(0, 2), st.integers(0, 2))))
def test_groups_partition_the_items_in_order_of_first_appearance(keys):
    groups = _groups(iter(keys))
    assert list(groups) == list(dict.fromkeys(keys))
    for key, idx in groups.items():
        assert idx == sorted(idx) and all(keys[n] == key for n in idx)
    assert sorted(n for idx in groups.values() for n in idx) == list(range(len(keys)))


def hand_written_group_bys(source):
    """(function, line) of each dict.fromkeys call and each setdefault with
    a list default, named by the innermost enclosing function."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            fromkeys = (node.func.attr == "fromkeys" and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "dict")
            list_default = (node.func.attr == "setdefault" and len(node.args) > 1
                            and isinstance(node.args[1], (ast.List, ast.ListComp)))
            if fromkeys or list_default:
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_module_writes_its_own_group_by():
    found = {path.name: hand_written_group_bys(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert [f for f, _ in found.pop("harmonics.py")] == ["_groups"]
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_the_check_sees_both_group_bys():
    source = ("def f(keys):\n    return dict.fromkeys(keys)\n"
              "def g(d, k):\n    d.setdefault(k, []).append(1)\n    d.setdefault(k, {})\n")
    assert hand_written_group_bys(source) == [("f", 2), ("g", 4)]
