"""One freezer: clarke._readonly is the only code in src/ that makes an array read-only.

The guard reads src/ and fails on any `.setflags(...)` call or any
assignment to an array's `.flags` (`a.flags.writeable = False`,
`a.flags["WRITEABLE"] = False`) outside `_readonly`, so one function
decides how an array is frozen.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import clarkekin
from clarkekin.clarke import _readonly


def _is_flags(node) -> bool:
    # a.flags, or a.flags.<name>.
    if isinstance(node, ast.Attribute) and node.attr != "flags":
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "flags"


def _freezes(node) -> bool:
    """Whether node is a.setflags(...), or an assignment (or setattr) to a.flags, a.flags.<name> or a.flags[...]."""
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) == "setattr":
            return bool(node.args) and _is_flags(node.args[0])
        return isinstance(node.func, ast.Attribute) and node.func.attr == "setflags"
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(_is_flags(t.value if isinstance(t, ast.Subscript) else t) for t in targets)
    return False


def freezes(tree, skip: str | None = None) -> list[tuple[int, str, str]]:
    """(line, enclosing Class.function, source) of each freeze in tree, outside the function named skip."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name == skip:
                    continue
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if _freezes(child):
                found.append((child.lineno, scope, ast.unparse(child)))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_readonly_freezes_an_array():
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = []
    for module in modules:
        skip = "_readonly" if module.name == "clarke.py" else None
        for line, function, source in freezes(ast.parse(module.read_text(), str(module)), skip):
            found.append(f"{module.name}:{line} in {function}: {source}")
    assert not found, "arrays made read-only outside clarke._readonly:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "code, count",
    [
        ("a.setflags(write=False)", 1),
        ("np.ndarray.setflags(a, write=False)", 1),
        ("self.state.setflags(write=False, align=True)", 1),
        ("a.flags.writeable = False", 1),
        ("table.flags['WRITEABLE'] = False", 1),
        ("a.flags.writeable &= False", 1),
        ("a.flags = b", 1),
        ("setattr(a.flags, 'writeable', False)", 1),
        ("setattr(a, 'flags', b)", 0),
        ("x = a.flags.writeable", 0),
        ("assert not a.flags.writeable", 0),
        ("_readonly(a)", 0),
        ("a.setfield(b, np.float64)", 0),
        ("def _readonly(a):\n    a.setflags(write=False)\n    return a", 0),
        ("def other(a):\n    a.setflags(write=False)", 1),
        ("class P:\n    def __post_init__(self):\n        self.rotation.setflags(write=False)", 1),
    ],
)
def test_the_guard_sees_every_freeze_form(code, count):
    assert len(freezes(ast.parse(code), "_readonly")) == count


def test_the_guard_names_the_enclosing_function():
    code = "def _frozen_pose(entries):\n    buffer = np.array(entries)\n    buffer.setflags(write=False)"
    assert freezes(ast.parse(code)) == [(3, "_frozen_pose", "buffer.setflags(write=False)")]
    code = "class Pose:\n    def __post_init__(self):\n        self.rotation.setflags(write=False)\nt.flags.writeable = False"
    found = [(3, "Pose.__post_init__", "self.rotation.setflags(write=False)"), (4, "<module>", "t.flags.writeable = False")]
    assert freezes(ast.parse(code)) == found


@pytest.mark.parametrize("a", [np.zeros((2, 3)), np.arange(5), np.zeros((3, 4))[:, 1:3]])
def test_readonly_freezes_in_place(a):
    # No copy and no cast: an integer table stays integer, a view stays a view.
    dtype, base = a.dtype, a.base
    assert _readonly(a) is a
    assert not a.flags.writeable and a.dtype == dtype and a.base is base
