"""One arc rule: kinematics._arc raises every bend to the segment's least_bend and takes the radius l/phi itself.

FK, f_ind and IK's acceptance check hand _arc the bend they computed, and
nothing else in src/ reads least_bend: the guard fails on any `.least_bend`
or getattr(x, "least_bend") outside `kinematics._arc`, so no caller raises
a bend, or divides l by one, by a rule of its own.
"""

import ast
from pathlib import Path

import pytest

import clarkekin

ALLOWED = ("kinematics.py", "_arc")


def bend_reads(tree) -> list[tuple[int, str, str]]:
    """(line, enclosing Class.function, source) of each read of least_bend in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            named = isinstance(child, ast.Attribute) and child.attr == "least_bend"
            fetched = (
                isinstance(child, ast.Call) and getattr(child.func, "id", None) == "getattr" and len(child.args) >= 2
                and isinstance(child.args[1], ast.Constant) and child.args[1].value == "least_bend"
            )
            if named or fetched:
                found.append((child.lineno, scope, ast.unparse(child)))
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_only_arc_reads_the_least_bend():
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    found = [
        ((module.name, scope), f"{module.name}:{line} in {scope}: {source}")
        for module in modules
        for line, scope, source in bend_reads(ast.parse(module.read_text(), str(module)))
    ]
    stray = [site for where, site in found if where != ALLOWED]
    assert not stray, "least_bend read outside kinematics._arc:\n" + "\n".join(stray)
    assert [where for where, _ in found] == [ALLOWED]


@pytest.mark.parametrize(
    "code, scopes",
    [
        ("phi = max(kappa * geom.l, geom.least_bend)", ["<module>"]),
        ("def fk(geom, phi):\n    return elementwise.maximum(phi, geom.least_bend)", ["fk"]),
        ("bend = getattr(geom, 'least_bend')", ["<module>"]),
        ("def _arc(geom, phi):\n    return max(phi, geom.least_bend)", ["_arc"]),
        ("class S:\n    def f(self):\n        return self.least_bend", ["S.f"]),
        ("object.__setattr__(self, 'least_bend', least_bend)", []),
        ("least_bend = max(l * tiny, 5e-324)", []),
        ("bend = geom.least", []),
    ],
)
def test_the_guard_sees_every_form(code, scopes):
    assert [scope for _, scope, _ in bend_reads(ast.parse(code))] == scopes
