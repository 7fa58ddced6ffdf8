"""One transform product: every product on a Clarke matrix goes through clarke._product.

The guard reads src/ and fails on any `@`, `.dot`, `np.dot` or `matmul`
(or another numpy product) with a `.forward` or `.inverse` operand outside
`_product`, so one function decides how every such product rounds.
"""

import ast
from pathlib import Path

import pytest

import clarkekin

MATRICES = ("forward", "inverse")
PRODUCT_CALLS = ("dot", "matmul", "vdot", "inner", "tensordot", "einsum")


def _is_matrix(node) -> bool:
    # t.forward or t.inverse, also transposed or sliced.
    while isinstance(node, ast.Subscript) or (isinstance(node, ast.Attribute) and node.attr == "T"):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in MATRICES


def _operands(node) -> list:
    """The operands of node if it is a product: a @ b, a @= b, a.dot(b), np.dot(a, b), np.matmul(a, b), ..."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right] if isinstance(node, ast.BinOp) else [node.target, node.value]
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in PRODUCT_CALLS:
            receiver = [func.value] if isinstance(func, ast.Attribute) else []
            return receiver + list(node.args) + [kw.value for kw in node.keywords]
    return []


def matrix_products(tree, skip: str | None = None) -> list[tuple[int, str]]:
    """(line, source) of each product on a transform matrix in tree, outside the function named skip."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == skip:
                continue
            if any(_is_matrix(operand) for operand in _operands(child)):
                found.append((child.lineno, ast.unparse(child)))
            visit(child)

    visit(tree)
    return found


def test_every_transform_product_goes_through_product():
    modules = sorted(Path(clarkekin.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    found = [
        f"{module.name}:{line}: {source}"
        for module in modules
        for line, source in matrix_products(ast.parse(module.read_text(), str(module)), "_product" if module.name == "clarke.py" else None)
    ]
    assert not found, "products on a transform matrix outside clarke._product:\n" + "\n".join(found)


@pytest.mark.parametrize(
    "code, count",
    [
        ("t.forward @ rho", 1),
        ("rho @ t.inverse", 1),
        ("t.inverse @ (t.forward @ rho)", 2),
        ("t.forward.dot(rho)", 1),
        ("np.dot(t.inverse, xi)", 1),
        ("numpy.matmul(t.forward.T, x)", 1),
        ("np.einsum('ij,j->i', t.inverse[:, :2], xi)", 1),
        ("x = t.inverse\nx @= y", 0),
        ("y @= t.forward", 1),
        ("transform_.forward @ (a - b)", 1),
        ("spread @ spread", 0),
        ("np.split(t.inverse, 2, axis=1)", 0),
        ("np.multiply(c, x, out=block)", 0),
        ("_product(t.inverse, xi)", 0),
        ("def _product(m, x):\n    return t.forward @ x", 0),
        ("def other(m, x):\n    return t.forward @ x", 1),
    ],
)
def test_the_guard_sees_every_product_form(code, count):
    assert len(matrix_products(ast.parse(code), "_product")) == count
