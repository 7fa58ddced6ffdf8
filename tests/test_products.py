"""One transform product: every product on a Clarke matrix goes through clarke._product, in one order.

The guard reads src/ and fails on any `@`, `.dot`, `np.dot` or `matmul`
(or another numpy product) with a `.forward` or `.inverse` operand outside
`_product`, so one function decides how every such product rounds. The
order tests hold that function, on any CPU, to left_to_right: the stored
entries' products added left to right in plain Python floats, the oracle
every bitwise product test compares against.
"""

import ast
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clarkekin
from clarkekin import ControllerConfig, JointLayout, SegmentGeometry, build_transform, control, controller_step, transform
from clarkekin.clarke import _product, _sum


def left_to_right(m, x) -> np.ndarray:
    """m @ x from m's stored entries in plain Python floats: entry i of a column
    is m[i][0]*x[0] + m[i][1]*x[1] + ..., added left to right from the first
    product. x is one column (c,), giving (r,), or a batch (c, k), giving (r, k)."""
    rows, x = np.asarray(m).tolist(), np.asarray(x, dtype=float)
    columns = x.reshape(len(x), -1).T.tolist()
    out = []
    for column in columns:
        for row in rows:
            total = row[0] * column[0]
            for a, b in zip(row[1:], column[1:]):
                total = total + a * b
            out.append(total)
    product = np.array(out, dtype=float).reshape(len(columns), len(rows)).T
    return product[:, 0] if x.ndim == 1 else product


def left_to_right_sum(values) -> float:
    """The values added left to right in plain Python floats, from the first."""
    values = list(values)
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def compensated_sum(values) -> float:
    """Neumaier's compensated sum, the order builtin sum takes from Python 3.12."""
    total = correction = 0.0
    for v in values:
        t = total + v
        correction += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + correction

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


# Entries that cancel, underflow, sign zeros and overflow: the largest
# finite floats, subnormals and both zeros among any finite float.
entries = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.7e308, -1.7e308, 1.0, -1.0]),
)


@st.composite
def product_cases(draw):
    """A transform matrix at n in 3..64 and its operand: one column or a batch of k in 0..4."""
    n = draw(st.integers(3, 64))
    t = build_transform(n)
    m = draw(st.sampled_from([t.forward, t.inverse]))
    k = draw(st.sampled_from([None, 0, 1, 2, 4]))
    c, width = m.shape[1], 1 if k is None else k
    values = np.array(draw(st.lists(entries, min_size=c * width, max_size=c * width)), dtype=float).reshape(c, width)
    return m, values[:, 0] if k is None else values


class TestLeftToRight:
    """Every product has the bits of left_to_right, on either path, with -0.0,
    subnormals and overflow to inf; numpy's batch warnings aside, it never warns."""

    @settings(max_examples=400, deadline=None)
    @given(product_cases())
    @example((build_transform(4).forward, np.array([-0.0, -0.0, 0.0, -0.0])))
    @example((build_transform(3).inverse, np.array([-0.0, -0.0])))
    @example((build_transform(5).forward, np.array([1.7e308, 1.7e308, 1.7e308, -1.7e308, 5e-324])))
    def test_bits_of_the_stored_entries(self, case):
        m, x = case
        expected = left_to_right(m, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if x.ndim == 1:
                # A column as a list and as a tuple of Python floats: no warning.
                got = [np.array(_product(m, x.tolist())), np.array(_product(m, tuple(x.tolist())))]
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = [_product(m, x), _product(m, tuple(x))]
        for product in got:
            assert product.shape == expected.shape and product.tobytes() == expected.tobytes()
        if m.shape[0] == 2 and np.isfinite(expected).all():  # the forward matrix, through the public call
            assert transform(build_transform(m.shape[1]), x).tobytes() == expected.tobytes()


# A column at n = 12 whose first Clarke coordinate cancels to 5.31: the
# left-to-right sum of its products, numpy's pairwise sum and a compensated
# sum (math.fsum, Neumaier's as builtin sum takes it from Python 3.12) round
# it three ways.
CANCELLING_COLUMN = [
    88.79285084644796, -47.314612571253804, 0.7493441698191929, -5.871034093215224,
    -0.008969150409287998, 24.9000893958113, -7.6311231141541125, -0.0008065037684179715,
    4.813604567461294, -0.07442572855557177, 0.0009569895523002603, 0.0007971964872254862,
]

# A measurement at n = 12 whose centring sum rounds three ways alike.
CANCELLING_MEASUREMENT = [
    -7.175079909721691, 0.1818956030805119, 32.138027928431676, 0.00027241511360738183,
    -7.579376350502153, -0.0016848662082172595, 3.19708254946951e-05, -34.8571562756885,
    -0.06289463585605078, 0.003756780526179293, -0.7906395601208343, -0.36405745490456476,
]


def other_orders(values) -> list[float]:
    """The pairwise and the compensated sums of values."""
    return [float(np.add.reduce(np.array(values))), math.fsum(values), compensated_sum(values)]


class TestOneOrder:
    """Pinned columns on which another summation order would read other bits."""

    def test_a_cancelling_column_adds_left_to_right(self):
        t = build_transform(12)
        products = [a * b for a, b in zip(t.forward[0].tolist(), CANCELLING_COLUMN)]
        ltr = left_to_right_sum(products)
        assert ltr not in other_orders(products) and len(set(other_orders(products))) == 2
        for column in (CANCELLING_COLUMN, np.array(CANCELLING_COLUMN), np.array([CANCELLING_COLUMN]).T):
            got = np.ravel(_product(t.forward, column))
            assert got[0] == ltr and got.tobytes() == np.ravel(left_to_right(t.forward, np.array(column))).tobytes()

    def test_the_controller_centres_on_a_left_to_right_sum(self):
        # The centred column controller_step hands its forward product is
        # n*rho - sum(rho), the sum clarke._sum's.
        total = left_to_right_sum(CANCELLING_MEASUREMENT)
        assert total not in other_orders(CANCELLING_MEASUREMENT) and _sum(CANCELLING_MEASUREMENT) == total
        formed = []

        def record(m, x):
            formed.append(np.array(x, dtype=float))
            return _product(m, x)

        cfg = ControllerConfig(kp=125.0, dt=1e-3, geometry=SegmentGeometry(layout=JointLayout(n=12, d=0.01), l=0.1))
        with mock.patch.object(control, "_product", record):
            command = controller_step(cfg, [0.01, -0.02], CANCELLING_MEASUREMENT)
        centred = [12.0 * r - total for r in CANCELLING_MEASUREMENT]
        assert formed[0].tobytes() == np.array(centred).tobytes()
        for other in other_orders(CANCELLING_MEASUREMENT):
            assert formed[0].tobytes() != np.array([12.0 * r - other for r in CANCELLING_MEASUREMENT]).tobytes()
        pair = left_to_right(build_transform(12).forward, centred) / 12.0
        error = np.array([0.01, -0.02]) - pair
        assert command.tobytes() == left_to_right(build_transform(12).inverse, np.array([0.01, -0.02]) + 125.0 * error).tobytes()
