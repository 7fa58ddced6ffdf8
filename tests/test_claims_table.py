"""The README's table of the abstract's claims names only tests that exist.

Each row names its tests as `tests/<module>.py::<name>` or
`tests/<module>.py::<Class>::<name>`; the test module is parsed with `ast`,
never imported, so a renamed or deleted test fails here by its name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HEADING = "### Claims of the abstract"
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)::([\w:]+)`")


def claim_rows(text: str) -> list[str]:
    """The body rows of the first table under the heading, header and rule dropped."""
    lines = text[text.index(HEADING) :].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        table.append(line)
    return table[2:]


def defined_tests(path: Path) -> set[str]:
    """Every test of a module that pytest collects by name, as `test_name` or `TestClass::test_name`."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test_")
            )
    return names


ROWS = claim_rows((ROOT / "README.md").read_text())


def test_one_row_per_claim():
    assert len(ROWS) == 7


@pytest.mark.parametrize("row", ROWS, ids=[row.split("|")[1].strip()[:40] for row in ROWS])
def test_every_named_test_exists(row):
    cells = [cell.strip() for cell in row.strip("|").split("|")]
    assert len(cells) == 3, row
    named = TEST_ID.findall(cells[1])
    assert named or cells[2] != "-", f"a row names a test or an open item: {row}"
    for module, name in named:
        assert name in defined_tests(ROOT / module), f"{module}::{name} is not a test"


def test_the_parser_sees_a_missing_test():
    fake = f"{HEADING}\n\n| a | b | c |\n|---|---|---|\n| x | `tests/test_control.py::TestSimulation::test_gone` | - |\n"
    (row,) = claim_rows(fake)
    module, name = TEST_ID.findall(row)[0]
    assert name not in defined_tests(ROOT / module)
    assert "TestSimulation::test_deterministic" in defined_tests(ROOT / module)
