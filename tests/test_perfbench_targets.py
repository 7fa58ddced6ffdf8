"""The functions the benchmark tracer wraps exist in the library.

perfbench/tracer.py names (label, module, attribute) targets and fails a
traced run if one is missing; this test fails first, in the unit suite,
when a target is deleted or renamed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    # Read the TARGETS literal from the source; nothing of perfbench runs.
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACER} has no TARGETS")


TARGETS = _targets()


@pytest.mark.parametrize("label, module_name, attr", TARGETS, ids=[f"{m}.{a}" for _, m, a in TARGETS])
def test_traced_target_exists(label, module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"{label}: {module_name}.{attr} does not exist"
    target = getattr(module, attr)
    if isinstance(target, type):
        # The tracer wraps a class through the __init__ in its own __dict__.
        assert "__init__" in vars(target), f"{module_name}.{attr} defines no __init__ of its own"
    else:
        assert callable(target)
