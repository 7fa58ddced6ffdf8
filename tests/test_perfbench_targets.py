"""The functions the benchmark tracer wraps exist in the library.

perfbench/tracer.py names (label, module, attribute) targets and fails a
traced run if one is missing; this test fails first, in the unit suite,
when a target is deleted or renamed.
"""

import ast
import importlib
import importlib.util
import sys
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


MEASURE = TRACER.parent / "measure.py"


def _serves():
    # Read the SERVES literal from the source, as _targets reads TARGETS.
    for node in ast.parse(MEASURE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SERVES"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{MEASURE} has no SERVES")


def test_sampler_bench_calls_reach_every_traced_sampler(tmp_path, monkeypatch):
    # The tracer swaps the module attributes that hold each target, so a
    # dispatch that bypasses those names would leave a label without calls.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)
    spec.loader.exec_module(tracer_module)
    importlib.import_module("clarkekin.cli")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("clarkekin.cli")
        bench = ["bench", "--k", "5", "--runs", "1", "--out", str(tmp_path / "stats.json")]
        assert cli.main(bench + ["--methods", "a,b,c,d,e"]) == 0
        assert cli.main(bench + ["--methods", "c,d,e", "--vectorized"]) == 0
        layers = tracer.fold()["layers"]
    finally:
        tracer.uninstall()
    missing = [label for label in _serves()["sampler"] if layers[label]["calls"] == 0]
    assert not missing, f"no traced call on {missing}"
