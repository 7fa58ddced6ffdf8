"""One clock: sampling.benchmark and cli.cmd_sample are the only code in src/ that reads the time.

The guard reads src/ and fails on any use of an attribute of the time
module (`time.perf_counter()`, or `clock = time.perf_counter`, under any
`import time as ...` name) and on any `from time import ...` outside those
two functions, naming the module, line and function. So a sampler, a
transform or a simulation returns a function of its inputs, and the two
callers that report a time are the ones that take it.
"""

import ast
from pathlib import Path

import pytest

import clarkekin

# module -> the one top-level function in it that may read the clock
TIMERS = {"sampling.py": "benchmark", "cli.py": "cmd_sample"}


def clock_reads(tree, skip: str | None = None) -> list[tuple[int, str, str]]:
    """(line, enclosing Class.function, source) of each clock read in tree, outside the top-level function named skip."""
    names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names if a.name == "time"}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if scope == "<module>" and child.name == skip:
                    continue
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            reads = isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name) and child.value.id in names
            if reads or (isinstance(child, ast.ImportFrom) and child.module == "time"):
                found.append((child.lineno, scope, ast.unparse(child)))
            visit(child, inner)

    visit(tree, "<module>")
    return found


SRC = Path(clarkekin.__file__).parent


def test_only_the_two_timers_read_the_clock():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    found = []
    for module in modules:
        for line, function, source in clock_reads(ast.parse(module.read_text(), str(module)), TIMERS.get(module.name)):
            found.append(f"{module.name}:{line} in {function}: {source}")
    assert not found, "the clock read outside sampling.benchmark and cli.cmd_sample:\n" + "\n".join(found)


@pytest.mark.parametrize("module, timer", sorted(TIMERS.items()))
def test_each_timer_reads_the_clock(module, timer):
    # The exemptions name functions that exist and time something.
    reads = clock_reads(ast.parse((SRC / module).read_text()))
    assert any(function.split(".")[0] == timer for _, function, _ in reads)


@pytest.mark.parametrize(
    "code, count",
    [
        ("import time\ntime.perf_counter()", 1),
        ("import time\nt0 = time.perf_counter_ns()", 1),
        ("import time\nclock = time.perf_counter", 1),
        ("import time\nwall = time.time() - time.monotonic()", 2),
        ("import time as t\nt.process_time()", 1),
        ("from time import perf_counter", 1),
        ("from time import perf_counter as pc\npc()", 1),
        ("from time import *", 1),
        ("def kernel():\n    from time import perf_counter", 1),
        ("import time\ndef other():\n    return time.perf_counter()", 1),
        ("import time\nclass S:\n    def benchmark(self):\n        return time.perf_counter()", 1),
        ("import time", 0),
        ("time = trace.time\nt = time.ndim", 0),
        ("ticks = len(closed.time)", 0),
        ("import datetime\ndatetime.time(1)", 0),
        ("import time\ndef benchmark():\n    return time.perf_counter()", 0),
        ("import time\ndef benchmark():\n    def counted():\n        return time.perf_counter()", 0),
    ],
)
def test_the_guard_sees_every_clock_form(code, count):
    assert len(clock_reads(ast.parse(code), "benchmark")) == count


def test_the_guard_names_the_enclosing_function():
    code = "import time\n\ndef _direct(cfg):\n    t0 = time.perf_counter()\nclass A:\n    def f(self):\n        from time import time"
    found = [(4, "_direct", "time.perf_counter"), (7, "A.f", "from time import time")]
    assert clock_reads(ast.parse(code)) == found
