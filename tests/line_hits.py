"""Print every line of src/clarkekin that the test suite never runs.

Usage, from the repository root:

    python tests/line_hits.py [pytest arguments]

It runs pytest (by default the whole of tests/, quietly) with a stdlib
line tracer installed in every Python process the suite starts, the CLI
subprocesses included: a generated sitecustomize module, on a directory put
first on PYTHONPATH, calls sys.settrace at start-up and writes the lines it
saw to one hit file per process at exit. The executable lines of a module
are those its compiled code objects map bytecode to (co_lines). Each line
that no process ran is printed as path:line: source, then one count line.
Exit status: pytest's if it failed, else 1 if any line never ran, else 0.

This is a tool, not a test: pytest does not collect it. The tracer makes
the suite about twice as slow.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clarkekin"

SITECUSTOMIZE = """\
import atexit, os, sys, threading


def _tracer(prefix, hits):
    # Closures, not module globals, which are cleared while the interpreter shuts down.
    def line(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        # Only frames of the package get line events; every other frame runs untraced.
        if frame.f_code.co_filename.startswith(prefix):
            return line(frame, event, arg)
        return None

    return call


def _dump(out, hits):
    with open(os.path.join(out, f"{{os.getpid()}}.hits"), "w") as fh:
        fh.writelines(f"{{name}}\\t{{line}}\\n" for name, line in hits)


_hits = set()
_call = _tracer({prefix!r}, _hits)
sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump, {out!r}, _hits)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that its code objects, nested ones included, map bytecode to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, type(code)))
    return lines


def run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit status under the tracer, and the (file, line) pairs every process ran."""
    with tempfile.TemporaryDirectory() as work:
        site, out = Path(work, "site"), Path(work, "hits")
        site.mkdir()
        out.mkdir()
        prefix = str(PACKAGE) + os.sep
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(prefix=prefix, out=str(out)))
        paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        status = subprocess.run([sys.executable, "-m", "pytest", *pytest_args], cwd=ROOT, env=env).returncode
        hits = set()
        for hit_file in out.glob("*.hits"):
            for entry in hit_file.read_text().splitlines():
                name, line = entry.split("\t")
                hits.add((name, int(line)))
    return status, hits


def main(argv: list[str]) -> int:
    status, hits = run(argv or ["-q", "-p", "no:cacheprovider"])
    unrun, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        unrun += [(path, n, source[n - 1].strip()) for n in sorted(lines) if (str(path), n) not in hits]
    for path, n, text in unrun:
        print(f"{path.relative_to(ROOT)}:{n}: {text}")
    print(f"{len(unrun)} of {total} executable lines in src/clarkekin never ran")
    return status or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
