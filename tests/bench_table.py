"""Print the median end-to-end figures of every BENCH_<n>.json at the repository root.

Usage, from the repository root:

    python tests/bench_table.py [BENCH_<n>.json ...]

Each BENCH file holds one JSON object per line, a benchmark run: its
`tree` (parent, change or a draft), `workload`, `trace` and `result`, whose
`metrics` map a name to {"value", "unit"}. For each file (in PR order),
workload (in BENCHMARK.json's order) and tree (parent, then change, then
any other), this prints one row: the number of untraced runs (`trace` 0;
files written before the benchmark had a `--trace` flag hold only untraced
runs and carry no `trace` key) and the median of each end-to-end metric
that BENCHMARK.json declares, over the runs that report it ("-" when none
does). A re-anchor can read its trajectory table off these rows.

This is a tool, not a test: pytest does not collect it. Standard library
only.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE_ORDER = {"parent": 0, "change": 1}


def pr_order(path: Path) -> tuple:
    """BENCH_<n>.json sorts by n, any other file name after them."""
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return (int(match.group(1)) if match else math.inf, path.name)


def untraced_runs(path: Path) -> list[dict]:
    """The runs of one BENCH file that ran without the tracer."""
    runs = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [run for run in runs if run.get("trace", 0) == 0]


def table(paths: list[Path], workloads: list[str], metrics: list[str]) -> list[list[str]]:
    """The header row, then one row per file, workload and tree."""
    rows = [["file", "workload", "tree", "runs", *metrics]]
    order = {name: i for i, name in enumerate(workloads)}

    def group_order(group):
        workload, tree = group
        return order.get(workload, len(order)), workload, TREE_ORDER.get(tree, 2), tree

    for path in sorted(paths, key=pr_order):
        groups: dict[tuple[str, str], list[dict]] = {}
        for run in untraced_runs(path):
            groups.setdefault((run["workload"], run["tree"]), []).append(run)
        for workload, tree in sorted(groups, key=group_order):
            runs = groups[workload, tree]
            cells = []
            for metric in metrics:
                values = [
                    run["result"]["metrics"][metric]["value"]
                    for run in runs
                    if metric in ((run.get("result") or {}).get("metrics") or {})
                ]
                cells.append("%.6g" % statistics.median(values) if values else "-")
            rows.append([path.name, workload, tree, str(len(runs)), *cells])
    return rows


def main(argv: list[str]) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    metrics = [m["name"] for m in declared["end_to_end"]]
    paths = [Path(arg) for arg in argv] or list(ROOT.glob("BENCH_*.json"))
    rows = table(paths, workloads, metrics)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        # Text columns left-aligned, figures right-aligned.
        sys.stdout.write("  ".join(c.ljust(w) if i < 3 else c.rjust(w) for i, (c, w) in enumerate(zip(row, widths))).rstrip() + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
