"""tests/bench_table.py on the committed BENCH files: one row per file, workload and tree, with their medians."""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ["setup_s", "peak_rss_mb", "throughput_per_s", "op_p50_us", "op_p90_us"]


def printed_rows(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "bench_table.py"), *args], capture_output=True, text=True, check=True
    )
    header, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert header == ["file", "workload", "tree", "runs", *METRICS]
    return rows


def untraced_groups(path):
    """(workload, tree) -> the untraced runs of one BENCH file, read here line by line."""
    groups = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            if run.get("trace", 0) == 0:
                groups.setdefault((run["workload"], run["tree"]), []).append(run)
    return groups


def test_every_committed_file_workload_and_tree_gets_its_medians():
    # Traced runs count nowhere: BENCH_44.json holds one per tree beside its untraced control-sim runs.
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    rows = printed_rows()
    assert sorted({row[0] for row in rows}) == sorted(path.name for path in files)
    expected = {}
    for path in files:
        for (workload, tree), runs in untraced_groups(path).items():
            medians = [statistics.median(run["result"]["metrics"][m]["value"] for run in runs) for m in METRICS]
            expected[path.name, workload, tree] = [str(len(runs))] + ["%.6g" % v for v in medians]
    assert {tuple(row[:3]): row[3:] for row in rows} == expected
    assert len(rows) == len(expected)


def test_rows_follow_the_pr_order_and_parent_comes_before_change():
    rows = printed_rows()
    numbers = [int(row[0][len("BENCH_") : -len(".json")]) for row in rows]
    assert numbers == sorted(numbers)
    for i, row in enumerate(rows[1:], 1):
        if row[:2] == rows[i - 1][:2]:
            assert (rows[i - 1][2], row[2]) != ("change", "parent")

