"""``tools/ab.py`` runs one A/A pair and writes a file shaped like
``BENCH_34.json``.

The pair takes about six seconds, so this module is named to sort last:
``tools/mutants.py`` runs the suite with ``-x``, and a mutant that an
earlier module kills never pays for it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def keys(value, depth):
    """The key tree of nested dicts, ``depth`` levels down."""
    if not isinstance(value, dict) or depth == 0:
        return type(value).__name__
    return {key: keys(item, depth - 1) for key, item in value.items()}


def test_one_count_pair_has_the_shape_of_bench_34(tmp_path):
    # a copy, so that the runs neither remove this checkout's caches nor
    # write its .perfbench_out
    tree = tmp_path / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    out = tmp_path / "BENCH.json"
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tree), str(tree), "--workload",
         "count", "--pairs", "1", "--seconds", "0", "--seed", "5", "--out",
         str(out), "--claim", "count:heavy_ms"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert len(result.stdout.splitlines()) == 2  # one line per run
    written = json.loads(out.read_text())
    bench_34 = json.loads((ROOT / "BENCH_34.json").read_text())
    assert keys(written, 2) == keys(bench_34, 2) | {
        "commits": {"parent": "NoneType", "change": "NoneType"},
        "workloads": {"count": "dict"},
    }
    assert keys(written["workloads"]["count"], 4) == keys(
        bench_34["workloads"]["count"], 4)
    count = written["workloads"]["count"]
    assert count["seeds"] == [5]
    assert count["first"] == ["parent"]
    for side in ("parent", "change"):
        assert count["fail_frac"][side]["failed"] == 0
        assert count["fail_frac"][side]["all_correct"] is True
    heavy = count["metrics"]["heavy_ms"]
    assert heavy["parent"]["per_run"] == [heavy["parent"]["median"]]
    assert heavy["pairs_won"] == written["claim"]["pairs_won"]


def test_a_tree_without_the_benchmark_is_refused(tmp_path):
    result = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), str(ROOT), "--workload",
         "count", "--pairs", "1", "--seconds", "0", "--out",
         str(tmp_path / "BENCH.json")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert f"no perfbench/run.py in {tmp_path}" in result.stderr
    assert not (tmp_path / "BENCH.json").exists()
