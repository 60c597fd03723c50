"""A/B runs of the benchmark on two trees, written as one BENCH file.

    python tools/ab.py PARENT_TREE CHANGE_TREE --workload count --pairs 10 \\
        --seconds 30 --out BENCH_37.json [--workload sweep ...] \\
        [--seed 1] [--claim count:heavy_ms]

Each tree is a checkout of the repository, for example a clone of the
parent commit and one of the change.  For each workload, pair ``i`` runs
``perfbench/run.py --workload W --seed S --seconds S --trace 0`` once in each
tree, with that tree's own ``perfbench/`` and ``src/``; the parent runs
first in even pairs and the change in odd ones.  Every run has
``PYTHONDONTWRITEBYTECODE=1``, and every ``__pycache__`` of both trees is
removed before it.  Seeds count up from ``--seed``, one per pair, across the
workloads in the order given.

The file holds, per workload, the seeds, which side ran first, the share of
failed operations, and for every end-to-end metric that the change tree's
``BENCHMARK.json`` names: each side's median, quartiles
(``statistics.quantiles(n=4, method='exclusive')``), IQR over median and
runs, the change's relative difference of medians, and the pairs it won.  A
``--claim WORKLOAD:METRIC`` is met when the change wins at least nine in ten
pairs and its median gain exceeds the parent's IQR.  The exit code is 2 for
invalid input, 1 when a run fails to start or end, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BYTECODE = ("PYTHONDONTWRITEBYTECODE=1 for every run; every __pycache__ "
            "directory removed from both trees before each run")


class RunError(Exception):
    """A benchmark run that did not end with its result line."""


def commit(tree: Path) -> str | None:
    """The tree's short commit, suffixed ``-dirty`` for uncommitted changes."""
    if not (tree / ".git").exists():
        return None
    described = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty"],
        capture_output=True, text=True)
    return described.stdout.strip() or None


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trees: tuple[Path, Path]) -> tuple[dict, dict]:
    """One untraced run in ``tree``: its result object and environment."""
    for root in trees:
        for cache in list(root.rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RunError(f"{tree}: {' '.join(argv[1:])} exited "
                       f"{done.returncode}: {done.stderr.strip()}")
    environment = lines[-2].removeprefix("environment ")
    return json.loads(lines[-1]), json.loads(environment)


def side_stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="exclusive")
                 if len(values) > 1 else (median,) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else 0.0,
            "per_run": values}


def fail_stats(results: list[dict]) -> dict:
    return {
        "per_run": [r["failed"] / r["attempted"] for r in results],
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "attempted_per_run": [r["attempted"] for r in results],
        "all_correct": all(r["correct"] for r in results),
    }


def won(change: float, parent: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def workload_entry(seeds: list[int], first: list[str],
                   results: dict[str, list[dict]], spec: list[dict]) -> dict:
    metrics = {}
    for metric in spec:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in SIDES}
        stats = {side: side_stats(values[side]) for side in SIDES}
        parent_median = stats["parent"]["median"]
        metrics[name] = {
            "unit": metric["unit"],
            "bound": metric["bound"],
            **stats,
            "change_vs_parent": (stats["change"]["median"] / parent_median - 1
                                 if parent_median else 0.0),
            "pairs_won": sum(won(c, p, metric["better"]) for c, p in
                             zip(values["change"], values["parent"])),
        }
    return {"seeds": seeds, "first": first,
            "fail_frac": {side: fail_stats(results[side]) for side in SIDES},
            "metrics": metrics}


def claim_entry(workload: str, metric: str, entry: dict, better: str,
                pairs: int) -> dict:
    stats = entry["metrics"][metric]
    parent, change = stats["parent"], stats["change"]
    gain = parent["median"] - change["median"]
    if better != "lower":
        gain = -gain
    parent_iqr = parent["q3"] - parent["q1"]
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "change_vs_parent": stats["change_vs_parent"],
        "pairs_won": stats["pairs_won"],
        "median_gain": gain,
        "parent_iqr": parent_iqr,
        "met": 10 * stats["pairs_won"] >= 9 * pairs and gain > parent_iqr,
    }


def method_text(pairs: int, claim: tuple[str, str] | None) -> str:
    text = (
        f"{pairs} pairs per workload, one seed per pair, the side that runs "
        "first alternating from pair to pair; a pair is won when the "
        "change's value is better than the parent's; q1 and q3 are "
        "statistics.quantiles(n=4, method='exclusive')")
    if claim:
        text += (f"; the claimed gain is {claim[1]} on {claim[0]}, met when "
                 "the change wins at least 9 in 10 pairs and the median "
                 "gain exceeds the parent's interquartile range")
    return text + "; every other metric is checked against its bound"


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGE_TREE")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py in {tree}")
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if args.seconds < 0:
        parser.error(f"--seconds must be nonnegative, got {args.seconds}")
    if len(set(args.workload)) != len(args.workload):
        parser.error("each --workload may be given once")
    if args.claim is not None:
        workload, _, metric = args.claim.partition(":")
        if workload not in args.workload or not metric:
            parser.error(f"--claim must name one of the workloads run and a "
                         f"metric, got {args.claim}")
        args.claim = (workload, metric)
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    if args.claim and args.claim[1] not in better:
        print(f"error: {args.claim[1]} is not an end-to-end metric",
              file=sys.stderr)
        return 2
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    both = (trees["parent"], trees["change"])
    workloads, environment = {}, None
    seed = args.seed
    try:
        for workload in args.workload:
            seeds, first = [], []
            results: dict[str, list[dict]] = {side: [] for side in SIDES}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                seeds.append(seed)
                first.append(order[0])
                for side in order:
                    result, run_env = run_once(trees[side], workload, seed,
                                               args.seconds, both)
                    results[side].append(result)
                    environment = environment or run_env
                    shown = result["metrics"].get(
                        args.claim[1] if args.claim else "wall_p50_ms")
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side} "
                          f"seed {seed}: {shown['value']:.6g} {shown['unit']}"
                          f", {result['failed']} of {result['attempted']} "
                          "failed", flush=True)
                seed += 1
            workloads[workload] = workload_entry(seeds, first, results,
                                                 metrics)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    document = {
        "commits": {side: commit(trees[side]) for side in SIDES},
        "command": ("python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "environment": {"python": environment["python"],
                        "cpu": environment["cpu"],
                        "nproc": environment["nproc"],
                        "bytecode": BYTECODE},
        "method": method_text(args.pairs, args.claim),
        "workloads": workloads,
    }
    if args.claim:
        workload, metric = args.claim
        document["claim"] = claim_entry(workload, metric, workloads[workload],
                                        better[metric], args.pairs)
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
