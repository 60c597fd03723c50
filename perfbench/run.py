"""Run one benchmark workload against the package in ``src/`` and print its
metrics.

    python3 perfbench/run.py --workload {sweep,count,cli} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it repeats rounds of the workload for about S seconds
(always at least one round) and reports the end-to-end metrics.  With
``--trace 1`` it runs one round untraced and the same round again with the
span tracer installed, and reports the per-layer metrics; S is not used.
Times are calibrated against a reference timed next to the operations
(reference.py).  Every output is checked (pinned stdout sha256 and exit
code, or ``math.comb``).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record with
the environment, and in traced runs the spans, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import reference
from reference import Reference
from spans import LAYERS, Tracer
from workloads import (
    BENCH, FULL, OUT, ROOT, SRC, CliOutput, Op, Scale, child_env,
    cli_round, count_points, count_round, load_pins, sweep_round, warm_up,
)

WORKLOADS = ("sweep", "count", "cli")
PROBE_LAUNCHES = 7
SETUP_LAUNCHES = 15


@dataclass(frozen=True)
class Record:
    label: str
    cls: str
    seconds: float  # calibrated
    items: int
    stdout_bytes: int
    ok: bool


def measure(build_round: Callable[[], list[Op]], seconds: Optional[float],
            ref: Reference, tracer: Optional[Tracer] = None) -> list[Record]:
    """Closed loop over rounds of operations.  Another round starts only if
    it is expected to end within ``seconds``; ``None`` means one round.
    ``ref`` is sampled between operations and calibrates their times."""
    timed: list[tuple[Op, float, float, bool, int]] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for op in build_round():
            gc.collect()
            ref.sample_if_due()
            frame = None
            if tracer is not None:
                tracer.request = len(timed)
                frame = tracer.open("bench.op")
            began = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an unexpected exception is a failed op
                output, error = None, exc
            else:
                error = None
            elapsed = time.perf_counter() - began
            if frame is not None:
                tracer.close(frame)
                if op.spans is not None and op.spans.exists():
                    tracer.absorb(op.spans, tracer.request, frame[0])
                    op.spans.unlink()
            ok = error is None and op.check(output)
            if not ok:
                print(f"FAILED {op.label}: {error or output}", file=sys.stderr)
            size = output.bytes if isinstance(output, CliOutput) else 0
            timed.append((op, began, elapsed, ok, size))
        now = time.perf_counter()
        if seconds is None or (now - start) + (now - round_start) > seconds:
            break
    ref.sample()
    return [Record(op.label, op.cls, elapsed * ref.scale(began, began + elapsed),
                   op.items, size, ok)
            for op, began, elapsed, ok, size in timed]


def launch_ms(argv: list[str]) -> float:
    began = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=child_env(),
                   cwd=ROOT, timeout=120)
    return (time.perf_counter() - began) * 1e3


def interpreter_ms() -> float:
    """Bare interpreter start and exit, site included: the environment's floor."""
    ref = reference.launch()
    for _ in range(PROBE_LAUNCHES):
        ref.sample()
    return statistics.median(ref.durations) * 1e3


def import_ms() -> float:
    return statistics.median(
        float(subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "import"], check=True,
            capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=120).stdout)
        for _ in range(PROBE_LAUNCHES))


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of import plus the first warm-up call,
    each calibrated by bare interpreter launches around it."""
    argv = [sys.executable, str(BENCH / "child.py"), "setup", workload]
    ref = reference.launch()
    spans = []
    for _ in range(SETUP_LAUNCHES):
        ref.sample()
        began = time.perf_counter()
        launch_ms(argv)
        spans.append((began, time.perf_counter()))
    ref.sample()
    return statistics.median((end - began) * ref.scale(began, end)
                             for began, end in spans)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as source:
            return source.read().strip()
    except OSError:
        return "unknown"


def rounds_for(workload: str, seed: int, scale: Scale, pins: dict,
                  traced: bool = False) -> Callable[[], list[Op]]:
    """Rounds of one run draw from a single seeded generator, so a seed
    fixes the whole sequence of inputs."""
    rng = random.Random(seed)
    if workload == "sweep":
        return lambda: sweep_round(rng, scale, pins)
    if workload == "count":
        points = count_points(rng, scale)
        return lambda: count_round(rng, points)
    return lambda: cli_round(rng, pins, traced)


def input_medians(records: list[Record]) -> dict[str, float]:
    """Each input's median time over its repeats in the run."""
    seconds: dict[str, list[float]] = defaultdict(list)
    for r in records:
        seconds[r.label].append(r.seconds)
    return {label: statistics.median(s) for label, s in seconds.items()}


def class_ms(workload: str, records: list[Record], cls: str) -> float:
    """Median time of the class's operations.

    On sweep it is ms per 1000 certificates over the class's passes
    (medium: all passes): the sum of each pass's median time over the
    certificates of one of each pass.
    """
    chosen = [r for r in records
              if r.cls == cls or (workload == "sweep" and cls == "medium")]
    if workload == "sweep":
        items = {r.label: r.items for r in chosen}
        return sum(input_medians(chosen).values()) / sum(items.values()) * 1e6
    return statistics.median(r.seconds for r in chosen) * 1e3


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload: str, records: list[Record], setup_s: float) -> dict:
    # Latencies of a typical round: every operation at its input's median
    # time.  Each round holds the same inputs, so these percentiles do not
    # hinge on which repeat of the costliest inputs lands at the cut.
    medians = input_medians(records)
    walls = [medians[r.label] * 1e3 for r in records]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "wall_p50_ms": (statistics.median(walls), "ms"),
        "wall_p90_ms": (statistics.quantiles(walls, n=10)[-1], "ms"),
        "light_ms": (class_ms(workload, records, "light"), "ms"),
        "medium_ms": (class_ms(workload, records, "medium"), "ms"),
        "heavy_ms": (class_ms(workload, records, "heavy"), "ms"),
    }


def per_layer(tracer: Tracer, untraced: list[Record], traced: list[Record],
              interp_ms: float) -> dict:
    metrics = {}
    names = [f"{layer}.{function}" for layer, (_, functions) in LAYERS.items()
             for function in functions] + ["certify.to_dict"]
    for name in names:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    metrics["series.max_order"] = (tracer.max_order, "count")
    degeneracy_calls = tracer.calls["chern.degeneracy_count"]
    metrics["chern.degeneracy_count.useful_ratio"] = (
        len(tracer.degeneracy_inputs) / degeneracy_calls if degeneracy_calls else 0.0,
        "ratio")
    metrics["cli.stdout_bytes"] = (sum(r.stdout_bytes for r in traced), "bytes")
    metrics["cli.interp_ms"] = (interp_ms, "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Scale = FULL, pins: Optional[dict] = None) -> dict:
    """One benchmark run; returns the result object and writes the run record."""
    pins = load_pins() if pins is None else pins
    OUT.mkdir(exist_ok=True)
    environment = {
        "python": sys.version.split()[0],
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
        "cli.interp_ms": interpreter_ms(),
    }
    if workload != "cli":
        warm_up(workload)
    ref = reference.launch() if workload == "cli" else reference.in_process()
    ref.sample()  # the reference's own warm-up
    if trace:
        tracer = Tracer()
        untraced = measure(rounds_for(workload, seed, scale, pins), None, ref)
        if workload != "cli":
            tracer.install()
        try:
            traced = measure(rounds_for(workload, seed, scale, pins, True),
                             None, ref, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
        metrics = per_layer(tracer, untraced, traced, environment["cli.interp_ms"])
        tracer.dump(OUT / f"{workload}.spans")  # latest traced run only
    else:
        setup_s = setup_seconds(workload)
        records = measure(rounds_for(workload, seed, scale, pins), seconds, ref)
        metrics = end_to_end(workload, records, setup_s)
    environment["loadavg_after"] = loadavg()
    environment["reference_ms"] = statistics.median(ref.durations) * 1e3
    failed = sum(not r.ok for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment, "result": result}
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rigidcurves" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:40} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_frac':40} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
