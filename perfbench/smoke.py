"""Smoke check of the benchmark itself; not part of the tier-1 test run.

    python3 perfbench/smoke.py

On the tiny region and small counts it runs every workload untraced and
traced, and checks that each run emits exactly the metrics BENCHMARK.json
names, with their units, and that no operation fails.  Then it corrupts one
sweep pin and one cli pin and checks that the failures are counted.
"""

import copy
import json
import sys

from run import run
from workloads import ROOT, SRC, TINY, load_pins, region_key


def fail(message: str) -> None:
    raise SystemExit(f"smoke check failed: {message}")


def main() -> None:
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    pins = load_pins()
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads:
            result = run(workload, 1, 0, trace, TINY, pins)["result"]
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != expected:
                fail(f"{workload} trace={int(trace)} emitted {emitted}, "
                     f"expected {expected}")
            if result["failed"] or not result["correct"]:
                fail(f"{workload} trace={int(trace)}: {result['failed']} "
                     f"of {result['attempted']} operations failed")
            print(f"ok {workload} trace={int(trace)}: {len(emitted)} metrics, "
                  f"{result['attempted']} operations")
    wrong = copy.deepcopy(pins)
    wrong["sweep"][region_key(TINY)]["5/csv"]["sha256"] = "0" * 64
    wrong["cli"]["table --verify"]["exit"] = 0
    for workload in ("sweep", "cli"):
        result = run(workload, 1, 0, False, TINY, wrong)["result"]
        if not result["failed"] or result["correct"]:
            fail(f"{workload}: a wrong pin was not counted as a failure")
        print(f"ok {workload} wrong pin: fail_frac = "
              f"{result['failed']}/{result['attempted']}")
    print("smoke check passed")


if __name__ == "__main__":
    main()
