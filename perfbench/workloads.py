"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  A workload is a list of operations
that make one *round*; the harness repeats rounds.  Each operation has a
class (``light``, ``medium`` or ``heavy``) that picks the end-to-end metric
it feeds, a count of the items it produces, a timed ``run`` and an untimed
``check`` of its output.

* ``sweep`` -- ``rigidcurves.cli.main(["enumerate", ...])`` in-process, for
  all five families over d <= 40, g <= 8, once as CSV (light) and once as
  JSON (heavy).  The seed shuffles the ten passes.  Stdout is hashed and
  compared with the pin taken at the seed commit.
* ``count`` -- ``excess_count`` through the library in three ell bands
  (small = light, medium, large = heavy), checked against ``math.comb``.
  The seed draws the (n, ell) points.
* ``cli`` -- ``python -m rigidcurves`` subprocesses from a fixed pool, one
  at a time; invalid input is light, one certificate, count or table is
  medium, a small enumerate is heavy.  The seed draws the order.  Stdout
  and exit code are compared with the pins.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

FAMILIES = ("5", "4,2", "3,3", "3,2,2", "2,2,2,2")
FORMATS = ("csv", "json")

# The fixed cli pool: (class, arguments).  Expected exit codes and stdout
# hashes are pinned in pins.json; ``table --verify`` exits 3 and the invalid
# inputs exit 2 at the seed commit, and both count as expected outcomes.
CLI_POOL = (
    ("light", ("certify", "--type", "7", "--d", "1", "--g", "1")),
    ("light", ("count", "--n", "3", "--ell", "5")),
    ("medium", ("certify", "--type", "5", "--d", "6", "--g", "2")),
    ("medium", ("certify", "--type", "3,3", "--d", "3", "--g", "1")),
    ("medium", ("certify", "--type", "5", "--d", "5", "--g", "3")),
    ("medium", ("certify", "--type", "2,2,2,2", "--d", "14", "--g", "8")),
    ("medium", ("count", "--n", "36", "--ell", "17")),
    ("medium", ("table", "--verify")),
    ("heavy", ("enumerate", "--type", "3,2,2", "--d-max", "20", "--g-max", "5",
               "--format", "csv")),
)
CLI_REPEATS = 3  # each pool entry runs this many times per round
GOLDEN = (1 + math.sqrt(5)) / 2


@dataclass(frozen=True)
class Band:
    cls: str
    ell_low: int
    ell_high: int
    n_max: Optional[int]  # None: n ranges up to 2 * ell
    points: int


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``FULL`` is what the benchmark measures; ``TINY`` keeps
    the smoke check fast."""

    d_max: int
    g_max: int
    bands: tuple[Band, ...]


FULL = Scale(40, 8, (
    Band("light", 0, 34, 36, 120),
    Band("medium", 100, 200, None, 40),
    Band("heavy", 500, 540, None, 8),
))
TINY = Scale(12, 4, (
    Band("light", 0, 10, 12, 8),
    Band("medium", 20, 30, None, 3),
    Band("heavy", 40, 50, None, 2),
))


@dataclass
class Op:
    cls: str
    label: str
    items: int
    run: Callable[[], object]
    check: Callable[[object], bool]
    spans: Optional[Path] = None  # where a traced child process dumps its spans


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def region_key(scale: Scale) -> str:
    return f"{scale.d_max}x{scale.g_max}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class CliOutput:
    """What a CLI call produced: exit code, stdout sha256 and stdout size."""

    code: int
    sha256: str
    bytes: int

    def matches(self, pin: dict) -> bool:
        return self.code == pin["exit"] and self.sha256 == pin["sha256"]


class HashingWriter:
    """Text stream that keeps only the sha256 and byte count of what is
    written, so a 26 MB JSON pass is checked without being held."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self.digest.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def run_cli_in_process(argv: list[str]) -> CliOutput:
    from rigidcurves import cli

    out = HashingWriter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return CliOutput(code, out.digest.hexdigest(), out.bytes)


def run_cli_child(argv: list[str]) -> CliOutput:
    proc = subprocess.run(argv, capture_output=True, env=child_env(),
                          cwd=ROOT, timeout=120)
    return CliOutput(proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
                     len(proc.stdout))


def enumerate_argv(family: str, fmt: str, scale: Scale) -> list[str]:
    return ["enumerate", "--type", family, "--d-max", str(scale.d_max),
            "--g-max", str(scale.g_max), "--format", fmt]


def region_points(scale: Scale) -> int:
    return sum(scale.d_max - max(1, 2 * g - 3) + 1
               for g in range(scale.g_max + 1))


def sweep_round(rng: random.Random, scale: Scale, pins: dict) -> list[Op]:
    expected = pins["sweep"][region_key(scale)]
    points = region_points(scale)
    ops = []
    for family in FAMILIES:
        for fmt in FORMATS:
            argv = enumerate_argv(family, fmt, scale)
            pin = expected[f"{family}/{fmt}"]
            ops.append(Op("light" if fmt == "csv" else "heavy",
                          f"enumerate {family} {fmt}", points,
                          lambda argv=argv: run_cli_in_process(argv),
                          lambda out, pin=pin: out.matches(pin)))
    rng.shuffle(ops)
    return ops


def count_points(rng: random.Random, scale: Scale) -> list[tuple[Band, int, int]]:
    """Draw the (n, ell) points of every band, once per run.

    Each band is cut into ``points`` cells of a fixed lattice: cell i takes
    the i-th of ``points`` equal slices of the ell range and the j-th of the
    n range, with j/points the fractional part of i times the golden ratio,
    so ell and n stay uncorrelated.  The seed draws one point inside each
    cell.  Every seed so covers each band the same way, and band medians
    and percentiles do not hinge on the draw.
    """
    points = []
    for band in scale.bands:
        k = band.points
        for i in range(k):
            j = int((i * GOLDEN % 1) * k)
            ell = band.ell_low + int((i + rng.random()) * (band.ell_high - band.ell_low + 1) / k)
            n_max = band.n_max if band.n_max is not None else 2 * ell
            n = ell + 2 + int((j + rng.random()) * (n_max - ell - 1) / k)
            points.append((band, n, ell))
    return points


def count_round(rng: random.Random, points) -> list[Op]:
    import rigidcurves as rc

    ops = [
        Op(band.cls, f"excess_count n={n} ell={ell}", 1,
           # looked up at call time, so installed trace wrappers are used
           lambda n=n, ell=ell: rc.excess_count(rc.ExcessProblem(n, ell)),
           # oracle independent of the program: never excess/rigid_count
           lambda value, n=n, ell=ell: value == math.comb(n - 2, ell))
        for band, n, ell in points
    ]
    rng.shuffle(ops)
    return ops


def cli_round(rng: random.Random, pins: dict, traced: bool = False) -> list[Op]:
    ops = []
    for index, (cls, args) in enumerate(CLI_POOL * CLI_REPEATS):
        key = " ".join(args)
        spans = OUT / f"child-{index}.spans" if traced else None
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(spans), *args]
        else:
            argv = [sys.executable, "-m", "rigidcurves", *args]
        ops.append(Op(cls, key, 1, lambda argv=argv: run_cli_child(argv),
                      lambda out, pin=pins["cli"][key]: out.matches(pin), spans))
    rng.shuffle(ops)
    return ops


def warm_up(workload: str) -> None:
    """The first call of each workload, run after import when setup time is
    measured and before the timed loop."""
    if workload == "sweep":
        run_cli_in_process(enumerate_argv(FAMILIES[0], "json", TINY))
    elif workload == "count":
        from rigidcurves import ExcessProblem, excess_count

        excess_count(ExcessProblem(36, 17))
    else:
        run_cli_in_process(["certify", "--type", "5", "--d", "6", "--g", "2"])
