"""Write pins.json: stdout sha256, size and exit code of every sweep pass
(full and smoke regions) and every cli pool entry, as the package in
``src/`` produces them.

    python3 perfbench/pin.py <commit>

The pins in the repository were taken at the commit they name.  Outputs are
meant to stay byte-identical, so re-pinning is for a deliberate change of
output only.
"""

import json
import sys

from workloads import (
    BENCH, CLI_POOL, FAMILIES, FORMATS, FULL, SRC, TINY, enumerate_argv,
    region_key, run_cli_child, run_cli_in_process,
)


def pin(output) -> dict:
    return {"exit": output.code, "sha256": output.sha256, "bytes": output.bytes}


def main(commit: str) -> None:
    sys.path.insert(0, str(SRC))
    pins = {"commit": commit, "sweep": {}, "cli": {}}
    for scale in (FULL, TINY):
        pins["sweep"][region_key(scale)] = {
            f"{family}/{fmt}": pin(run_cli_in_process(enumerate_argv(family, fmt, scale)))
            for family in FAMILIES for fmt in FORMATS
        }
    for _, args in CLI_POOL:
        pins["cli"][" ".join(args)] = pin(
            run_cli_child([sys.executable, "-m", "rigidcurves", *args]))
    (BENCH / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
