"""Fresh-interpreter probes and the traced cli shim.

    child.py setup <workload>        import the package, run the warm-up call
    child.py import                  print the import time of rigidcurves.cli in ms
    child.py cli <spans> <args...>   run the CLI with trace wrappers installed,
                                     then dump its spans to <spans>

The caller puts the repository's ``src`` on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "import":
        start = time.perf_counter()
        import rigidcurves.cli  # noqa: F401

        print((time.perf_counter() - start) * 1e3)
        return 0
    if mode == "setup":
        import rigidcurves.cli  # noqa: F401
        from workloads import warm_up

        warm_up(argv[1])
        return 0
    if mode == "cli":
        from pathlib import Path

        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        from rigidcurves import cli

        try:
            return cli.main(argv[2:])
        finally:
            tracer.uninstall()
            sys.stdout.flush()
            tracer.dump(Path(argv[1]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
