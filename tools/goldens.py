"""The golden checks under each Python given.

    python tools/goldens.py python3.11 python3.12 python3.13

For each interpreter, in the order given, ``PYTHON tests/test_golden.py``
runs from the repository root with ``PYTHONPATH=src`` and
``PYTHONDONTWRITEBYTECODE=1``.  One line is printed per interpreter: the
golden module's last line, or why the interpreter could not start.  The exit
code is 1 when any interpreter does not start or any check fails, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(pythons: list[str]) -> int:
    if not pythons:
        print(f"usage: {sys.argv[0]} PYTHON...", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    failed = False
    for python in pythons:
        try:
            result = subprocess.run([python, "tests/test_golden.py"], cwd=ROOT,
                                    env=env, capture_output=True, text=True)
        except OSError as exc:
            failed, line = True, f"cannot start: {exc}"
        else:
            failed |= result.returncode != 0
            # a module that could not run leaves its traceback on stderr
            lines = (result.stdout or result.stderr).splitlines()
            line = lines[-1] if lines else f"exit {result.returncode}"
        print(f"{python}: {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
