"""``tools/goldens.py`` runs the golden module under each Python given."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "goldens.py"


def goldens(*pythons):
    return subprocess.run([sys.executable, str(TOOL), *pythons],
                          capture_output=True, text=True, timeout=300)


def test_this_python_matches_every_golden_check():
    result = goldens(sys.executable)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        f"{sys.executable}: 28 of 28 golden checks match"]


def test_a_python_that_cannot_start_fails(tmp_path):
    missing = str(tmp_path / "no-such-python")
    result = goldens(missing)
    assert result.returncode == 1
    assert result.stdout.startswith(f"{missing}: cannot start: ")
