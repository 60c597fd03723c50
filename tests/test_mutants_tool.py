"""``tools/mutants.py`` lists its mutants and rejects unknown names; no
case here runs the suite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=60)


def test_list_ends_with_the_number_of_mutants_listed():
    for unit, file in (("invert", "series.py"),
                       ("CicyType.<body>", "certify.py")):
        result = tool("--list", "--only", unit)
        assert result.returncode == 0, result.stdout + result.stderr
        *listed, last = result.stdout.splitlines()
        assert listed and all(line.startswith(f"{file}:{unit}: ")
                              for line in listed)
        assert last == f"{len(listed)} mutants"


@pytest.mark.parametrize("listing", [["--list"], []])
def test_an_unknown_name_is_named_and_runs_nothing(listing):
    result = tool(*listing, "--only", "invert", "knutsen_exist")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["unknown unit: knutsen_exist"]


SYNTHETIC = """\
def f(a, b):
    x = a < b
    y = a == b
    z = 1
    s = a + b
    q = a // b
    r = a % b
    both = a and b
    neg = not a
    flag = True
    pick = a if b else b
    a += b
    same = a is b
    has = a in b
    try:
        a = b
    except ValueError:
        a = None
    except TypeError:
        raise


class K:
    n = 1

    def m(self):
        return self
"""


def test_each_operator_has_its_documented_variant(tmp_path):
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    found = list(module.mutants(path, None))
    assert sorted((unit, description) for unit, description, _ in found) == [
        ("K.<body>", "n = 2"),
        ("f", "a -= b"),
        ("f", "both = (a or b)"),
        ("f", "flag = False"),
        ("f", "has = (a not in b)"),
        ("f", "neg = (a)"),
        ("f", "pick = (b if b else a)"),
        ("f", "q = (a * b)"),
        ("f", "r = (a // b)"),
        ("f", "raise"),
        ("f", "s = (a - b)"),
        ("f", "same = (a is not b)"),
        ("f", "x = (a <= b)"),
        ("f", "y = (a != b)"),
        ("f", "z = 2"),
    ]
    original = SYNTHETIC.splitlines()
    for _, description, source in found:
        changed = [(old, new) for old, new
                   in zip(original, source.splitlines()) if old != new]
        assert [" ".join(new.split()) for _, new in changed] == [description]
    assert list(module.mutants(path, {"g"})) == []
    assert list(module.mutants(path, {"synthetic.py:f"})) == [
        mutant for mutant in found if mutant[0] == "f"]
    assert list(module.mutants(path, {"K.<body>"})) == [
        mutant for mutant in found if mutant[0] == "K.<body>"]
