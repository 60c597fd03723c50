"""``tools/mutants.py`` lists its mutants and rejects unknown names; no
case here runs the suite."""

import ast
import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "mutants.py"


def tool(*args, tool=TOOL):
    return subprocess.run([sys.executable, str(tool), *args],
                          capture_output=True, text=True, timeout=60)


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    module = load_tool()
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


SCOPED = """\
import os

LIMIT = 3


def f():
    return 1


def g():
    return 2


class K:
    n = 1

    @staticmethod
    def m():
        x = 1
        return x
"""


@pytest.mark.parametrize("hunks, units", [
    ([(19, 1)], {"K.m"}),  # inside a method
    ([(7, 5)], {"f", "g"}),  # across two functions
    ([(15, 1)], {"K.<body>"}),  # in a class body
    ([(3, 1)], {"<module>"}),  # top-level code
    ([(19, 0)], {"K.m"}),  # a pure deletion between two lines of a method
    ([(7, 0)], {"f"}),  # a pure deletion after a function's last line
    ([(8, 0)], set()),  # a pure deletion between blank lines
    ([(17, 1)], {"K.m"}),  # a decorator
    ([(12, 2), (14, 1)], set()),  # blank lines and a class header
    ([(1, 1), (11, 1)], {"<module>", "g"}),
], ids=["method", "two-functions", "class-body", "top-level", "deletion",
        "deletion-at-end", "deletion-between-blanks", "decorator",
        "no-statement", "two-hunks"])
def test_each_hunk_selects_the_units_it_meets(hunks, units):
    module = load_tool()
    spans = module._spans(ast.parse(SCOPED))
    assert module.changed_units(spans, hunks) == units


def test_hunks_are_read_by_file_name():
    diff = """\
diff --git a/src/rigidcurves/series.py b/src/rigidcurves/series.py
index 1111111..2222222 100644
--- a/src/rigidcurves/series.py
+++ b/src/rigidcurves/series.py
@@ -3 +3 @@ def f():
--- a removed line that looks like a header
+++ an added line that looks like a header
@@ -10,2 +9,0 @@ class K:
-a
-b
diff --git a/src/rigidcurves/new.py b/src/rigidcurves/new.py
new file mode 100644
@@ -0,0 +1,4 @@
+a
"""
    assert load_tool()._hunks(diff) == {"series.py": [(3, 1), (9, 0)],
                                        "new.py": [(1, 4)]}


@pytest.fixture
def checkout(tmp_path):
    """A git repository holding a copy of the tool and the package."""
    shutil.copytree(ROOT / "src" / "rigidcurves", tmp_path / "src" /
                    "rigidcurves", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(TOOL, tmp_path / "tools")
    for command in (["init", "-q"], ["add", "-A"],
                    ["-c", "user.name=t", "-c", "user.email=t@example.org",
                     "-c", "commit.gpgsign=false", "commit", "-q", "-m", "a"]):
        subprocess.run(["git", *command], cwd=tmp_path, check=True,
                       capture_output=True)
    return tmp_path


def test_changed_on_a_clean_tree_lists_nothing(checkout):
    result = tool("--changed", "HEAD", "--list",
                  tool=checkout / "tools" / "mutants.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["scope:", "0 mutants"]


def test_changed_scopes_an_edited_function(checkout):
    path = checkout / "src" / "rigidcurves" / "series.py"
    source = path.read_text()
    path.write_text(source.replace("    if c0 == 0:\n",
                                   "    if c0 == 0:  # edited\n", 1))
    result = tool("--changed", "HEAD", "--list",
                  tool=checkout / "tools" / "mutants.py")
    assert result.returncode == 0, result.stderr
    scope, *listed, last = result.stdout.splitlines()
    assert scope == "scope: series.py:invert"
    assert listed and all(line.startswith("series.py:invert: ")
                          for line in listed)
    assert last == f"{len(listed)} mutants"


@pytest.mark.parametrize("listing", [["--list"], []])
def test_an_unknown_revision_is_named_and_runs_nothing(checkout, listing):
    result = tool(*listing, "--changed", "no-such-revision",
                  tool=checkout / "tools" / "mutants.py")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["unknown revision: no-such-revision"]


def test_changed_cannot_be_combined_with_only():
    result = tool("--list", "--changed", "HEAD", "--only", "invert")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "not allowed with argument" in result.stderr
