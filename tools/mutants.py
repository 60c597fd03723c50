"""Mutation check of the test suite, with the standard library only.

    python tools/mutants.py                  # every function
    python tools/mutants.py --only knutsen_exists Certificate.warnings
    python tools/mutants.py --list           # print the mutants, run nothing

Each mutant changes one operator, literal or handler of ``src/rigidcurves``:

* set A: a comparison swapped for its neighbour (``<`` and ``<=``, ``>`` and
  ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``),
  or an int literal plus 1;
* set B: ``+`` -> ``-``, ``-`` -> ``+``, ``*`` -> ``+``, ``//`` -> ``*``,
  ``%`` -> ``//``, in expressions and in augmented assignments (``+=`` ->
  ``-=`` and so on), ``and`` and ``or`` swapped, a ``not`` dropped, a bool
  literal flipped, or the two arms of a conditional expression swapped;
* statements: the body of an ``except`` handler replaced by ``raise``, so
  that the exception it handled goes on (a body that is a bare ``raise``
  already is left alone).

Every mutant is written into one copy of the repository.  There the golden
module first runs standalone (``python tests/test_golden.py``, without
pytest's start-up), and a mutant that it fails is killed.  Any other mutant
runs the rest of the tier-1 suite with ``pytest -x``, less the contracted
failure (``test_criterion_5_lattice_identities``) and the flat-memory
tests; the golden module, which it has just passed, is left out.  Both runs
share one timeout and memory limit.  A mutant survives when the suite
passes.  The unmutated copy runs both first: a suite that already fails
would kill every mutant, so if it fails, the tool prints which stage failed
(the golden pre-pass or the suite), runs no mutant and exits 2.

No survivor is excused: the exit code is 1 when any mutant survives, else
0.  Where a mutant changes only speed, or nothing, restate the code so that
it is not made, or add a test of the work it changes.

``--only`` takes function names (``knutsen_exists``, ``Certificate.warnings``,
``<module>`` for top-level code, ``CicyType.<body>`` for the statements of a
class body outside its methods), optionally as ``file.py:name``.  A name
that matches no function is printed as ``unknown unit: NAME``, and the tool
exits 2 before it copies or runs anything.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rigidcurves"
GOLDEN = [sys.executable, "tests/test_golden.py"]  # with PYTHONPATH=src
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--deselect",
          "tests/test_acceptance.py::test_criterion_5_lattice_identities",
          "-k", "not TestFlatMemory"]
TIMEOUT_S = 600
MEMORY_BYTES = 2 << 30  # address-space limit of each test run

COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
           ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
           ast.NotIn: ast.In}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add,
              ast.FloorDiv: ast.Mult, ast.Mod: ast.FloorDiv}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}

def _variants(node: ast.AST):
    """Each one-operator variant of ``node``, in sets A and B."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE:
                mutant = copy.deepcopy(node)
                mutant.ops[i] = COMPARE[type(op)]()
                yield mutant
    if isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)
    if isinstance(node, ast.Constant) and type(node.value) is bool:
        yield ast.Constant(not node.value)
    elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
        yield ast.BinOp(node.left, ARITHMETIC[type(node.op)](), node.right)
    elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
        yield ast.AugAssign(node.target, ARITHMETIC[type(node.op)](),
                            node.value)
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(BOOLEAN[type(node.op)](), node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.IfExp):
        yield ast.IfExp(node.test, node.orelse, node.body)
    elif isinstance(node, ast.ExceptHandler) and [
            ast.dump(s) for s in node.body] != ["Raise()"]:  # not a bare raise
        yield ast.Raise()


def _plain(body: list[ast.stmt]) -> list[ast.stmt]:
    return [s for s in body
            if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]


def _units(tree: ast.Module):
    """(qualified name, nodes) of each function, ``<module>`` for the
    top-level statements that are not function or class definitions, and
    ``Class.<body>`` for those of each class body."""
    yield "<module>", _plain(tree.body)
    stack = [("", s) for s in tree.body]
    while stack:
        prefix, node = stack.pop(0)
        if isinstance(node, ast.ClassDef):
            yield f"{prefix}{node.name}.<body>", _plain(node.body)
            stack[:0] = [(f"{prefix}{node.name}.", s) for s in node.body]
        elif isinstance(node, ast.FunctionDef):
            yield prefix + node.name, [node]


def _skipped(tree: ast.Module) -> set[int]:
    """ids of the nodes left alone: annotations and f-string parts (whose
    positions are unreliable), and their subtrees."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, ast.arg) and node.annotation:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef):
            roots.extend(filter(None, [node.returns]))
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def mutants(path: Path, only: set[str] | None):
    """(unit, description, mutated source) for each mutant of one file."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    skipped = _skipped(tree)
    for unit, nodes in _units(tree):
        if only is not None and not {unit, f"{path.name}:{unit}"} & only:
            continue
        for node in (n for root in nodes for n in ast.walk(root)
                     if isinstance(n, (ast.expr, ast.AugAssign,
                                       ast.ExceptHandler))
                     and id(n) not in skipped):
            # a handler's variant takes the place of its body
            span = (node.body if isinstance(node, ast.ExceptHandler)
                    else [node])
            for variant in _variants(node):
                text = ast.unparse(variant)
                if isinstance(variant, ast.expr) and not isinstance(
                        variant, ast.Constant):
                    text = f"({text})"
                first, last = span[0].lineno - 1, span[-1].end_lineno - 1
                head = lines[first][:span[0].col_offset]
                tail = lines[last][span[-1].end_col_offset:]
                changed = head + text + tail
                yield unit, " ".join(changed.split()), "".join(
                    lines[:first] + [changed] + lines[last + 1:])


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(copy_root: Path) -> str | None:
    """The stage that fails for the package now in ``copy_root``, or None
    when it survives: the golden pre-pass, then the suite if the pre-pass
    passes."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    # the golden module has just passed; the CLI's processes are slow
    tests = sorted((p.name for p in copy_root.glob("tests/test_*.py")
                    if p.name != "test_golden.py"),
                   key=lambda name: (name == "test_cli.py", name))
    for stage, command, extra in (
            ("golden pre-pass", GOLDEN, {"PYTHONPATH": "src"}),
            ("suite", PYTEST + [f"tests/{name}" for name in tests], {})):
        try:
            result = subprocess.run(command, cwd=copy_root, env=env | extra,
                                    capture_output=True, timeout=TIMEOUT_S,
                                    preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return f"{stage} (timed out)"
        if result.returncode != 0:
            return stage
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME")
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and run nothing")
    args = parser.parse_args(argv)
    only = set(args.only) if args.only else None
    paths = sorted(PACKAGE.glob("*.py"))
    known = {name for path in paths
             for unit, _ in _units(ast.parse(path.read_text()))
             for name in (unit, f"{path.name}:{unit}")}
    unknown = sorted((only or set()) - known)
    for name in unknown:
        print(f"unknown unit: {name}", file=sys.stderr)
    if unknown:
        return 2
    found = [(path, *mutant) for path in paths
             for mutant in mutants(path, only)]
    if args.list:
        for path, unit, description, _ in found:
            print(f"{path.name}:{unit}: {description}")
        print(f"{len(found)} mutants")
        return 0
    start, survivors = time.monotonic(), 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        copy_root = Path(workdir) / "repo"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".perfbench_out", ".pytest_cache"))
        failed = run(copy_root)
        if failed is not None:
            print(f"the unmutated package fails the {failed}: no mutant run")
            return 2
        for path, unit, description, source in found:
            target = copy_root / path.relative_to(ROOT)
            target.write_text(source)
            failed = run(copy_root)
            target.write_text(path.read_text())
            survivors += failed is None
            status = "killed" if failed is not None else "SURVIVED"
            print(f"{path.name}:{unit}: {description}  [{status}]", flush=True)
    print(f"{len(found)} mutants, {survivors} survivors, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
