"""Mutation sweep over the solver's contract and input checks.

Each check in `state.py`, `trail.py` and `search.py` stands in for a
static proof, and each one in `cnf.py` and `oracle.py` rejects a bad
input, so some test must fail without it.  The targets are every
`raise` of a ContractError, DimacsError, ValueError or
OracleCapExceeded, every `require(...)` and `assert_valid()` statement,
and every `return False` in the two invariant checkers.  `_backtrack`'s
snapshot comparison is the `raise` it guards.

For each target in turn, the sweep copies `src/`, `tests/`, `bench/` and
`pyproject.toml` into a temporary directory, replaces the target with
`pass` (padded with blank lines, so the file's other line numbers stay),
and runs the tests there with `-x`.  The repository is never written.  A
mutant that passes every test is a survivor.

    python tests/mutants.py

Names the survivors and exits 1 if there are any, 0 if every mutant is
killed, and 2 if the unmutated copy fails its tests.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "dpllsat")
# per module, the tests that kill most of its mutants, run first so that
# -x stops early
SEARCH_TESTS = ("test_trail.py", "test_state.py", "test_search.py",
                "test_acceptance.py", "test_interrupts.py", "test_spec.py")
INPUT_TESTS = ("test_cnf.py", "test_oracle.py", "test_cli.py")
MODULES = {"state.py": SEARCH_TESTS, "trail.py": SEARCH_TESTS,
           "search.py": SEARCH_TESTS, "cnf.py": INPUT_TESTS,
           "oracle.py": INPUT_TESTS}
RAISED = {"ContractError", "DimacsError", "ValueError", "OracleCapExceeded"}
CHECKERS = {"check_state_invariants", "check_trail_invariants"}
TIMEOUT = 900  # seconds per run; a mutant that hangs counts as killed


def _is_target(node, function):
    if isinstance(node, ast.Raise):
        call = node.exc
        return (isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id in RAISED)
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        return ((isinstance(func, ast.Name) and func.id == "require")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "assert_valid"))
    return (isinstance(node, ast.Return) and function in CHECKERS
            and isinstance(node.value, ast.Constant)
            and node.value.value is False)


def targets(source):
    """(first line, last line, column, function, statement text) per
    target, in file order.  Line numbers count from 1."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            name = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if _is_target(child, name):
                found.append((child.lineno, child.end_lineno,
                              child.col_offset, name,
                              ast.get_source_segment(source, child)))
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def mutate(source, first, last, column):
    """The source with lines first..last, which hold one statement starting
    at `column`, replaced by one `pass` and blank lines."""
    lines = source.splitlines(keepends=True)
    indent = lines[first - 1][:column]
    if indent.strip():
        raise ValueError("line %d holds code before the target" % first)
    lines[first - 1:last] = [indent + "pass\n"] + ["\n"] * (last - first)
    return "".join(lines)


def run_tests(copy, first=SEARCH_TESTS):
    """True iff every test passes in the copy; the `first` ones run first."""
    tests = sorted(p.name for p in (copy / "tests").glob("test_*.py"))
    order = [name for name in first if name in tests]
    order += [name for name in tests if name not in order]
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    command += [str(Path("tests", name)) for name in order]
    try:
        done = subprocess.run(command, cwd=copy, env=env, timeout=TIMEOUT,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main():
    with tempfile.TemporaryDirectory(prefix="dpllsat-mutants-") as scratch:
        copy = Path(scratch)
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not run_tests(copy):
            print("the unmutated copy fails its tests")
            return 2
        survivors = []
        for module, first_tests in MODULES.items():
            path = copy / PACKAGE / module
            source = path.read_text()
            for first, last, column, function, text in targets(source):
                label = "%s:%d %s: %s" % (module, first, function,
                                         text.splitlines()[0])
                started = time.monotonic()
                path.write_text(mutate(source, first, last, column))
                killed = not run_tests(copy, first_tests)
                path.write_text(source)
                print("%-8s %5.1fs  %s" % ("killed" if killed else "SURVIVED",
                                           time.monotonic() - started, label),
                      flush=True)
                if not killed:
                    survivors.append(label)
    if survivors:
        print("%d survivor(s):" % len(survivors))
        for label in survivors:
            print("  " + label)
        return 1
    print("no survivors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
