"""Command-line front end and benchmark instance generators.

Output and exit codes follow the SAT-competition convention:
`s SATISFIABLE` with `v` model lines and exit 10, `s UNSATISFIABLE` and exit
20, `s UNKNOWN` and exit 0 on timeout, exit 1 on input errors.
"""

import argparse
import os
import sys
import warnings
from itertools import chain, combinations, islice

from . import __version__
from .cnf import DimacsError, DimacsWarning, build_formula, parse_dimacs, to_dimacs
from .oracle import check_model
from .search import Tracer, solve
from .state import build_state

EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_UNKNOWN = 0
EXIT_ERROR = 1


def generate_pigeonhole(holes):
    """PHP instance: holes+1 pigeons into `holes` holes (unsatisfiable).

    Variable p*holes+h (0-based, pigeon-major) means pigeon p sits in hole
    h.  Clauses: each pigeon in some hole, no two pigeons share a hole.
    """
    if holes < 1:
        raise ValueError("holes must be >= 1")
    pigeons = holes + 1
    clauses = []
    for p in range(pigeons):
        clauses.append([p * holes + h + 1 for h in range(holes)])
    for h in range(holes):
        for p1, p2 in combinations(range(pigeons), 2):
            clauses.append([-(p1 * holes + h + 1), -(p2 * holes + h + 1)])
    return build_formula(pigeons * holes, clauses)


def generate_queens(n):
    """N-queens instance with one variable per board cell.

    At least one queen per row; at most one per row, column, and diagonal
    (pairwise encoding).  Satisfiable iff n-queens has a solution.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def var(row, col):
        return row * n + col + 1

    clauses = []
    for row in range(n):
        clauses.append([var(row, col) for col in range(n)])
        for c1, c2 in combinations(range(n), 2):
            clauses.append([-var(row, c1), -var(row, c2)])
    for col in range(n):
        for r1, r2 in combinations(range(n), 2):
            clauses.append([-var(r1, col), -var(r2, col)])
    for row in range(n):
        for col in range(n):
            for d in range(1, n):
                if row + d < n and col + d < n:
                    clauses.append([-var(row, col), -var(row + d, col + d)])
                if row + d < n and col - d >= 0:
                    clauses.append([-var(row, col), -var(row + d, col - d)])
    return build_formula(n * n, clauses)


# the magic bytes that start a compressed stream, and its format's name
_COMPRESSED = ((b"\x1f\x8b", "gzip"), (b"BZh", "bzip2"),
               (b"\xfd7zXZ\x00", "xz"))


def _decompressor(name):
    """The decompress function of a format and what it raises on a damaged
    stream.  Its module is imported only here, so plain input loads none."""
    if name == "gzip":
        import gzip
        import zlib
        return gzip.decompress, (OSError, EOFError, zlib.error)
    if name == "bzip2":
        import bz2
        return bz2.decompress, (OSError, EOFError, ValueError)
    import lzma
    return lzma.decompress, (EOFError, lzma.LZMAError)


def _decompressed(data):
    """The bytes of a gzip, bzip2 or xz stream, told apart by their magic
    bytes, decompressed; other data as it is.  A corrupt or truncated
    stream raises DimacsError."""
    for magic, name in _COMPRESSED:
        if data.startswith(magic):
            decompress, errors = _decompressor(name)
            try:
                return decompress(data)
            except errors as exc:
                raise DimacsError("corrupt %s input: %s"
                                  % (name, exc)) from None
    return data


def _write_model(model, out):
    """Write `v` lines of 20 1-based signed literals, terminated by 0, one
    line at a time."""
    literals = chain((str(i) if value else str(-i)
                      for i, value in enumerate(model, 1)), ["0"])
    for _ in range(0, len(model) + 1, 20):
        out.write("v %s\n" % " ".join(islice(literals, 20)))


class _PrintingTracer(Tracer):
    """Prints each decide, propagate and backtrack event as it happens."""

    def __init__(self, out):
        super().__init__()
        self.out = out

    def emit(self, event):
        kind = event[0]
        if kind == "decide" or kind == "propagate":
            line = "c %s x%d=%s" % (kind, event[1] + 1,
                                    "T" if event[2] else "F")
            if kind == "propagate":
                line += " (clause %d)" % (event[3] + 1)
            print(line, file=self.out)
        elif kind == "backtrack":
            print("c backtrack to level %d" % event[1], file=self.out)


def run(input_path, checked=False, time_limit=None, trace=False,
        out=None, err=None):
    """Parse, solve, and report one instance; returns the process exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DimacsWarning)
            if input_path == "-":
                data = sys.stdin.buffer.read()
            else:
                with open(input_path, "rb") as handle:
                    data = handle.read()
            data = _decompressed(data)
            # a non-ASCII byte becomes U+FFFD, which only a comment accepts
            formula = parse_dimacs(data.decode("ascii", "replace"))
        for warning in caught:
            print("c warning: %s" % warning.message, file=err)
    except (OSError, DimacsError) as exc:
        print("error: %s" % exc, file=err)
        return EXIT_ERROR

    if formula.trivially_unsat:
        print("s UNSATISFIABLE", file=out)
        return EXIT_UNSAT

    try:
        state = build_state(formula, checked=checked)
    except (MemoryError, OverflowError):
        # the header's variable count, which sets the size of the literal
        # flag bytearray and the occurrence list, is beyond what they can hold
        print("error: variable count %d is too large"
              % formula.variables_count, file=err)
        return EXIT_ERROR
    state.tracer = _PrintingTracer(out) if trace else None
    result = solve(state, time_limit=time_limit)
    if result.satisfiable is None:
        print("s UNKNOWN", file=out)
        return EXIT_UNKNOWN
    if result.satisfiable:
        if not check_model(formula, result.model):
            print("error: produced model failed independent verification",
                  file=err)
            return EXIT_ERROR
        print("s SATISFIABLE", file=out)
        _write_model(result.model, out)
        return EXIT_SAT
    print("s UNSATISFIABLE", file=out)
    return EXIT_UNSAT


def _gen_main(argv, out=None):
    out = out or sys.stdout
    parser = argparse.ArgumentParser(
        prog="dpllsat gen", description="emit a benchmark instance as DIMACS")
    sub = parser.add_subparsers(dest="family", required=True)
    php = sub.add_parser("php", help="pigeonhole principle (UNSAT)")
    php.add_argument("holes", type=int)
    queens = sub.add_parser("queens", help="n-queens (SAT for n=1 and n>=4)")
    queens.add_argument("n", type=int)
    args = parser.parse_args(argv)
    try:
        if args.family == "php":
            formula = generate_pigeonhole(args.holes)
        else:
            formula = generate_queens(args.n)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    out.write(to_dimacs(formula))
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "gen":
        return _gen_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="dpllsat",
        description="DPLL SAT solver (DIMACS in, SAT-competition output)")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--checked", action="store_true",
                        help="recheck all data-structure invariants after "
                             "every mutation (slow)")
    parser.add_argument("--time-limit", type=float, metavar="S",
                        help="give up after S seconds (prints s UNKNOWN)")
    parser.add_argument("--trace", action="store_true",
                        help="print decision/propagation events as comments")
    parser.add_argument("input", metavar="file.cnf|-",
                        help="DIMACS CNF file, or - for standard input")
    args = parser.parse_args(argv)
    if args.time_limit is not None and not args.time_limit > 0:
        parser.error("--time-limit must be positive")
    return run(args.input, checked=args.checked, time_limit=args.time_limit,
               trace=args.trace)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed standard output early (`dpllsat f.cnf | head`);
        # point it at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    entry()
