"""CNF formulas, integer literal encoding, and DIMACS parsing.

A variable is a 0-based index.  The positive literal of variable v is the
integer v+1, its negation is -v-1, so literal codes coincide with the signed
integers used in DIMACS files.
"""

import warnings
from dataclasses import dataclass

from ._contracts import require


class DimacsError(ValueError):
    """Malformed DIMACS input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class DimacsWarning(UserWarning):
    """Recoverable oddity in a DIMACS file (e.g. wrong clause count)."""


def normalize_clause(raw):
    """Deduplicate a raw clause, keeping first-occurrence order.

    Returns None if the clause is a tautology (contains both l and -l),
    otherwise the cleaned list of literals, which may be empty.
    """
    seen = set()
    out = []
    for lit in raw:
        if -lit in seen:
            return None
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return out


@dataclass(frozen=True)
class CnfFormula:
    """Immutable clause database.

    Clauses are tuples of literal codes, already normalized: nonempty, no
    duplicate literals, no tautologies.  An empty clause in the raw input is
    recorded as trivially_unsat instead of being stored.
    """

    variables_count: int
    clauses: tuple
    trivially_unsat: bool = False

    def __post_init__(self):
        require(self.variables_count >= 0,
                "variables_count must be nonnegative")
        for clause in self.clauses:
            require(len(clause) > 0, "stored clauses must be nonempty")
            for lit in clause:
                require(lit != 0 and abs(lit) <= self.variables_count,
                        "literal %r out of range" % (lit,))


def build_formula(variables_count, raw_clauses):
    """Normalize raw integer clauses into a CnfFormula.

    Tautological clauses are dropped; an empty clause (before or after
    deduplication it cannot become empty, only genuinely empty input does)
    sets trivially_unsat.
    """
    clauses = []
    trivially_unsat = False
    for raw in raw_clauses:
        for lit in raw:
            if lit == 0 or abs(lit) > variables_count:
                raise ValueError("literal %r out of range for %d variables"
                                 % (lit, variables_count))
        norm = normalize_clause(raw)
        if norm is None:
            continue
        if not norm:
            trivially_unsat = True
            continue
        clauses.append(tuple(norm))
    return CnfFormula(variables_count, tuple(clauses), trivially_unsat)


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfFormula.

    Accepts `c` comment lines, one `p cnf <vars> <clauses>` header, and
    whitespace-separated integer clauses terminated by 0 (clauses may span
    lines).  DIMACS literal k maps to internal code k unchanged.  Numbers
    are ASCII digits with an optional sign; a leading `+` is accepted, as
    MiniSat's parseInt does, but a `_` or a non-ASCII character outside a
    comment is a DimacsError.  A header clause count that disagrees with
    the file is a DimacsWarning, not an error.  A line starting with `%`
    ends the clause data, and the rest of the text is ignored: the SATLIB
    uniform-random files end with `%` and a stray `0`.
    """
    if hasattr(text, "read"):
        text = text.read()
    variables_count = None
    declared_clauses = None
    raw_clauses = []
    current = []
    last_line = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        last_line = lineno
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        # int() would also read `1_0` as 10 and non-ASCII digits such as
        # U+0662; one check per line keeps both out of the token loop
        if "_" in line or not line.isascii():
            raise DimacsError("'_' or non-ASCII character in %r" % stripped,
                              lineno)
        if stripped.startswith("p"):
            if variables_count is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("malformed header %r" % stripped, lineno)
            try:
                variables_count = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError("non-integer counts in header %r" % stripped,
                                  lineno) from None
            if variables_count < 0:
                raise DimacsError("variable count must be nonnegative",
                                  lineno)
            if declared_clauses < 0:
                raise DimacsError("clause count must be nonnegative", lineno)
            continue
        if variables_count is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError("non-integer token %r" % token,
                                  lineno) from None
            if lit == 0:
                raw_clauses.append(current)
                current = []
            else:
                if abs(lit) > variables_count:
                    raise DimacsError(
                        "literal %d exceeds declared variable count %d"
                        % (lit, variables_count), lineno)
                current.append(lit)
    if variables_count is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("last clause lacks terminating 0", last_line)
    if declared_clauses != len(raw_clauses):
        warnings.warn(
            "header declares %d clauses, file contains %d"
            % (declared_clauses, len(raw_clauses)), DimacsWarning,
            stacklevel=2)
    return build_formula(variables_count, raw_clauses)


def to_dimacs(formula):
    """Serialize a CnfFormula back to DIMACS text.

    A trivially-unsat formula is written with an explicit empty clause so
    that parsing the output reproduces the flag.
    """
    count = len(formula.clauses) + (1 if formula.trivially_unsat else 0)
    lines = ["p cnf %d %d" % (formula.variables_count, count)]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    if formula.trivially_unsat:
        lines.append("0")
    return "\n".join(lines) + "\n"
