"""CNF formulas, integer literal encoding, and DIMACS parsing.

A variable is a 0-based index.  The positive literal of variable v is the
integer v+1, its negation is -v-1, so literal codes coincide with the signed
integers used in DIMACS files.
"""

import re
import warnings
from dataclasses import dataclass
from itertools import chain, compress, pairwise
from operator import not_

from ._contracts import ContractError, require


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
        if all(self.clauses) and not _out_of_range(
                set(chain.from_iterable(self.clauses)), self.variables_count):
            return
        # a check failed: find the first clause or literal at fault
        for clause in self.clauses:
            require(len(clause) > 0, "stored clauses must be nonempty")
            for lit in clause:
                require(lit != 0 and abs(lit) <= self.variables_count,
                        "literal %r out of range" % (lit,))


def _out_of_range(literals, variables_count):
    """True iff a set of literals holds 0 or a literal whose variable is
    above variables_count.  Sets, because the distinct literals of a
    formula are few."""
    return bool(literals) and (0 in literals
                               or max(literals) > variables_count
                               or min(literals) < -variables_count)


def build_formula(variables_count, raw_clauses):
    """Normalize raw integer clauses into a CnfFormula.

    Tautological clauses are dropped; an empty clause (before or after
    deduplication it cannot become empty, only genuinely empty input does)
    sets trivially_unsat.
    """
    raw_clauses = list(raw_clauses)
    if _out_of_range(set(chain.from_iterable(raw_clauses)), variables_count):
        lit = next(lit for lit in chain.from_iterable(raw_clauses)
                   if lit == 0 or abs(lit) > variables_count)
        raise ValueError("literal %r out of range for %d variables"
                         % (lit, variables_count))
    clauses = []
    trivially_unsat = False
    for raw in raw_clauses:
        # a variable that occurs twice is a duplicate or a tautology
        if len(set(map(abs, raw))) != len(raw):
            raw = normalize_clause(raw)
            if raw is None:
                continue
        if not raw:
            trivially_unsat = True
            continue
        clauses.append(tuple(raw))
    return CnfFormula(variables_count, tuple(clauses), trivially_unsat)


# A line whose first nonblank character is one of these is a comment, the
# header or the end of the clause data; any other nonblank line is clause
# data.  `[^\S\n]` is whitespace within a line, as str.strip sees it.
# Searched in "\n" + text, so that a match starts where its line starts in
# text; a literal first character makes the search fast.
_SPECIAL_LINE = re.compile(r"\n[^\S\n]*([cp%])")
# clause data is split and converted in batches of lines of about this
# many characters, so that the token list does not grow with the file
_BATCH_CHARS = 1 << 16


def _bad_characters(line):
    # int() would also read `1_0` as 10 and non-ASCII digits such as U+0662
    return "_" in line or not line.isascii()


def _parse_header(stripped, lineno):
    """(variables, clauses) from a stripped line that starts with `p`."""
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
        raise DimacsError("variable count must be nonnegative", lineno)
    if declared_clauses < 0:
        raise DimacsError("clause count must be nonnegative", lineno)
    return variables_count, declared_clauses


def _read_clause_data(text, start, stop, variables_count, literals):
    """Append the literals of text[start:stop], whole lines of clause data,
    to `literals`, a batch of lines at a time; variables_count is None
    before the header.  A check that fails raises the first DimacsError of
    the text."""
    while start < stop:
        cut = text.find("\n", start + _BATCH_CHARS, stop)
        if cut < 0:
            cut = stop
        batch = text[start:cut]
        start = cut
        # a blank line may hold non-ASCII whitespace
        if _bad_characters(batch) and any(
                line.strip() and _bad_characters(line)
                for line in batch.split("\n")):
            _raise_first_error(text)
        tokens = batch.split()
        if not tokens:
            continue
        try:
            values = {token: int(token) for token in set(tokens)}
        except ValueError:
            values = None
        if (variables_count is None or values is None
                or max(values.values()) > variables_count
                or min(values.values()) < -variables_count):
            _raise_first_error(text)
        literals += map(values.__getitem__, tokens)


def _raise_first_error(text):
    """Raise the DimacsError for the first fault in text, walking it line
    by line.  parse_dimacs checks many lines at once and calls this when a
    check fails, to find the line and the token at fault."""
    variables_count = None
    open_clause = False
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # a final line break ends the last line
    lineno = 0
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if _bad_characters(line):
            raise DimacsError("'_' or non-ASCII character in %r" % stripped,
                              lineno)
        if stripped.startswith("p"):
            if variables_count is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            variables_count = _parse_header(stripped, lineno)[0]
            continue
        if variables_count is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError("non-integer token %r" % token,
                                  lineno) from None
            if abs(lit) > variables_count:
                raise DimacsError(
                    "literal %d exceeds declared variable count %d"
                    % (lit, variables_count), lineno)
            open_clause = lit != 0
    if variables_count is None:
        raise DimacsError("missing 'p cnf' header")
    if open_clause:
        raise DimacsError("last clause lacks terminating 0", lineno)
    raise ContractError("parse_dimacs rejected well-formed input")


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfFormula.

    Accepts `c` comment lines, one `p cnf <vars> <clauses>` header, and
    whitespace-separated integer clauses terminated by 0 (clauses may span
    lines).  DIMACS literal k maps to internal code k unchanged.  Lines end
    at `\n`, `\r\n` or `\r`; every other whitespace character, such as a
    form feed or U+2028, separates tokens within a line.  Numbers are ASCII
    digits with an optional sign; a leading `+` is accepted, as MiniSat's
    parseInt does, but a `_` or a non-ASCII character on a line that is
    neither blank nor a comment is a DimacsError.  A header clause count
    that disagrees with the file is a DimacsWarning, not an error.  A line
    starting with `%` ends the clause data, and the rest of the text is
    ignored: the SATLIB uniform-random files end with `%` and a stray `0`.

    One regular expression finds the comment, header and `%` lines; the
    clause data between them is split and checked many lines at a time.
    """
    if hasattr(text, "read"):
        text = text.read()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    variables_count = declared_clauses = None
    literals = []
    start = 0  # where the lines not yet read begin
    stop = len(text)  # where the clause data ends
    for match in _SPECIAL_LINE.finditer("\n" + text):
        line_start = match.start()
        _read_clause_data(text, start, line_start, variables_count, literals)
        if match[1] == "%":
            start = stop = line_start
            break
        start = text.find("\n", line_start)
        if start < 0:
            start = stop
        if match[1] == "p":
            line = text[line_start:start]
            if variables_count is not None or _bad_characters(line):
                _raise_first_error(text)
            variables_count, declared_clauses = _parse_header(
                line.strip(), text.count("\n", 0, line_start) + 1)
    _read_clause_data(text, start, stop, variables_count, literals)
    if variables_count is None or literals and literals[-1]:
        _raise_first_error(text)
    # a slice of a tuple is a tuple, which build_formula stores as it is
    literals = tuple(literals)
    zeros = list(compress(range(len(literals)), map(not_, literals)))
    if declared_clauses != len(zeros):
        warnings.warn(
            "header declares %d clauses, file contains %d"
            % (declared_clauses, len(zeros)), DimacsWarning, stacklevel=2)
    return build_formula(variables_count, [
        literals[previous + 1:zero]
        for previous, zero in pairwise([-1, *zeros])])


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
