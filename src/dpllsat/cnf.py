"""CNF formulas, integer literal encoding, and DIMACS parsing.

A variable is a 0-based index.  The positive literal of variable v is the
integer v+1, its negation is -v-1, so literal codes coincide with the signed
integers used in DIMACS files.
"""

import re
import warnings
from dataclasses import dataclass
from itertools import chain

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
        for clause in self.clauses:
            require(len(clause) > 0, "stored clauses must be nonempty")
            for lit in clause:
                require(lit != 0 and abs(lit) <= self.variables_count,
                        "literal %r out of range" % (lit,))


def _formula(variables_count, clauses, trivially_unsat):
    """A CnfFormula built without __post_init__'s checks, for fields that
    the caller has already checked."""
    formula = object.__new__(CnfFormula)
    vars(formula).update(variables_count=variables_count, clauses=clauses,
                         trivially_unsat=trivially_unsat)
    return formula


def _split_clauses(variables_count, literals):
    """(formula, raw clause count) from a tuple of in-range literals in
    which every clause, the last one too, ends with a 0.  Normalizes as
    build_formula does."""
    clauses = []
    dropped = 0  # empty and tautological clauses
    trivially_unsat = False
    index = literals.index
    start = 0
    end = len(literals)
    while start < end:
        stop = index(0, start)
        # a slice of a tuple is a tuple, stored as it is
        raw = literals[start:stop]
        start = stop + 1
        # a variable that occurs twice is a duplicate or a tautology
        if not raw or len(set(map(abs, raw))) != len(raw):
            raw = normalize_clause(raw)
            if not raw:  # None for a tautology, [] for an empty clause
                dropped += 1
                trivially_unsat |= raw is not None
                continue
            raw = tuple(raw)
        clauses.append(raw)
    return (_formula(variables_count, tuple(clauses), trivially_unsat),
            len(clauses) + dropped)


def build_formula(variables_count, raw_clauses):
    """Normalize raw integer clauses into a CnfFormula.

    Tautological clauses are dropped; an empty clause (before or after
    deduplication it cannot become empty, only genuinely empty input does)
    sets trivially_unsat.

    The literals are range-checked here, a ValueError naming the first
    one out of range, so the formula is built without CnfFormula's own
    checks.
    """
    raw_clauses = list(raw_clauses)
    # one check of the distinct literals, which are few
    distinct = set(chain.from_iterable(raw_clauses))
    if distinct and (0 in distinct or max(distinct) > variables_count
                     or min(distinct) < -variables_count):
        lit = next(lit for lit in chain.from_iterable(raw_clauses)
                   if lit == 0 or abs(lit) > variables_count)
        raise ValueError("literal %r out of range for %d variables"
                         % (lit, variables_count))
    literals = tuple(chain.from_iterable((*raw, 0) for raw in raw_clauses))
    return _split_clauses(variables_count, literals)[0]


# A line whose first nonblank character is one of these is a comment, the
# header or the end of the clause data; any other nonblank line is clause
# data.  `[^\S\n]` is whitespace within a line, as str.strip sees it.
# Searched in "\n" + text, so that a match starts where its line starts in
# text; a literal first character makes the search fast.
_SPECIAL_LINE = re.compile(r"\n[^\S\n]*([cp%])")
# clause data is split and converted in batches of lines of about this
# many characters, so that the token list does not grow with the file
_BATCH_CHARS = 1 << 16
# a DimacsError message quotes at most this many characters of the input,
# so that a binary file gives a short message
_EXCERPT_CHARS = 40


def _excerpt(text):
    """repr of a piece of the input for a DimacsError message, cut after
    _EXCERPT_CHARS characters and marked with `...`."""
    if len(text) <= _EXCERPT_CHARS:
        return repr(text)
    return repr(text[:_EXCERPT_CHARS]) + "..."


def _bad_characters(line):
    # int() would also read `1_0` as 10 and non-ASCII digits such as U+0662
    return "_" in line or not line.isascii()


def _parse_header(stripped, lineno):
    """(variables, clauses) from a stripped line that starts with `p`."""
    parts = stripped.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
        raise DimacsError("malformed header %s" % _excerpt(stripped), lineno)
    try:
        variables_count = int(parts[2])
        declared_clauses = int(parts[3])
    except ValueError:
        raise DimacsError("non-integer counts in header %s"
                          % _excerpt(stripped), lineno) from None
    if variables_count < 0:
        raise DimacsError("variable count must be nonnegative", lineno)
    if declared_clauses < 0:
        raise DimacsError("clause count must be nonnegative", lineno)
    return variables_count, declared_clauses


def _read_clause_data(text, start, stop, variables_count, literals):
    """Append the literals of text[start:stop], whole lines of clause data,
    to `literals`, a batch of lines at a time; variables_count is None
    before the header.  A batch that fails a check is read again line by
    line, to raise its first DimacsError."""
    while start < stop:
        cut = text.find("\n", start + _BATCH_CHARS, stop)
        if cut < 0:
            cut = stop
        batch = text[start:cut]
        tokens = batch.split()
        try:
            values = {token: int(token) for token in set(tokens)}
        except ValueError:
            values = None
        if tokens and (
                # a blank line may hold non-ASCII whitespace
                _bad_characters(batch) and any(
                    line.strip() and _bad_characters(line)
                    for line in batch.split("\n"))
                or variables_count is None or values is None
                or max(values.values()) > variables_count
                or min(values.values()) < -variables_count):
            _raise_batch_error(batch, text.count("\n", 0, start) + 1,
                               variables_count)
        literals += map(values.__getitem__, tokens)
        start = cut


def _raise_batch_error(batch, lineno, variables_count):
    """Raise the DimacsError for the first fault in a batch of clause data
    lines that failed a check; lineno is the number of its first line."""
    for lineno, line in enumerate(batch.split("\n"), lineno):
        stripped = line.strip()
        if not stripped:
            continue
        if _bad_characters(line):
            raise DimacsError("'_' or non-ASCII character in %s"
                              % _excerpt(stripped), lineno)
        if variables_count is None:
            raise DimacsError("clause data before 'p cnf' header", lineno)
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError("non-integer token %s" % _excerpt(token),
                                  lineno) from None
            if abs(lit) > variables_count:
                raise DimacsError(
                    "literal %d exceeds declared variable count %d"
                    % (lit, variables_count), lineno)
    raise ContractError("a check rejected well-formed clause data")


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
    Each fault is raised where it is found: on the header line, after the
    last line, or, for clause data, by reading again line by line only the
    batch of lines that failed a check.  A message quotes at most 40
    characters of the input.

    Those per-batch checks, for a bad character, data before the header, a
    token that is not an integer and a literal out of range, are the only
    checks of the clause data: the formula is built from it without
    build_formula's or CnfFormula's own range checks.
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
            lineno = text.count("\n", 0, line_start) + 1
            if _bad_characters(line):
                raise DimacsError("'_' or non-ASCII character in %s"
                                  % _excerpt(line.strip()), lineno)
            if variables_count is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            variables_count, declared_clauses = _parse_header(
                line.strip(), lineno)
    _read_clause_data(text, start, stop, variables_count, literals)
    if variables_count is None:
        raise DimacsError("missing 'p cnf' header")
    if literals and literals[-1]:
        # on the `%` line, or else the text's last line; a final line break
        # starts no new line
        raise DimacsError("last clause lacks terminating 0",
                          text.count("\n", 0, min(stop, len(text) - 1)) + 1)
    formula, clause_count = _split_clauses(variables_count, tuple(literals))
    if declared_clauses != clause_count:
        warnings.warn(
            "header declares %d clauses, file contains %d"
            % (declared_clauses, clause_count), DimacsWarning, stacklevel=2)
    return formula


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
