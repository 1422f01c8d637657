"""Reference DIMACS parser for differential tests of dpllsat.cnf.

This is the line-by-line parser and clause normalizer that the package
used before it checked many lines at once: every token and every literal
is checked by its own Python statement, so the order in which it finds a
fault is plain to read.  `parse_dimacs` and `build_formula` must give the
same formula, error message and warnings on every input.
"""

import re
import warnings

from dpllsat import CnfFormula, DimacsError, DimacsWarning, normalize_clause


def reference_build_formula(variables_count, raw_clauses):
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


def reference_excerpt(text):
    """The quoted input in a DimacsError message: its repr, cut after 40
    characters and marked with `...`."""
    if len(text) <= 40:
        return repr(text)
    return repr(text[:40]) + "..."


def reference_lines(text):
    """Lines broken at `\\n`, `\\r\\n` and `\\r` only; a line break at the
    end of the text opens no further line."""
    lines = re.split(r"\r\n|\r|\n", text)
    if not lines[-1]:
        lines.pop()
    return lines


def reference_parse_dimacs(text):
    variables_count = None
    declared_clauses = None
    raw_clauses = []
    current = []
    last_line = 0
    for lineno, line in enumerate(reference_lines(text), 1):
        last_line = lineno
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if "_" in line or not line.isascii():
            raise DimacsError("'_' or non-ASCII character in %s"
                              % reference_excerpt(stripped), lineno)
        if stripped.startswith("p"):
            if variables_count is not None:
                raise DimacsError("duplicate 'p cnf' header", lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("malformed header %s"
                                  % reference_excerpt(stripped), lineno)
            try:
                variables_count = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError("non-integer counts in header %s"
                                  % reference_excerpt(stripped),
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
                raise DimacsError("non-integer token %s"
                                  % reference_excerpt(token),
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
    return reference_build_formula(variables_count, raw_clauses)
