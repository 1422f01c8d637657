"""Independent ground truth for differential testing.

Everything here evaluates clauses directly against candidate assignments;
none of the solver's counters, occurrence lists, or propagation code is
reused, so agreement between the two is meaningful evidence.
"""

from itertools import product

UNSET = -1  # an unset variable in a partial assignment, as in the solver

DEFAULT_VARIABLE_CAP = 20


class OracleCapExceeded(ValueError):
    """Formula has too many variables for exhaustive enumeration."""


def _clause_satisfied(clause, model):
    for literal in clause:
        if literal > 0:
            if model[literal - 1]:
                return True
        elif not model[-literal - 1]:
            return True
    return False


def check_model(formula, model):
    """True iff the complete assignment `model` satisfies every clause."""
    if len(model) != formula.variables_count:
        raise ValueError("model has %d entries, formula has %d variables"
                         % (len(model), formula.variables_count))
    if formula.trivially_unsat:
        return False
    return all(_clause_satisfied(clause, model) for clause in formula.clauses)


def brute_force(formula, cap=DEFAULT_VARIABLE_CAP):
    """Exhaustive satisfiability check.

    Enumerates all assignments in lexicographic order (False before True,
    variable 0 most significant) and returns the first satisfying model as a
    tuple of booleans, or None if the formula is unsatisfiable.
    """
    n = formula.variables_count
    if n > cap:
        raise OracleCapExceeded("%d variables exceeds cap %d" % (n, cap))
    if formula.trivially_unsat:
        return None
    clauses = formula.clauses
    for model in product((False, True), repeat=n):
        if all(_clause_satisfied(clause, model) for clause in clauses):
            return model
    return None


def is_satisfiable_extend(formula, tau, cap=DEFAULT_VARIABLE_CAP):
    """True iff some completion of the partial assignment tau satisfies the
    formula (unset variables range freely, set variables stay fixed)."""
    n = formula.variables_count
    if n > cap:
        raise OracleCapExceeded("%d variables exceeds cap %d" % (n, cap))
    if len(tau) != n:
        raise ValueError("partial assignment has wrong length")
    if formula.trivially_unsat:
        return False
    free = [v for v in range(n) if tau[v] == UNSET]
    base = [value == 1 for value in tau]
    clauses = formula.clauses
    for choices in product((False, True), repeat=len(free)):
        model = list(base)
        for variable, value in zip(free, choices):
            model[variable] = value
        if all(_clause_satisfied(clause, model) for clause in clauses):
            return True
    return False
