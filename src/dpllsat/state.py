"""Mutable search state: truth values, per-clause counters, occurrence lists.

The counters answer the per-clause questions in O(1): a clause is satisfied
iff its true-literal count is positive, fully false iff its false-literal
count equals its length, and unit iff the false count is one short of the
length with no true literal.  Counter updates touch only the clauses listed
in the assigned variable's occurrence lists, never the whole clause
database.

The whole-formula questions are cheap too.  `false_clauses_count` holds the
number of fully-false clauses, kept up to date by the same counter updates,
so the conflict test is O(1).  `first_open_clause` scans for a clause with
no true literal from a caller-supplied start index; true counts only grow
as the trail grows, so a search can resume each scan where its parent node
stopped.
"""

from ._contracts import ContractError, require
from .trail import Trail, check_trail_invariants

UNSET = -1
FALSE = 0
TRUE = 1


def get_literal_value(truth_assignment, literal):
    """Value of a literal under a partial assignment; UNSET propagates."""
    if literal > 0:
        return truth_assignment[literal - 1]
    value = truth_assignment[-literal - 1]
    return UNSET if value == UNSET else 1 - value


class SolverState:
    """One search's view of a shared immutable CnfFormula.

    checked=True recomputes and asserts every invariant after each mutation;
    this stands in for static verification and is meant for tests, not
    benchmarks.
    """

    def __init__(self, formula, checked=False):
        require(not formula.trivially_unsat,
                "trivially unsatisfiable formula; answer UNSAT directly")
        n = formula.variables_count
        self.formula = formula
        self.checked = checked
        self.trail = Trail(n)
        self.truth_assignment = [UNSET] * n
        self.true_literals_count = [0] * len(formula.clauses)
        self.false_literals_count = [0] * len(formula.clauses)
        self.clause_lengths = [len(c) for c in formula.clauses]
        self.false_clauses_count = 0  # clauses with every literal false
        self.unset_count = n
        self.tracer = None
        positive = [[] for _ in range(n)]
        negative = [[] for _ in range(n)]
        for index, clause in enumerate(formula.clauses):
            for literal in clause:
                if literal > 0:
                    positive[literal - 1].append(index)
                else:
                    negative[-literal - 1].append(index)
        self.positive_occurrences = positive
        self.negative_occurrences = negative
        if checked:
            self.assert_valid()

    def assert_valid(self):
        if not check_state_invariants(self):
            raise ContractError("solver state invariants violated")

    def snapshot(self):
        """Cheap copy of the observable state, for restoration checks."""
        return (self.trail.size, tuple(self.truth_assignment),
                tuple(self.true_literals_count),
                tuple(self.false_literals_count), self.false_clauses_count)


def build_state(formula, checked=False):
    """Fresh all-unset state over a normalized formula."""
    return SolverState(formula, checked=checked)


def set_variable(state, variable, value):
    """Assign a variable, record it on the current trail layer, and update
    the counters of exactly the clauses it occurs in."""
    tau = state.truth_assignment
    require(tau[variable] == UNSET, "variable %d already set" % variable)
    state.trail.push_entry(variable, value)
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    lengths = state.clause_lengths
    if value:
        tau[variable] = TRUE
        satisfied = state.positive_occurrences[variable]
        falsified = state.negative_occurrences[variable]
    else:
        tau[variable] = FALSE
        satisfied = state.negative_occurrences[variable]
        falsified = state.positive_occurrences[variable]
    for index in satisfied:
        true_counts[index] += 1
    emptied = 0
    for index in falsified:
        count = false_counts[index] + 1
        false_counts[index] = count
        if count == lengths[index]:
            emptied += 1
    state.false_clauses_count += emptied
    state.unset_count -= 1
    if state.checked:
        state.assert_valid()


def unset_variable(state, variable):
    """Revert a variable to unset and roll back the counters.

    Does not touch the trail; pair each call with the matching pop_layer
    entry (see undo_last_layer).
    """
    tau = state.truth_assignment
    require(tau[variable] != UNSET, "variable %d is not set" % variable)
    if tau[variable] == TRUE:
        satisfied = state.positive_occurrences[variable]
        falsified = state.negative_occurrences[variable]
    else:
        satisfied = state.negative_occurrences[variable]
        falsified = state.positive_occurrences[variable]
    tau[variable] = UNSET
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    lengths = state.clause_lengths
    for index in satisfied:
        true_counts[index] -= 1
    emptied = 0
    for index in falsified:
        count = false_counts[index]
        if count == lengths[index]:
            emptied += 1
        false_counts[index] = count - 1
    state.false_clauses_count -= emptied
    state.unset_count += 1


def undo_last_layer(state):
    """Pop the last trail layer and unset every variable it assigned."""
    entries = state.trail.pop_layer()
    for variable, _ in reversed(entries):
        unset_variable(state, variable)
    if state.checked:
        state.assert_valid()
    return entries


def has_empty_clause(state):
    """True iff some clause has every literal false (a conflict).  O(1)."""
    return state.false_clauses_count > 0


def first_open_clause(state, start=0):
    """Lowest index >= start of a clause with no true literal, or None.

    A clause whose true count is positive stays satisfied while the trail
    only grows, so the index this returns at a search node is a valid start
    for every node below it.  Checked mode asserts that no clause below
    start is open.
    """
    true_counts = state.true_literals_count
    if state.checked:
        require(0 not in true_counts[:start],
                "an open clause lies below start %d" % start)
    try:
        return true_counts.index(0, start)
    except ValueError:
        return None


def is_formula_satisfied(state):
    """True iff every clause has at least one true literal."""
    return first_open_clause(state, 0) is None


def check_state_invariants(state):
    """Recompute everything from scratch and compare with the stored state.

    Covers the trail invariants, the trail/assignment coherence, both
    counter arrays, the fully-false clause count, and the occurrence lists.
    Pure; returns a boolean.
    """
    formula = state.formula
    n = formula.variables_count
    if not check_trail_invariants(state.trail):
        return False
    tau = state.truth_assignment
    if len(tau) != n or any(v not in (UNSET, FALSE, TRUE) for v in tau):
        return False
    derived = [UNSET] * n
    for variable, value in state.trail.entries():
        derived[variable] = TRUE if value else FALSE
    if derived != tau:
        return False
    if state.unset_count != sum(1 for v in tau if v == UNSET):
        return False
    if (len(state.true_literals_count) != len(formula.clauses)
            or len(state.false_literals_count) != len(formula.clauses)):
        return False
    false_clauses = 0
    for index, clause in enumerate(formula.clauses):
        true_count = 0
        false_count = 0
        for literal in clause:
            value = get_literal_value(tau, literal)
            if value == TRUE:
                true_count += 1
            elif value == FALSE:
                false_count += 1
        if state.true_literals_count[index] != true_count:
            return False
        if state.false_literals_count[index] != false_count:
            return False
        if false_count == len(clause):
            false_clauses += 1
    if state.false_clauses_count != false_clauses:
        return False
    positive = [[] for _ in range(n)]
    negative = [[] for _ in range(n)]
    for index, clause in enumerate(formula.clauses):
        for literal in clause:
            if literal > 0:
                positive[literal - 1].append(index)
            else:
                negative[-literal - 1].append(index)
    if positive != state.positive_occurrences:
        return False
    if negative != state.negative_occurrences:
        return False
    return True


def dump_state(state):
    """Debug view of assignment and counters, for trace tests."""
    tau = "".join({UNSET: "?", FALSE: "0", TRUE: "1"}[v]
                  for v in state.truth_assignment)
    counts = " ".join("%d/%d" % (t, f)
                      for t, f in zip(state.true_literals_count,
                                      state.false_literals_count))
    return "tau=%s counts(true/false)=%s\n%s" % (tau, counts,
                                                 state.trail.dump())
