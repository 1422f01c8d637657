"""Mutable search state: the trail, per-clause counters, occurrence lists.

The trail owns the assignment: it stores the literals in push order, and
`truth_assignment` is its value array, which it resets on a pop;
`unset_count` is derived from its length.  This module owns the counters.
One loop, `_assign`, makes literals true: it appends each to the trail,
sets its value and bumps the counters; `set_variable` feeds it one
literal, the search what `forced_literals` yields.  `undo_last_layer`
pops a layer and rolls back the counters of its literals in one loop;
`unset_variable` runs the same loop for one literal that the caller has
popped.  `occurrences[literal]` lists the clauses that contain a literal,
indexed directly by its signed code.

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
from .trail import FALSE, TRUE, UNSET, Trail, check_trail_invariants


def get_literal_value(truth_assignment, literal):
    """Value of a literal under a partial assignment; UNSET propagates."""
    if literal > 0:
        return truth_assignment[literal - 1]
    value = truth_assignment[-literal - 1]
    return UNSET if value == UNSET else 1 - value


def occurrence_lists(formula):
    """Clause indices per literal, ascending, indexed by the signed literal
    code: 2n+1 slots, negative codes counting back from the end, slot 0
    unused.  A literal that occurs gets its own list; every other slot
    holds the one empty tuple, so memory follows the literals that occur,
    not the variable count."""
    occurrences = [()] * (2 * formula.variables_count + 1)
    for index, clause in enumerate(formula.clauses):
        for literal in clause:
            indices = occurrences[literal]
            if indices:
                indices.append(index)
            else:
                occurrences[literal] = [index]
    return occurrences


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
        self.truth_assignment = self.trail.values
        self.true_literals_count = [0] * len(formula.clauses)
        self.false_literals_count = [0] * len(formula.clauses)
        self.clause_lengths = list(map(len, formula.clauses))
        self.false_clauses_count = 0  # clauses with every literal false
        self.tracer = None
        self.occurrences = occurrence_lists(formula)
        if checked:
            self.assert_valid()

    @property
    def unset_count(self):
        """Number of variables not on the trail."""
        return self.formula.variables_count - len(self.trail)

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


def _require_entry(state, literal, variable):
    """The entry checks of a write: a layer is open and `variable`, the
    variable of `literal`, is in range."""
    if not state.trail.starts:
        raise ContractError("no open layer")
    if not 0 <= variable < len(state.truth_assignment):
        raise ContractError("literal %r out of range" % (literal,))


def _assign(state, literals):
    """Make each literal true in turn on the current layer: append it to the
    trail, set its value, bump the counters of the clauses it occurs in.
    A literal already set raises ContractError before it is written."""
    tau = state.truth_assignment
    assignments = state.trail.assignments
    occurrences = state.occurrences
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    lengths = state.clause_lengths
    checked = state.checked
    for literal in literals:
        variable = abs(literal) - 1
        if tau[variable] != UNSET:
            raise ContractError("literal %d is already set" % literal)
        assignments.append(literal)
        tau[variable] = TRUE if literal > 0 else FALSE
        for index in occurrences[literal]:
            true_counts[index] += 1
        for index in occurrences[-literal]:
            count = false_counts[index] + 1
            false_counts[index] = count
            if count == lengths[index]:
                state.false_clauses_count += 1
        if checked:
            state.assert_valid()


def set_variable(state, variable, value):
    """Assign one variable on the current trail layer, with no propagation;
    the search writes through the same loop."""
    literal = variable + 1 if value else -variable - 1
    _require_entry(state, literal, variable)
    _assign(state, (literal,))


def forced_literals(state, literal):
    """Yield `literal`, then each literal that unit propagation forces; the
    consumer makes each one true before it asks for the next.

    The trail from its length on entry is the queue, read from `head`.  For
    each queued literal the clauses holding its negation are visited in
    index order: a fully false one (a conflict) ends the generator, and an
    open one with a single unset literal forces it.
    """
    assignments = state.trail.assignments
    head = len(assignments)
    yield literal
    tau = state.truth_assignment
    tracer = state.tracer
    occurrences = state.occurrences
    lengths = state.clause_lengths
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    while head < len(assignments):
        for index in occurrences[-assignments[head]]:
            if true_counts[index] > 0:
                continue
            unset = lengths[index] - false_counts[index]
            if unset == 0:
                return  # conflict: remaining propagation is pointless
            if unset == 1:
                for literal in state.formula.clauses[index]:
                    if tau[abs(literal) - 1] == UNSET:
                        break
                if tracer is not None:
                    tracer.emit(("propagate", abs(literal) - 1, literal > 0,
                                 index, tracer.assignment(state)))
                yield literal
        head += 1


def _roll_back(state, literals):
    """Roll back the counter updates of literals just popped from the
    trail, which has reset their values, in the order given."""
    occurrences = state.occurrences
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    lengths = state.clause_lengths
    for literal in literals:
        for index in occurrences[literal]:
            true_counts[index] -= 1
        for index in occurrences[-literal]:
            count = false_counts[index]
            if count == lengths[index]:
                state.false_clauses_count -= 1
            false_counts[index] = count - 1


def unset_variable(state, literal):
    """Roll back set_variable's counter updates for a literal just popped
    from the trail, whose value the trail has reset.  The search does not
    call it: it undoes whole layers with undo_last_layer."""
    _roll_back(state, (literal,))


def undo_last_layer(state):
    """Pop the last trail layer, which resets its values, and roll back the
    counters of its literals, newest first, in one loop."""
    _roll_back(state, reversed(state.trail.pop_layer()))
    if state.checked:
        state.assert_valid()


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

    Covers the trail invariants, the truth assignment being the trail's
    value array, both counter arrays, the fully-false clause count, and the
    occurrence lists.  Pure; returns a boolean.
    """
    formula = state.formula
    if not check_trail_invariants(state.trail):
        return False
    tau = state.truth_assignment
    if tau is not state.trail.values or len(tau) != formula.variables_count:
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
    return state.occurrences == occurrence_lists(formula)
