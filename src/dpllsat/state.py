"""Mutable search state: the trail, per-clause false counters, the
conflict field, occurrence lists.

The trail owns the assignment: it stores the literals in push order and
one flag per signed literal, `literal_is_true`, which it clears on a pop;
`unset_count` is derived from its length and `truth_assignment` from the
flags.  This module owns the rest.  One loop, `_assign`, makes literals
true: it appends each to the trail, sets its flag and bumps the false
counters; `set_variable` feeds it one literal, the search what
`forced_literals` yields.  `undo_last_layer` pops a layer and rolls back
the counters of its literals in one loop; `unset_variable` runs the same
loop for one literal that the caller has popped.  `occurrences[literal]`
lists the clauses that contain a literal, and like the flags it is
indexed directly by the signed code.

A clause is fully false iff its false count equals its length, and unit
iff the count is one short with its one literal that is not false unset.
Counter updates touch only the clauses in the assigned variable's
occurrence lists.  `conflict`, the O(1) conflict test, is the index of a
fully-false clause or None: propagation records the clause where it finds
it and `set_variable` the one it makes, only when none is recorded, so it
names the oldest conflict; the rollback clears it once that clause is no
longer fully false.  `first_open_clause` checks clauses against the flags.
"""

from ._contracts import ContractError, require
from .trail import Trail, check_trail_invariants

UNSET, FALSE, TRUE = -1, 0, 1  # the values of a truth assignment


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
        self.formula = formula
        self.checked = checked
        self.trail = Trail(formula.variables_count)
        self.literal_is_true = self.trail.is_true  # by signed literal
        self.false_literals_count = [0] * len(formula.clauses)
        self.clause_lengths = list(map(len, formula.clauses))
        self.conflict = None  # index of the oldest fully-false clause
        self.tracer = None
        self.occurrences = occurrence_lists(formula)
        if checked:
            self.assert_valid()

    @property
    def unset_count(self):
        """Number of variables not on the trail."""
        return self.formula.variables_count - len(self.trail)

    @property
    def truth_assignment(self):
        """UNSET, FALSE or TRUE per variable, as a new list built from the
        literal flags.  O(n), so the search reads it only at a SAT leaf and
        for trace snapshots; hot paths read the flags."""
        is_true = self.literal_is_true
        return [TRUE if is_true[v] else FALSE if is_true[-v] else UNSET
                for v in range(1, self.formula.variables_count + 1)]

    def assert_valid(self):
        if not check_state_invariants(self):
            raise ContractError("solver state invariants violated")

    def snapshot(self):
        """Cheap copy of the observable state, for restoration checks."""
        return (self.trail.size, bytes(self.literal_is_true),
                tuple(self.false_literals_count), self.conflict)


def build_state(formula, checked=False):
    """Fresh all-unset state over a normalized formula."""
    return SolverState(formula, checked=checked)


def _require_entry(state, literal, variable):
    """The entry checks of a write: a layer is open and `variable`, the
    variable of `literal`, is in range."""
    if not state.trail.starts:
        raise ContractError("no open layer")
    if not 0 <= variable < state.formula.variables_count:
        raise ContractError("literal %r out of range" % (literal,))


def _assign(state, literals):
    """Make each literal true in turn on the current layer: append it to the
    trail, set its flag, bump the false counts of the clauses holding its
    negation.  A literal already set raises ContractError."""
    assignments = state.trail.assignments
    occurrences = state.occurrences
    is_true = state.literal_is_true
    false_counts = state.false_literals_count
    checked = state.checked
    for literal in literals:
        if is_true[literal] or is_true[-literal]:
            raise ContractError("literal %d is already set" % literal)
        assignments.append(literal)
        is_true[literal] = 1
        for index in occurrences[-literal]:
            false_counts[index] += 1
        if checked:
            state.assert_valid()


def set_variable(state, variable, value):
    """Assign one variable on the current trail layer, with no propagation;
    the search writes through the same loop.  With no conflict recorded, a
    clause that this makes fully false is recorded as the conflict."""
    literal = variable + 1 if value else -variable - 1
    _require_entry(state, literal, variable)
    _assign(state, (literal,))
    if state.conflict is None:
        state.conflict = next((index for index in state.occurrences[-literal]
                               if state.false_literals_count[index]
                               == state.clause_lengths[index]), None)


def forced_literals(state, literal):
    """Yield `literal`, then each literal that unit propagation forces; the
    consumer makes each one true before it asks for the next.

    The trail from its length on entry is the queue, read from `head`.  For
    each queued literal the clauses holding its negation are visited in
    index order: a fully false one ends the generator and is recorded as the
    conflict if none is, and a unit one forces its unset literal.
    """
    assignments = state.trail.assignments
    head = len(assignments)
    yield literal
    tracer = state.tracer
    occurrences = state.occurrences
    clauses = state.formula.clauses
    lengths = state.clause_lengths
    is_true = state.literal_is_true
    false_counts = state.false_literals_count
    while head < len(assignments):
        for index in occurrences[-assignments[head]]:
            not_false = lengths[index] - false_counts[index]
            if not_false > 1:
                continue
            if not_false == 0:
                if state.conflict is None:
                    state.conflict = index
                return  # remaining propagation is pointless
            for literal in clauses[index]:
                if not is_true[-literal]:
                    break
            if is_true[literal]:
                continue  # satisfied
            if tracer is not None:
                tracer.emit(("propagate", abs(literal) - 1, literal > 0,
                             index, tracer.assignment(state)))
            yield literal
        head += 1


def _roll_back(state, literals):
    """Roll back the false counts of literals just popped from the trail,
    whose pop cleared their flags; clear the conflict once its clause is no
    longer fully false."""
    occurrences = state.occurrences
    false_counts = state.false_literals_count
    for literal in literals:
        for index in occurrences[-literal]:
            false_counts[index] -= 1
    conflict = state.conflict
    if (conflict is not None
            and false_counts[conflict] != state.clause_lengths[conflict]):
        state.conflict = None


def unset_variable(state, literal):
    """Roll back set_variable for a literal just popped from the trail.  The
    search does not call it: it undoes whole layers with undo_last_layer."""
    _roll_back(state, (literal,))


def undo_last_layer(state):
    """Pop the last trail layer, which clears its flags, and roll back the
    counters of its literals in one loop."""
    _roll_back(state, state.trail.pop_layer())
    if state.checked:
        state.assert_valid()


def has_empty_clause(state):
    """True iff a conflict, a fully false clause, is recorded.  O(1)."""
    return state.conflict is not None


def _first_open(is_true, clauses, start, stop):
    """Lowest index in [start, stop) of a clause with no true literal."""
    for index in range(start, stop):
        for literal in clauses[index]:
            if is_true[literal]:
                break
        else:
            return index
    return None


def first_open_clause(state, start=0):
    """Lowest index >= start of a clause with no true literal, or None.

    A true literal stays true while the trail grows, so the index this
    returns at a search node is a valid start for every node below it.
    Checked mode asserts that no clause below start is open.
    """
    is_true = state.literal_is_true
    clauses = state.formula.clauses
    if state.checked:
        require(_first_open(is_true, clauses, 0, start) is None,
                "an open clause lies below start %d" % start)
    return _first_open(is_true, clauses, start, len(clauses))


def is_formula_satisfied(state):
    """True iff every clause has at least one true literal."""
    return first_open_clause(state, 0) is None


def check_state_invariants(state):
    """Recompute everything from scratch and compare with the stored state.

    Covers the trail invariants, which include its literal flags, the
    state's flags being the trail's, the false counters, the conflict naming
    a fully-false clause, and the occurrence lists.  Pure; returns a bool.
    """
    formula = state.formula
    clauses = formula.clauses
    if not check_trail_invariants(state.trail):
        return False
    is_true = state.literal_is_true
    if (is_true is not state.trail.is_true
            or len(is_true) != 2 * formula.variables_count + 1):
        return False
    false_counts = [sum(is_true[-literal] for literal in clause)
                    for clause in clauses]
    if state.false_literals_count != false_counts:
        return False
    conflict = state.conflict
    if conflict is not None and (
            conflict not in range(len(clauses))
            or false_counts[conflict] != len(clauses[conflict])):
        return False
    return state.occurrences == occurrence_lists(formula)
