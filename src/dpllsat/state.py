"""Mutable search state: the trail, the conflict field, occurrence lists
and the per-clause table that marks binary and ternary clauses.

The trail owns the assignment: it stores the literals in push order and
one flag per signed literal, `trail.is_true`, which it clears on a pop;
`unset_count` is derived from its length and `truth_assignment` from the
flags, and `snapshot` and `restore` save and bring back the trail and the
conflict, all that a search writes.  `occurrences[literal]` lists the
clauses that contain a literal, indexed like the flags by the signed
code; it and `pair_sum` below come from `clause_tables`, which checked
mode calls again.  Every write but a forced one goes through
`Trail.push_entry`, the one checked write.

No clause keeps a counter.  The paper's solver keeps a true and a false
count per clause, and every clause holding a literal pays an update when
the literal is assigned and again when it is unassigned (Chaff, Moskewicz
et al., DAC 2001).  Here `set_literal` makes a literal true, then reads
each clause holding the negation of a queued literal against the flags; undo
clears the flags in the trail's pop and rolls back nothing else.  Short
clauses need no loop: for a binary clause `(a, b)`, `pair_sum[index]`
holds `a + b`, so the other literal of a false one is the sum minus it; a
ternary clause's entry is None, and its two other literals are unpacked
directly.  A normalized binary clause is never a tautology, so its sum is
never 0; every longer clause holds 0 and is scanned.

`conflict`, the O(1) conflict test, is the index of a fully-false clause
or None: propagation records the clause where it finds it and
`set_variable` the one it makes, only when none is recorded, so it names
the oldest conflict; undo clears it once that clause is no longer fully
false.  `first_open_clause` checks clauses against the flags.
"""

from ._contracts import ContractError, require
from .trail import Trail, check_trail_invariants

UNSET, FALSE, TRUE = -1, 0, 1  # the values of a truth assignment


def clause_tables(formula):
    """(occurrences, pair_sum), the formula's clause tables, in one pass.

    `occurrences` holds the clause indices per literal, ascending, indexed
    by the signed literal code: 2n+1 slots, negative codes counting back
    from the end, slot 0 unused.  A literal that occurs gets its own list;
    every other slot holds the one empty tuple, so memory follows the
    literals that occur, not the variable count.  `pair_sum` holds `a + b`
    per binary clause `(a, b)`, None per ternary clause and 0 per longer
    one; None is one shared object, so the table costs no more memory.
    """
    occurrences = [()] * (2 * formula.variables_count + 1)
    pair_sum = []
    for index, clause in enumerate(formula.clauses):
        length = len(clause)
        pair_sum.append(clause[0] + clause[1] if length == 2
                        else None if length == 3 else 0)
        for literal in clause:
            indices = occurrences[literal]
            if indices:
                indices.append(index)
            else:
                occurrences[literal] = [index]
    return occurrences, pair_sum


def _fully_false(is_true, clause):
    """True iff every literal of the clause is false."""
    for literal in clause:
        if not is_true[-literal]:
            return False
    return True


class SolverState:
    """One search's view of a shared immutable CnfFormula.

    checked=True asserts every invariant (check_state_invariants) after each
    mutation; this stands in for static verification and is meant for
    tests, not benchmarks.
    """

    def __init__(self, formula, checked=False):
        require(not formula.trivially_unsat,
                "trivially unsatisfiable formula; answer UNSAT directly")
        self.formula = formula
        self.checked = checked
        self.trail = Trail(formula.variables_count)
        self.occurrences, self.pair_sum = clause_tables(formula)
        self.conflict = None  # index of the oldest fully-false clause
        self.tracer = None
        self._derived_tables = None  # check_state_invariants' cache
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
        is_true = self.trail.is_true
        return [TRUE if is_true[v] else FALSE if is_true[-v] else UNSET
                for v in range(1, self.formula.variables_count + 1)]

    def assert_valid(self):
        if not check_state_invariants(self):
            raise ContractError("solver state invariants violated")

    def snapshot(self):
        """(layers, trail length, flags, conflict), to restore and compare."""
        trail = self.trail
        return (trail.size, len(trail), bytes(trail.is_true), self.conflict)

    def restore(self, snapshot):
        """Cut the trail back to a `snapshot` taken before it grew, then copy
        all its flags and its conflict back: an exception can strike between
        two writes.  Checked mode then asserts every invariant."""
        layers, length, flags, conflict = snapshot
        trail = self.trail
        del trail.starts[layers:]
        del trail.assignments[length:]
        trail.is_true[:] = flags
        self.conflict = conflict
        if self.checked:
            self.assert_valid()


def build_state(formula, checked=False):
    """Fresh all-unset state over a normalized formula."""
    return SolverState(formula, checked=checked)


def set_variable(state, variable, value):
    """Assign one variable on the current trail layer, with no propagation.
    With no conflict recorded, a clause that this makes fully false is
    recorded as the conflict."""
    if type(variable) not in (int, float):  # True would write x2
        raise ContractError("variable %r out of range" % (variable,))
    literal = variable + 1 if value else -variable - 1
    if variable < 0:  # -2 would map onto -1, a literal in range
        raise ContractError("literal %r out of range" % (literal,))
    state.trail.push_entry(literal)
    if state.conflict is None:
        is_true = state.trail.is_true
        clauses = state.formula.clauses
        state.conflict = next((index for index in state.occurrences[-literal]
                               if _fully_false(is_true, clauses[index])),
                              None)
    if state.checked:
        state.assert_valid()


def set_literal(state, literal, value):
    """Make `literal` evaluate to `value` on the current layer, then
    unit-propagate to quiescence: the paper's write-and-propagate call.

    The trail from the written literal on is the queue, read from `head`.
    For each queued literal the clauses holding its negation are visited in
    index order: a fully false one ends propagation and is recorded as the
    conflict if none is, and a unit one forces its unset literal, which is
    written here and queued.  A rejected write raises ContractError before
    anything changes: the range is checked here, so that its message names
    `literal`, not -literal, and the rest by `Trail.push_entry`.
    """
    if (type(literal) is not int
            or not 0 < abs(literal) <= state.formula.variables_count):
        raise ContractError("literal %r out of range" % (literal,))
    assignments = state.trail.assignments
    head = len(assignments)
    state.trail.push_entry(literal if value else -literal)
    if state.checked:
        state.assert_valid()
    tracer = state.tracer
    occurrences = state.occurrences
    clauses = state.formula.clauses
    pair_sum = state.pair_sum
    is_true = state.trail.is_true
    checked = state.checked
    while head < len(assignments):
        false = -assignments[head]
        head += 1
        for index in occurrences[false]:
            other = pair_sum[index]
            if other:  # a binary clause: its other literal, from the sum
                other -= false
                if is_true[other]:
                    continue
                if is_true[-other]:
                    other = 0
            elif other is None:  # a ternary clause: its two other literals
                a, b, c = clauses[index]
                if a == false:
                    a = c
                elif b == false:
                    b = c
                if is_true[a] or is_true[b]:
                    continue
                if is_true[-a]:
                    other = 0 if is_true[-b] else b
                elif is_true[-b]:
                    other = a
                else:
                    continue
            else:  # find the one literal that is not false, if only one is
                for candidate in clauses[index]:
                    if not is_true[-candidate]:
                        if other or is_true[candidate]:
                            other = None  # satisfied, or two not false
                            break
                        other = candidate
                if other is None:
                    continue
            if not other:
                if state.conflict is None:
                    state.conflict = index
                head = len(assignments)  # the rest of the queue is pointless
                break
            if tracer is not None:
                tracer.emit(("propagate", abs(other) - 1, other > 0,
                             index, tracer.assignment(state)))
            assignments.append(other)
            is_true[other] = 1
            if checked:
                state.assert_valid()


def _clear_stale_conflict(state):
    """After an undo: forget the conflict once its clause is no longer
    fully false."""
    conflict = state.conflict
    if conflict is not None and not _fully_false(
            state.trail.is_true, state.formula.clauses[conflict]):
        state.conflict = None
    if state.checked:
        state.assert_valid()


def unset_variable(state, literal):
    """Finish undoing set_variable for a literal that the caller has popped
    from the trail.  The search does not call it: it undoes whole layers
    with undo_last_layer."""
    if (type(literal) is not int
            or not 0 < abs(literal) <= state.formula.variables_count):
        raise ContractError("literal %r out of range" % (literal,))
    if state.trail.is_true[literal]:
        raise ContractError("literal %d is still on the trail" % literal)
    _clear_stale_conflict(state)


def undo_last_layer(state):
    """Pop the last trail layer, which clears its flags, and clear the
    conflict if that made its clause no longer fully false."""
    state.trail.pop_layer()
    _clear_stale_conflict(state)


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
    is_true = state.trail.is_true
    clauses = state.formula.clauses
    if type(start) is not int or not 0 <= start <= len(clauses):
        raise ContractError("clause cursor %r out of range" % (start,))
    if state.checked:
        require(_first_open(is_true, clauses, 0, start) is None,
                "an open clause lies below start %d" % start)
    return _first_open(is_true, clauses, start, len(clauses))


def is_formula_satisfied(state):
    """True iff every clause has at least one true literal."""
    return first_open_clause(state, 0) is None


def any_fully_false(state):
    """True iff some clause is fully false, by a scan of every clause."""
    is_true = state.trail.is_true
    return any(_fully_false(is_true, clause)
               for clause in state.formula.clauses)


def check_state_invariants(state):
    """Recompute everything from scratch and compare with the stored state.

    Covers the trail invariants, which include its literal flags, their
    length against the formula's, the conflict naming a fully-false
    clause, and the clause tables: the first call derives them with
    `clause_tables`, as the constructor does, and caches them on the
    state, and each call compares the state's with them.  Returns a bool.
    """
    formula = state.formula
    clauses = formula.clauses
    if not check_trail_invariants(state.trail):
        return False
    is_true = state.trail.is_true
    if len(is_true) != 2 * formula.variables_count + 1:
        return False
    if state._derived_tables is None:
        state._derived_tables = clause_tables(formula)
    if (state.occurrences, state.pair_sum) != state._derived_tables:
        return False
    conflict = state.conflict
    if conflict is not None and (conflict not in range(len(clauses))
                                 or not _fully_false(is_true,
                                                     clauses[conflict])):
        return False
    return True
