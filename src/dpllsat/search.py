"""Recursive DPLL search: literal choice, unit propagation, decide/undo.

The search recurses once per decision.  Unit propagation runs as a work
queue inside the current layer, so recursion depth is bounded by the number
of variables.

Each search node carries a clause cursor `start`: every clause below it has
a true literal.  A node finds its lowest open clause by scanning from its
parent's cursor and hands that index to its children.  This holds because a
child only adds assignments, and true counts never fall while the trail
grows.  So a root-to-leaf path scans each clause at most once, and the
conflict test is an O(1) counter read.
"""

import sys
import time
from dataclasses import dataclass

from ._contracts import ContractError, require
from .cnf import decode_literal
from .state import (TRUE, UNSET, first_open_clause, get_literal_value,
                    has_empty_clause, set_variable, undo_last_layer)


class TimeLimitReached(Exception):
    """Raised when a cooperative solve deadline expires."""


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool
    model: tuple = None  # complete assignment, present iff satisfiable

    @property
    def verdict(self):
        return "SAT" if self.satisfiable else "UNSAT"


class Tracer:
    """Collects search events for golden-trace and lemma-level tests.

    Events:
      ("decide", variable, value)
      ("propagate", variable, value, clause_index, tau_before)
      ("backtrack", trail_size)
      ("sat", tau)
      ("branch_unsat", tau)
    Assignment snapshots are recorded only with snapshot_assignments=True;
    otherwise those slots hold None.
    """

    def __init__(self, snapshot_assignments=False):
        self.events = []
        self.snapshot_assignments = snapshot_assignments

    def emit(self, event):
        self.events.append(event)

    def _tau(self, state):
        if self.snapshot_assignments:
            return tuple(state.truth_assignment)
        return None


def choose_literal(state, start=0):
    """First unset literal of the lowest-index unsatisfied clause.

    `start` is a clause cursor (see the module docstring): no clause below
    it may be unsatisfied.
    """
    require(not has_empty_clause(state), "conflict present, nothing to decide")
    index = first_open_clause(state, start)
    if index is not None:
        tau = state.truth_assignment
        # not fully false, so the open clause has an unset literal
        for literal in state.formula.clauses[index]:
            if get_literal_value(tau, literal) == UNSET:
                return literal
    raise ContractError("no unsatisfied clause, nothing to decide")


def set_literal(state, literal, value):
    """Make `literal` evaluate to `value`, then unit-propagate to quiescence.

    All forced assignments land on the current trail layer.  Propagation
    stops early if a clause becomes fully false; the caller detects the
    conflict via has_empty_clause.
    """
    require(0 < abs(literal) <= state.formula.variables_count,
            "literal %r out of range" % (literal,))
    tau = state.truth_assignment
    require(get_literal_value(tau, literal) == UNSET,
            "literal %d is already set" % literal)
    trail = state.trail
    before = len(trail)
    if not value:
        literal = -literal
    tracer = state.tracer
    set_variable(state, abs(literal) - 1, literal > 0)
    clauses = state.formula.clauses
    occurrences = state.occurrences
    lengths = state.clause_lengths
    true_counts = state.true_literals_count
    false_counts = state.false_literals_count
    queue = [literal]  # literals made true, in assignment order
    head = 0
    while head < len(queue):
        # clauses where the negation of a true literal just became false
        candidates = occurrences[-queue[head]]
        head += 1
        for index in candidates:
            if true_counts[index] > 0:
                continue
            false_count = false_counts[index]
            length = lengths[index]
            if false_count == length:
                # conflict: remaining propagation is pointless
                require(len(trail) > before,
                        "propagation must assign at least one variable")
                return
            if false_count == length - 1:
                for forced in clauses[index]:
                    if get_literal_value(tau, forced) == UNSET:
                        break
                forced_variable = abs(forced) - 1
                if tracer is not None:
                    tracer.emit(("propagate", forced_variable, forced > 0,
                                 index, tracer._tau(state)))
                set_variable(state, forced_variable, forced > 0)
                queue.append(forced)
    require(len(trail) > before,
            "propagation must assign at least one variable")


def complete_model(truth_assignment):
    """Total assignment extending tau, unset variables defaulting to false."""
    return tuple(value == TRUE for value in truth_assignment)


def step(state, literal, value, deadline=None, depth=0, start=0):
    """One decision: new layer, set the literal, recurse, undo the layer.

    `start` is the clause cursor handed to the child node.  Returns the
    child verdict; the state is restored exactly, even on SAT.
    """
    require(literal != 0, "invalid literal")
    before = state.snapshot() if state.checked else None
    assigned_before = len(state.trail)
    variable, positive = decode_literal(literal)
    if state.tracer is not None:
        state.tracer.emit(("decide", variable,
                           value if positive else not value))
    # the layer is opened just before its first entry, so an exception
    # never leaves an empty layer on the trail for solve to unwind
    state.trail.new_layer()
    set_literal(state, literal, value)
    require(len(state.trail) > assigned_before,
            "decision must reduce the unset-variable count")
    result = _solve(state, deadline, depth + 1, start)
    undo_last_layer(state)
    if state.tracer is not None:
        state.tracer.emit(("backtrack", state.trail.size))
    if state.checked and state.snapshot() != before:
        raise ContractError("step did not restore the state exactly")
    return result


def _solve(state, deadline, depth, start):
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeLimitReached()
    require(depth <= state.formula.variables_count,
            "recursion depth exceeds variable count")
    if has_empty_clause(state):
        return SolveResult(False)
    start = first_open_clause(state, start)
    if start is None:
        if state.tracer is not None:
            state.tracer.emit(("sat", tuple(state.truth_assignment)))
        return SolveResult(True, complete_model(state.truth_assignment))
    literal = choose_literal(state, start)
    result = step(state, literal, True, deadline, depth, start)
    if result.satisfiable:
        return result
    result = step(state, literal, False, deadline, depth, start)
    if not result.satisfiable and state.tracer is not None:
        state.tracer.emit(("branch_unsat",
                           tuple(state.truth_assignment)
                           if state.tracer.snapshot_assignments else None))
    return result


def solve(state, time_limit=None):
    """Full DPLL search from the current (usually all-unset) state.

    Returns SolveResult.  Raises TimeLimitReached if the optional time limit
    (seconds) expires.  Either way the state is left exactly as it was on
    entry: if the search or its tracer raises, every trail layer the search
    opened is undone before the exception propagates.  KeyboardInterrupt
    and other asynchronous interrupts can strike in the middle of a counter
    update, so they are not unwound and the state must be rebuilt.  The
    interpreter's recursion limit is raised for the search and restored
    afterwards.
    """
    deadline = None
    if time_limit is not None:
        require(time_limit > 0, "time limit must be positive")
        deadline = time.monotonic() + time_limit
    layers = state.trail.size
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 8 * state.formula.variables_count + 200))
    try:
        return _solve(state, deadline, 0, 0)
    except Exception:
        while state.trail.size > layers:
            undo_last_layer(state)
        raise
    finally:
        sys.setrecursionlimit(limit)
