"""DPLL search: literal choice, decide/undo.

The search is one loop over the trail, as in MiniSat's `search` (Eén and
Sörensson, SAT 2003).  Each open decision layer has a frame: its decision
literal, the clause cursor of the node that decided it, whether it is on
its false branch, and, in checked mode, the snapshot its undo must restore.
Every decision assigns at least one variable, so at most n frames are open.

A node's clause cursor `start` has a true literal in every clause below it.
A node scans for its lowest open clause from its parent's cursor, and its
frame keeps that index for both children.  A true literal stays true
while the trail grows, so a root-to-leaf path scans each clause at most
once.

`solve` and `step` take `state.snapshot()` on entry and hand it back to
`state.restore` on any exception, a KeyboardInterrupt too.
"""

import time
from dataclasses import dataclass

from ._contracts import ContractError, require
from .state import (any_fully_false, first_open_clause, has_empty_clause,
                    set_literal, undo_last_layer)


@dataclass(frozen=True)
class SolveResult:
    satisfiable: bool  # None if the deadline passed first
    model: tuple = None  # complete assignment, present iff satisfiable

    @property
    def verdict(self):
        return {True: "SAT", False: "UNSAT", None: "UNKNOWN"}[self.satisfiable]


# frozen, so every conflict and every deadline can share one instance
_UNSAT = SolveResult(False)
_UNKNOWN = SolveResult(None)


class Tracer:
    """Collects search events for golden-trace and lemma-level tests.

    Events:
      ("decide", variable, value)
      ("propagate", variable, value, clause_index, tau_before)
      ("backtrack", trail_size)
      ("sat", tau)
      ("branch_unsat", tau)
    The "sat" event always carries the assignment.  The other snapshots
    are recorded only with snapshot_assignments=True; otherwise those slots
    hold None.  The solver fills them with `assignment(state)`, which a
    subclass may override.
    """

    def __init__(self, snapshot_assignments=False):
        self.events = []
        self.snapshot_assignments = snapshot_assignments

    def emit(self, event):
        self.events.append(event)

    def assignment(self, state):
        """The truth assignment to record in an event: a copy with
        snapshot_assignments=True, else None."""
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
        is_true = state.trail.is_true
        # open and not fully false, so a literal that is not false is unset
        for literal in state.formula.clauses[index]:
            if not is_true[-literal]:
                return literal
    raise ContractError("no unsatisfied clause, nothing to decide")


def _decide(state, literal, value):
    """Open a decision layer and make `literal` evaluate to `value` on it."""
    if state.tracer is not None:
        state.tracer.emit(("decide", abs(literal) - 1,
                           value if literal > 0 else not value))
    trail = state.trail
    # on a trail with every variable set, set_literal rejects the literal by
    # name, where opening a layer would only say that the trail is full
    if len(trail.assignments) < trail.variables_count:
        trail.new_layer()
    set_literal(state, literal, value)


def _backtrack(state, before):
    """Undo the top layer.  `before` is the snapshot taken just before that
    layer was opened, in checked mode, and None otherwise."""
    undo_last_layer(state)
    if state.tracer is not None:
        state.tracer.emit(("backtrack", state.trail.size))
    if before is not None and state.snapshot() != before:
        raise ContractError("backtrack did not restore the state exactly")


def _search(state, deadline):
    """Search below the current trail; return the verdict of that subtree.

    The first node's clause cursor is 0.  Every layer this opens is closed
    again before it returns, also on SAT and on UNKNOWN.  A SAT model is
    read off the positive literals' flags, so an unset variable is False.
    """
    tracer = state.tracer
    start = 0
    frames = []  # (literal, cursor, on_false_branch, snapshot) per layer
    while True:
        # one search node
        if state.checked:
            # after set_literal the conflict is recorded iff one exists
            require(has_empty_clause(state) == any_fully_false(state),
                    "the recorded conflict disagrees with a full scan")
        if deadline is not None and time.monotonic() >= deadline:
            result = _UNKNOWN
        elif has_empty_clause(state):
            result = _UNSAT
        else:
            start = first_open_clause(state, start)
            if start is not None:
                literal = choose_literal(state, start)
                before = state.snapshot() if state.checked else None
                frames.append((literal, start, False, before))
                _decide(state, literal, True)
                continue
            if tracer is not None:
                tracer.emit(("sat", tuple(state.truth_assignment)))
            n = state.formula.variables_count
            model = tuple(map(bool, state.trail.is_true[1:n + 1]))
            result = SolveResult(True, model)
        # close layers until one has its false branch still to search
        while frames:
            literal, start, on_false_branch, before = frames.pop()
            _backtrack(state, before)
            if result is not _UNSAT:
                continue
            if not on_false_branch:
                frames.append((literal, start, True, before))
                _decide(state, literal, False)
                break
            if tracer is not None:
                tracer.emit(("branch_unsat", tracer.assignment(state)))
        else:
            return result


def step(state, literal, value, deadline=None):
    """One decision: new layer, set the literal, search below it, undo.

    Returns the verdict below the decision, UNKNOWN once the monotonic
    `deadline` passes, with the state restored exactly, also when it
    raises (see solve).  A literal that is not an int in range, or is set,
    raises ContractError, after its `decide` event if a tracer is attached.
    """
    entry = state.snapshot()
    try:
        _decide(state, literal, value)
        result = _search(state, deadline)
        _backtrack(state, entry if state.checked else None)
    except BaseException:
        state.restore(entry)
        raise
    return result


def solve(state, time_limit=None):
    """Full DPLL search from the current (usually all-unset) state.

    Returns SolveResult, UNKNOWN if the optional time limit (seconds)
    expires first.  The state is left exactly as it was on entry on every
    return, and on every exception: one raised by the search or its tracer,
    and KeyboardInterrupt or another asynchronous one, wherever it strikes.
    """
    deadline = None
    if time_limit is not None:
        require(time_limit > 0, "time limit must be positive")
        deadline = time.monotonic() + time_limit
    entry = state.snapshot()
    try:
        return _search(state, deadline)
    except BaseException:
        state.restore(entry)
        raise
