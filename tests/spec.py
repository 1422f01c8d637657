"""Counter-free reference DPLL: the search order the solver must refine.

It keeps no counters, no clause cursor, no occurrence lists and no trail
class.  It evaluates every clause directly against a value list, recurses
once per decision, and emits the events `dpllsat.Tracer()` records, with
None in the assignment-snapshot slots.  The order is the solver's:
- the decision is the first unset literal of the lowest-index clause with
  no true literal, true branch first;
- propagation queues literals FIFO, and for each one visits the clauses
  holding its negation in index order: a clause with a true literal is
  skipped, a fully false one stops propagation, and one with a single
  unset literal forces it.
"""

UNSET, FALSE, TRUE = -1, 0, 1


def spec_solve(formula):
    """(satisfiable, events) for a formula with no empty clause."""
    clauses = formula.clauses
    values = [UNSET] * formula.variables_count
    events = []

    def value(literal):
        v = values[abs(literal) - 1]
        return v if v == UNSET or literal > 0 else 1 - v

    def propagate(literal):
        """Make literal true, propagate; return the literals assigned."""
        queue = [literal]
        values[abs(literal) - 1] = TRUE if literal > 0 else FALSE
        for queued in queue:  # the loop sees what is appended to the queue
            for index, clause in enumerate(clauses):
                if -queued not in clause or TRUE in map(value, clause):
                    continue
                unset = [lit for lit in clause if value(lit) == UNSET]
                if not unset:
                    return queue
                if len(unset) == 1:
                    forced = unset[0]
                    events.append(("propagate", abs(forced) - 1, forced > 0,
                                   index, None))
                    values[abs(forced) - 1] = TRUE if forced > 0 else FALSE
                    queue.append(forced)
        return queue

    def node(depth):
        """True iff the subtree below `depth` open decisions has a model."""
        if any(all(value(lit) == FALSE for lit in c) for c in clauses):
            return False
        open_clause = next((c for c in clauses
                            if TRUE not in map(value, c)), None)
        if open_clause is None:
            events.append(("sat", tuple(values)))
            return True
        decision = next(lit for lit in open_clause if value(lit) == UNSET)
        for branch in (decision, -decision):
            events.append(("decide", abs(branch) - 1, branch > 0))
            assigned = propagate(branch)
            satisfiable = node(depth + 1)
            for literal in assigned:
                values[abs(literal) - 1] = UNSET
            events.append(("backtrack", depth))
            if satisfiable:
                return True
        events.append(("branch_unsat", None))
        return False

    return node(0), events
