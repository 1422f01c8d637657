"""Layered assignment trail.

Each decision opens a new layer holding the decision assignment followed by
the assignments forced by unit propagation, so backtracking knows exactly
which assignments to revert.  The layout is MiniSat's (Eén and Sörensson,
"An Extensible SAT-solver", SAT 2003): one flat list of assignments plus
the index where each layer starts.
"""

from ._contracts import require

UNSET = -1
FALSE = 0
TRUE = 1


class Trail:
    """Assignments in push order, split into layers, and the value array.

    `assignments` holds (variable, bool) pairs, oldest first.  Layer i is
    `assignments[starts[i]:starts[i + 1]]`, the last one running to the
    end.  `values[v]` is UNSET, FALSE or TRUE, and is set exactly for the
    variables on the trail.  At most variables_count layers can be open,
    since every layer holds at least one assignment of a distinct variable.
    """

    def __init__(self, variables_count):
        require(variables_count >= 0, "variables_count must be nonnegative")
        self.variables_count = variables_count
        self.assignments = []
        self.starts = []
        self.values = [UNSET] * variables_count

    @property
    def size(self):
        """Number of open layers."""
        return len(self.starts)

    def new_layer(self):
        """Open a new (empty) decision layer."""
        starts = self.starts
        require(len(starts) < self.variables_count, "trail is full")
        require(not starts or starts[-1] < len(self.assignments),
                "current layer is empty, push an entry first")
        starts.append(len(self.assignments))

    def push_entry(self, variable, value):
        """Append an assignment to the current layer and record its value."""
        require(self.starts, "no open layer")
        require(0 <= variable < self.variables_count,
                "variable %r out of range" % (variable,))
        require(self.values[variable] == UNSET,
                "variable %d already on the trail" % variable)
        self.assignments.append((variable, value))
        self.values[variable] = TRUE if value else FALSE

    def pop_layer(self):
        """Remove the last layer, unset its variables, and return its
        entries in push order."""
        starts = self.starts
        require(starts, "trail is empty")
        start = starts[-1]
        require(start < len(self.assignments), "last layer is empty")
        starts.pop()
        entries = self.assignments[start:]
        del self.assignments[start:]
        values = self.values
        for variable, _ in entries:
            values[variable] = UNSET
        return entries

    def last_layer(self):
        require(self.starts, "trail is empty")
        return self.assignments[self.starts[-1]:]

    def layer(self, i):
        """Entries of open layer i, in push order."""
        starts = self.starts
        require(0 <= i < len(starts), "no open layer %r" % (i,))
        end = starts[i + 1] if i + 1 < len(starts) else len(self.assignments)
        return self.assignments[starts[i]:end]

    def __len__(self):
        return len(self.assignments)


def check_trail_invariants(trail):
    """True iff the trail satisfies all of its structural invariants."""
    n = trail.variables_count
    starts = trail.starts
    if len(starts) > n or len(trail.values) != n:
        return False
    # layers tile the assignments from index 0, and only the top layer may
    # be empty; with no layer open there are no assignments
    bounds = starts + [len(trail.assignments)]
    if (bounds[0] != 0 or bounds != sorted(bounds)
            or len(set(starts)) != len(starts)):
        return False
    # each variable at most once, in range, with a boolean value, and the
    # value array is exactly the assignments' view
    derived = [UNSET] * n
    for variable, value in trail.assignments:
        if not (0 <= variable < n) or not isinstance(value, bool):
            return False
        if derived[variable] != UNSET:
            return False
        derived[variable] = TRUE if value else FALSE
    return derived == trail.values
