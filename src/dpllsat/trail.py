"""Layered assignment trail.

Each decision opens a new layer holding the decision followed by the
literals forced by unit propagation, so backtracking knows exactly which
assignments to revert.  The layout is MiniSat's (Eén and Sörensson, "An
Extensible SAT-solver", SAT 2003): one flat list of signed literal codes
plus the index where each layer starts, and the value array they imply.
"""

from ._contracts import ContractError, require

UNSET = -1
FALSE = 0
TRUE = 1


class Trail:
    """Literals in push order, split into layers, and the value array.

    `assignments` holds the literals made true, oldest first, as signed
    codes: v+1 sets variable v true, -v-1 sets it false.  Layer i is
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

    def push_entry(self, literal):
        """Append a literal to the current layer and make it true.  Checks
        that a layer is open and the literal is in range and unset first."""
        variable = abs(literal) - 1
        if not self.starts:
            raise ContractError("no open layer")
        if not 0 <= variable < self.variables_count:
            raise ContractError("literal %r out of range" % (literal,))
        if self.values[variable] != UNSET:
            raise ContractError("literal %d is already set" % literal)
        self.assignments.append(literal)
        self.values[variable] = TRUE if literal > 0 else FALSE

    def pop_layer(self):
        """Remove the last layer, unset its variables, and return its
        literals in push order."""
        starts = self.starts
        require(starts, "trail is empty")
        start = starts[-1]
        require(start < len(self.assignments), "last layer is empty")
        starts.pop()
        literals = self.assignments[start:]
        del self.assignments[start:]
        values = self.values
        for literal in literals:
            values[abs(literal) - 1] = UNSET
        return literals

    def layer(self, i):
        """Literals of open layer i, in push order."""
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
    # each entry a nonzero int literal in range, each variable at most
    # once, and the value array is exactly the literals' view
    derived = [UNSET] * n
    for literal in trail.assignments:
        if type(literal) is not int or not 0 < abs(literal) <= n:
            return False
        variable = abs(literal) - 1
        if derived[variable] != UNSET:
            return False
        derived[variable] = TRUE if literal > 0 else FALSE
    return derived == trail.values
