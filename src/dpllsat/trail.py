"""Layered assignment trail.

Each decision opens a new layer holding the decision followed by the
literals forced by unit propagation, so backtracking knows exactly which
assignments to revert.  The layout is MiniSat's (Eén and Sörensson, "An
Extensible SAT-solver", SAT 2003): one flat list of signed literal codes
plus the index where each layer starts.  The trail is also the one store
of the assignment: one flag per signed literal that says whether it is
true, indexed by the code as in Kissat, which a push sets and a pop clears.
`push_entry` is the one checked write, like MiniSat's `enqueue`; only the
literals that propagation forces, unset by construction, bypass it.
"""

from ._contracts import ContractError, require


class Trail:
    """Literals in push order, split into layers, and their true flags.

    `assignments` holds the literals made true, oldest first, as signed
    codes: v+1 sets variable v true, -v-1 sets it false.  Layer i is
    `assignments[starts[i]:starts[i + 1]]`, the last one running to the
    end.  `is_true[literal]`, 2n+1 bytes indexed by the signed code with
    slot 0 unused, is 1 exactly for the literals on the trail; a variable
    is unset iff neither of its literals is flagged.  At most
    variables_count layers can be open, since every layer holds at least
    one assignment of a distinct variable.
    """

    def __init__(self, variables_count):
        require(variables_count >= 0, "variables_count must be nonnegative")
        self.variables_count = variables_count
        self.assignments = []
        self.starts = []
        self.is_true = bytearray(2 * variables_count + 1)

    @property
    def size(self):
        """Number of open layers."""
        return len(self.starts)

    def new_layer(self):
        """Open a new (empty) decision layer."""
        starts = self.starts
        if len(starts) >= self.variables_count:
            raise ContractError("trail is full")
        if starts and starts[-1] >= len(self.assignments):
            raise ContractError("current layer is empty, push an entry first")
        starts.append(len(self.assignments))

    def push_entry(self, literal):
        """Append a literal to the current layer and make it true.  Checks
        that a layer is open and the literal is an int in range and unset
        first."""
        if not self.starts:
            raise ContractError("no open layer")
        if (type(literal) is not int
                or not 0 < abs(literal) <= self.variables_count):
            raise ContractError("literal %r out of range" % (literal,))
        is_true = self.is_true
        if is_true[literal] or is_true[-literal]:
            raise ContractError("literal %d is already set" % literal)
        self.assignments.append(literal)
        is_true[literal] = 1

    def pop_layer(self):
        """Remove the last layer, clear its flags, and return its literals
        in push order."""
        starts = self.starts
        if not starts:
            raise ContractError("trail is empty")
        start = starts[-1]
        if start >= len(self.assignments):
            raise ContractError("last layer is empty")
        starts.pop()
        literals = self.assignments[start:]
        del self.assignments[start:]
        is_true = self.is_true
        for literal in literals:
            is_true[literal] = 0
        return literals

    def __len__(self):
        return len(self.assignments)


def check_trail_invariants(trail):
    """True iff the trail satisfies all of its structural invariants."""
    n = trail.variables_count
    starts = trail.starts
    if len(starts) > n or len(trail.is_true) != 2 * n + 1:
        return False
    # layers tile the assignments from index 0, and only the top layer may
    # be empty; with no layer open there are no assignments
    bounds = starts + [len(trail.assignments)]
    if (bounds[0] != 0 or bounds != sorted(bounds)
            or len(set(starts)) != len(starts)):
        return False
    # each entry a nonzero int literal in range, each variable at most
    # once, and the flags are exactly the literals on the trail
    derived = bytearray(2 * n + 1)
    for literal in trail.assignments:
        if type(literal) is not int or not 0 < abs(literal) <= n:
            return False
        if derived[literal] or derived[-literal]:
            return False
        derived[literal] = 1
    return derived == trail.is_true
