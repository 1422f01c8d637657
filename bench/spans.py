"""Per-layer spans recorded from outside the solver, and search work counters.

A hook wraps one public function of a `dpllsat` module.  It is installed
wherever a caller looks the name up: every `dpllsat.*` module attribute
bound to the original function, or the class attribute for a `Trail`
method.  Self time is a span's duration minus the spans of its children.
The wrappers add their own cost to every call, so self times from a traced
run are read as shares, and end-to-end timings come from untraced runs.
"""

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from dpllsat import Tracer

# metric prefix -> (module under dpllsat, attribute path inside it)
HOOKS = {
    "cli.run": ("cli", "run"),
    "cnf.parse_dimacs": ("cnf", "parse_dimacs"),
    "state.build_state": ("state", "build_state"),
    "state.set_variable": ("state", "set_variable"),
    "state.unset_variable": ("state", "unset_variable"),
    "state.undo_last_layer": ("state", "undo_last_layer"),
    "state.has_empty_clause": ("state", "has_empty_clause"),
    "state.is_formula_satisfied": ("state", "is_formula_satisfied"),
    "trail.new_layer": ("trail", "Trail.new_layer"),
    "trail.push_entry": ("trail", "Trail.push_entry"),
    "trail.pop_layer": ("trail", "Trail.pop_layer"),
    "search.solve": ("search", "solve"),
    "search.step": ("search", "step"),
    "search.set_literal": ("search", "set_literal"),
    "search.choose_literal": ("search", "choose_literal"),
    "oracle.check_model": ("oracle", "check_model"),
}

# The hooks an untraced run keeps: one call each per instance, so they
# split its wall time into set-up and solve at no measurable cost.
PHASES = ("cnf.parse_dimacs", "state.build_state", "search.solve")


def _resolve(name):
    """(owner, attribute, function) for a hook, or None if it is gone."""
    module_name, path = HOOKS[name]
    owner = sys.modules.get("dpllsat." + module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    function = getattr(owner, attribute, None)
    if not callable(function):
        return None
    return owner, attribute, function


class Spans:
    """Calls, self time, total time and True results per hooked function."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.true_results = Counter()
        self.absent = []
        self._stack = []  # child time of each open span

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.total_s.clear()
        self.true_results.clear()

    def _wrap(self, name, function):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        true_results = self.true_results

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[name] += elapsed - stack.pop()
                total_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if result is True:
                true_results[name] += 1
            return result
        return span

    @contextmanager
    def installed(self, names):
        """Wrap the named hooks for the duration of the block.

        A hook whose function no longer exists is listed in `absent`.
        """
        packages = [module for key, module in list(sys.modules.items())
                    if key == "dpllsat" or key.startswith("dpllsat.")]
        undo = []
        self.absent = []
        try:
            for name in names:
                found = _resolve(name)
                if found is None:
                    self.absent.append(name)
                    continue
                owner, attribute, function = found
                wrapped = self._wrap(name, function)
                if isinstance(owner, type):
                    targets = [owner]
                else:
                    targets = [module for module in packages
                               if vars(module).get(attribute) is function]
                for target in targets:
                    setattr(target, attribute, wrapped)
                    undo.append((target, attribute, function))
            yield self
        finally:
            for target, attribute, function in reversed(undo):
                setattr(target, attribute, function)


class WorkCounter(Tracer):
    """Counts search events instead of storing them.

    A conflict is a decision that reaches its backtrack with no further
    decision and no model found in between.  Counting events rather than
    calls keeps the numbers valid when a refactor inlines a function.
    """

    def __init__(self):
        super().__init__()
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.max_depth = 0
        self._depth = 0
        self._leaf = False

    def emit(self, event):
        kind = event[0]
        if kind == "propagate":
            self.propagations += 1
        elif kind == "decide":
            self.decisions += 1
            self._depth += 1
            self.max_depth = max(self.max_depth, self._depth)
            self._leaf = True
        elif kind == "backtrack":
            if self._leaf:
                self.conflicts += 1
            self._leaf = False
            self._depth -= 1
        elif kind == "sat":
            self._leaf = False

    def totals(self):
        return (self.decisions, self.propagations, self.conflicts,
                self.max_depth)
