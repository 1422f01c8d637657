"""DPLL SAT solver with a layered assignment trail, counter-free unit
propagation, and runtime-checkable data-structure invariants."""

__version__ = "0.1.0"

from ._contracts import ContractError
from .cnf import (CnfFormula, DimacsError, DimacsWarning, build_formula,
                  normalize_clause, parse_dimacs, to_dimacs)
from .oracle import brute_force, check_model, is_satisfiable_extend
from .search import (SolveResult, TimeLimitReached, Tracer, choose_literal,
                     complete_model, solve, step)
from .state import (FALSE, TRUE, UNSET, SolverState, build_state,
                    check_state_invariants, first_open_clause,
                    has_empty_clause, is_formula_satisfied, set_literal,
                    set_variable, undo_last_layer)
from .trail import Trail, check_trail_invariants

__all__ = [
    "CnfFormula", "ContractError", "DimacsError", "DimacsWarning",
    "SolveResult", "SolverState", "TimeLimitReached", "Tracer", "Trail",
    "FALSE", "TRUE", "UNSET",
    "brute_force", "build_formula", "build_state", "check_model",
    "check_state_invariants", "check_trail_invariants", "choose_literal",
    "complete_model", "first_open_clause", "has_empty_clause",
    "is_formula_satisfied", "is_satisfiable_extend", "normalize_clause",
    "parse_dimacs", "set_literal", "set_variable", "solve", "step",
    "to_dimacs", "undo_last_layer",
]
