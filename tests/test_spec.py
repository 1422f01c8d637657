"""The solver refines the counter-free reference search in spec.py: both
emit the same events, in the same order."""

import pytest

from dpllsat import Tracer
from dpllsat.cli import generate_pigeonhole, generate_queens
from helpers import make_rng, random_formula, solve_formula
from spec import spec_solve


def assert_refines_spec(formula):
    tracer = Tracer()
    result, _ = solve_formula(formula, tracer=tracer)
    satisfiable, events = spec_solve(formula)
    assert result.satisfiable == satisfiable
    assert tracer.events == events


@pytest.mark.parametrize("formula", [generate_pigeonhole(6),
                                     generate_pigeonhole(7),
                                     generate_queens(8)],
                         ids=["php6", "php7", "queens8"])
def test_bench_family_events_equal_spec(formula):
    assert_refines_spec(formula)


def test_random_formula_events_equal_spec():
    rng = make_rng(20261018)
    compared = 0
    while compared < 200:
        formula = random_formula(rng, min_vars=5, max_vars=40,
                                 max_clauses=160, min_len=1, max_len=4)
        if formula.trivially_unsat:
            continue
        assert_refines_spec(formula)
        compared += 1
