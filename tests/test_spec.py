"""The solver refines the counter-free reference search in spec.py: both
emit the same events, in the same order."""

import pytest

from dpllsat import CnfFormula, Tracer
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


@pytest.mark.parametrize("min_len, max_len", [(1, 4), (2, 2), (3, 3)])
def test_random_formula_events_equal_spec(min_len, max_len):
    # (2, 2) draws binary clauses, repeated ones too, so that the binary
    # clauses' literal sums decide every unit and conflict; in (3, 3) the
    # ternary clauses, read without a loop, decide most of them
    rng = make_rng(20261018)
    compared = 0
    while compared < 200:
        formula = random_formula(rng, min_vars=5, max_vars=40,
                                 max_clauses=160, min_len=min_len,
                                 max_len=max_len)
        if formula.trivially_unsat:
            continue
        assert_refines_spec(formula)
        compared += 1


def test_binary_tautology_events_equal_spec():
    # built directly, so not normalized: the sum of (1, -1) is 0, and the
    # clause is scanned like any clause that is not binary
    assert_refines_spec(CnfFormula(2, ((1, -1), (-2,))))


# each prefix is followed by one ternary clause.  The first makes x1, x2
# and x3 false one decision at a time, so the clause turns unit; the
# second makes all three false in one propagation, a conflict.
TERNARY_PREFIXES = (((-1,), (-2,), (-3,)),
                    ((4,), (-4, -1), (-4, -2), (-4, -3)))


@pytest.mark.parametrize("prefix", TERNARY_PREFIXES, ids=["unit", "conflict"])
@pytest.mark.parametrize("ternary", [
    # the false literal in each of the three positions
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    # a repeated literal, and tautologies
    (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, -1, 2), (2, 1, -1),
], ids=str)
def test_unnormalized_ternary_events_equal_spec(prefix, ternary):
    # built directly, so not normalized: propagation reads the clause's
    # two other literals without a loop, and must reach the verdict of the
    # generic scan also on a repeated literal or a tautology
    assert_refines_spec(CnfFormula(4, prefix + (ternary,)))
