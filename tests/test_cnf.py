import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllsat import (DimacsError, DimacsWarning, brute_force, build_formula,
                     normalize_clause, parse_dimacs, to_dimacs)
from helpers import EXAMPLE1_DIMACS, example1, make_rng, random_raw_clauses, \
    raw_brute_force


class TestNormalizeClause:
    def test_removes_duplicates_keeps_order(self):
        assert normalize_clause([1, 1, 2]) == [1, 2]

    def test_tautology(self):
        assert normalize_clause([1, -1]) is None

    def test_empty(self):
        assert normalize_clause([]) == []


class TestParseDimacs:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")
        assert f.variables_count == 2
        assert f.clauses == ((1, 2), (-1,))
        assert not f.trivially_unsat

    def test_example1(self):
        f = parse_dimacs(EXAMPLE1_DIMACS)
        assert f.variables_count == 7
        assert f.clauses == ((1, 2, 3), (-1, -2), (2, -3), (2, 4, 5),
                             (5, 6, 7))

    def test_empty_clause_sets_trivially_unsat(self):
        f = parse_dimacs("p cnf 1 1\n0\n")
        assert f.trivially_unsat
        assert f.clauses == ()

    def test_zero_variables(self):
        f = parse_dimacs("p cnf 0 0\n")
        assert (f.variables_count, f.clauses) == (0, ())
        assert not f.trivially_unsat
        f = parse_dimacs("p cnf 0 1\n0\n")
        assert (f.variables_count, f.clauses) == (0, ())
        assert f.trivially_unsat
        with pytest.raises(DimacsError, match="nonnegative"):
            parse_dimacs("p cnf -1 0\n")

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c hello\np cnf 3 1\nc mid\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_clause_count_mismatch_warns(self):
        with pytest.warns(DimacsWarning):
            parse_dimacs("p cnf 2 5\n1 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf two 2\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="exceeds"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_non_integer_token(self):
        with pytest.raises(DimacsError, match="non-integer"):
            parse_dimacs("p cnf 2 1\n1 x 0\n")

    def test_missing_terminator(self):
        with pytest.raises(DimacsError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("1 2 0\n")

    def test_satlib_percent_ends_clause_data(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DimacsWarning)
            f = parse_dimacs("c SATLIB\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n"
                             "%\n0\n\n")
        assert f.clauses == ((1, -2, 3), (-1, 2))

    def test_percent_does_not_close_an_open_clause(self):
        with pytest.raises(DimacsError, match="terminating 0"):
            parse_dimacs("p cnf 2 1\n1 2\n%\n0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(DimacsError, match="line 3"):
            parse_dimacs("c x\np cnf 2 1\nbogus 0\n")


class TestRoundTrip:
    def test_example1_round_trip(self):
        f = example1()
        assert parse_dimacs(to_dimacs(f)) == f

    def test_trivially_unsat_round_trip(self):
        f = parse_dimacs("p cnf 1 1\n0\n")
        assert parse_dimacs(to_dimacs(f)) == f

    @given(st.data())
    @settings(max_examples=100)
    def test_random_formula_round_trip(self, data):
        n = data.draw(st.integers(1, 8))
        lit = st.integers(-n, n).filter(lambda x: x != 0)
        raw = data.draw(st.lists(st.lists(lit, max_size=5), max_size=10))
        f = build_formula(n, raw)
        assert parse_dimacs(to_dimacs(f)) == f


class TestClauseHygiene:
    def test_parsed_clauses_satisfy_invariants(self):
        rng = make_rng(101)
        for _ in range(300):
            n = rng.randint(1, 8)
            raw = random_raw_clauses(rng, n, rng.randint(0, 12))
            f = build_formula(n, raw)
            for clause in f.clauses:
                assert len(clause) > 0
                assert len(set(clause)) == len(clause)
                assert not any(-lit in clause for lit in clause)
                assert all(lit != 0 and abs(lit) <= n for lit in clause)

    def test_normalization_preserves_satisfiability(self):
        # raw clause sets with duplicates/tautologies vs normalized formula,
        # exhaustively decided by two independent brute forces
        rng = make_rng(202)
        for _ in range(300):
            n = rng.randint(1, 4)
            raw = random_raw_clauses(rng, n, rng.randint(0, 8))
            # force tautologies and duplicates into some samples
            if rng.random() < 0.5 and raw:
                raw[0] = raw[0] + [-raw[0][0], raw[0][0]]
            f = build_formula(n, raw)
            expected = raw_brute_force(n, raw)
            got = brute_force(f) is not None and not f.trivially_unsat
            assert got == expected
