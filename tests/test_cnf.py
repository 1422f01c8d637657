import warnings
from dataclasses import FrozenInstanceError
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllsat import (CnfFormula, ContractError, DimacsError, DimacsWarning,
                     brute_force, build_formula, cnf, normalize_clause,
                     parse_dimacs, to_dimacs)
from dimacs_reference import reference_build_formula, reference_parse_dimacs
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

    # int() reads `1_0` as 10 and U+0662 (Arabic-Indic two) as 2
    @pytest.mark.parametrize("text, line", [
        ("p cnf 1_0 1\n1 0\n", 1),
        ("p cnf 10 1\n1_0 0\n", 2),
        ("p cnf \u0662 1\n1 0\n", 1),
        ("c \u0662 is fine here\np cnf 2 1\n\u0662 0\n", 3),
    ], ids=["underscore_header", "underscore_clause", "unicode_header",
            "unicode_clause"])
    def test_non_dimacs_digits_rejected(self, text, line):
        with pytest.raises(DimacsError, match="line %d: " % line):
            parse_dimacs(text)

    def test_leading_plus_accepted(self):
        f = parse_dimacs("p cnf +2 +1\n+1 -2 0\n")
        assert (f.variables_count, f.clauses) == (2, ((1, -2),))

    # lines end at \n, \r\n and \r only; the other characters that
    # str.splitlines breaks at are whitespace within a line
    @pytest.mark.parametrize("text, line", [
        ("p cnf 2 1\n1\x1c2 0\nx\n", 3),
        ("p cnf 2 1\n1\x0b2\x0c0\x1d\x1e\nx\n", 3),
        ("c \x85 and \u2028 in a comment\np cnf 2 1\n1 2 0\nx\n", 4),
        ("p cnf 2 1\r\n1 2 0\r\nx\r\n", 3),
        ("p cnf 2 1\r1 2 0\rx\r", 3),
        ("p cnf 2 1\n\r1 2 0\n\nx\n", 5),
    ], ids=["file_separator", "vertical_tab_form_feed", "comment_nel_ls",
            "crlf", "cr", "lf_cr"])
    def test_line_numbers_count_only_line_breaks(self, text, line):
        with pytest.raises(DimacsError, match="line %d: non-integer token "
                                              "'x'" % line):
            parse_dimacs(text)

    def test_carriage_return_only_file(self):
        assert parse_dimacs("p cnf 2 1\r1 2 0\r").clauses == ((1, 2),)

    def test_non_ascii_whitespace_only_on_blank_lines(self):
        f = parse_dimacs("p cnf 1 1\n\u00a0\u2028\n1 0\n")
        assert f.clauses == ((1,),)
        with pytest.raises(DimacsError, match="line 2: '_' or non-ASCII"):
            parse_dimacs("p cnf 1 1\n1 0\u00a0\n")

    # the first fault in line order is reported, whatever kind it is
    @pytest.mark.parametrize("text, message", [
        ("p cnf 2 1\n1 x 3 0\n", "line 2: non-integer token 'x'"),
        ("p cnf 2 1\n3 x 0\n", "line 2: literal 3 exceeds"),
        ("p cnf 2 2\n1 0\n3 0\n1_0 0\n", "line 3: literal 3 exceeds"),
        ("p cnf 2 2\n1 0\n1_0 0\n3 0\n", "line 3: '_' or non-ASCII"),
        ("p cnf 2 1\n1 0\np cnf 2 1\n", "line 3: duplicate 'p cnf'"),
        ("p cnf 2 1\n3 0\np cnf 2 1\n", "line 2: literal 3 exceeds"),
        ("1 0\np cnf x 1\n", "line 1: clause data before 'p cnf'"),
        ("c x\n\np cnf x 1\n1 0\n", "line 3: non-integer counts"),
        ("p cnf 2 1\n1 2\nc end\n\n", "line 4: last clause lacks"),
        ("p cnf 2 1\n1 2\n%\n0\n", "line 3: last clause lacks"),
        ("c only\n%\np cnf 1 1\n", "missing 'p cnf' header"),
        ("p cnf 2 1_\n1 0\n", "line 1: '_' or non-ASCII"),
        ("p cnf 2 1\n1 0\np cnf 2\xa01\n", "line 3: '_' or non-ASCII"),
        ("p cnf 2 1\n1 0\np cnf 2 1\xa0\n", "line 3: '_' or non-ASCII"),
        ("p cnf 2 1\n1 2", "line 2: last clause lacks"),
        ("p cnf 2 1\n1 2\n\n\nc x", "line 5: last clause lacks"),
    ])
    def test_first_fault_is_reported(self, text, message):
        with pytest.raises(DimacsError) as caught:
            parse_dimacs(text)
        assert str(caught.value).startswith(message)

    @pytest.mark.parametrize("text, quoted", [
        ("p cnf 2 1\n1 %s 0\n" % ("x" * 50),
         "token '%s'..." % ("x" * 40)),
        ("p cnf 2 1 %s\n" % ("9" * 50),
         "header 'p cnf 2 1 %s'..." % ("9" * 30)),
        ("p cnf 2 1\n1 2 \xe9%s\n" % ("0" * 50),
         "in '1 2 \xe9%s'..." % ("0" * 35)),
    ])
    def test_message_quotes_at_most_40_characters(self, text, quoted):
        with pytest.raises(DimacsError) as caught:
            parse_dimacs(text)
        assert str(caught.value).endswith(quoted)

    def test_faults_across_batches(self):
        # clause data is read in batches of lines; a fault far into the
        # file, and a clause that spans a batch boundary, read as before
        clauses = "".join("%d -%d\n0\n" % (i % 9 + 1, i % 7 + 1)
                          for i in range(20000))
        text = "p cnf 9 20000\n" + clauses
        assert parse_dimacs(text) == reference_parse_dimacs(text)
        with pytest.raises(DimacsError, match="line 40002: literal 10 "):
            parse_dimacs(text + "10 0\n")


class TestUncheckedConstructor:
    """parse_dimacs and build_formula build their formula without
    CnfFormula's checks; it must not differ from one built with them."""

    @pytest.mark.parametrize("formula", [
        parse_dimacs("p cnf 3 3\n1 -2 0\n2 2 3 0\n1 -1 0\n"),
        parse_dimacs("p cnf 2 2\n0\n1 0\n"),
        build_formula(3, [[1, -2], [2, 2, 3], [1, -1]]),
        build_formula(0, []),
    ])
    def test_equal_to_a_checked_formula(self, formula):
        checked = CnfFormula(formula.variables_count, formula.clauses,
                             formula.trivially_unsat)
        assert formula == checked
        assert hash(formula) == hash(checked)
        assert repr(formula) == repr(checked)
        with pytest.raises(FrozenInstanceError):
            formula.clauses = ()


class TestFirstErrorReported:
    """CnfFormula and build_formula name the same fault as a check of each
    clause and literal in order would."""

    @pytest.mark.parametrize("clauses, message", [
        (((1,), (3, 0)), "literal 3 out of range"),
        (((1,), ()), "stored clauses must be nonempty"),
        (((3,), ()), "literal 3 out of range"),
        (((), (3,)), "stored clauses must be nonempty"),
        (((1, -2), (0,)), "literal 0 out of range"),
    ])
    def test_formula(self, clauses, message):
        with pytest.raises(ContractError, match="^%s$" % message):
            CnfFormula(2, clauses)

    def test_build_formula(self):
        with pytest.raises(ValueError, match="^literal 0 out of range for 2 "
                                             "variables$"):
            build_formula(2, [[1], [0, 5]])

    @given(st.integers(0, 3), st.lists(st.lists(st.integers(-4, 4),
                                                max_size=4), max_size=5))
    @settings(max_examples=300)
    def test_formula_matches_per_literal_check(self, n, clauses):
        expected = None
        for clause in clauses:
            if not clause:
                expected = "stored clauses must be nonempty"
            for lit in clause:
                if lit == 0 or abs(lit) > n:
                    expected = "literal %r out of range" % (lit,)
                    break
            if expected:
                break
        try:
            CnfFormula(n, tuple(map(tuple, clauses)))
        except ContractError as error:
            assert str(error) == expected
        else:
            assert expected is None

    @given(st.integers(0, 3), st.lists(st.lists(st.integers(-4, 4),
                                                max_size=4), max_size=5))
    @settings(max_examples=300)
    def test_build_formula_matches_reference(self, n, raw):
        def outcome(build):
            try:
                return build(n, raw)
            except ValueError as error:
                return str(error)
        assert outcome(build_formula) == outcome(reference_build_formula)


# DIMACS tokens and separators, so that generated text often gets past the
# header and into clause data; listed twice below to outweigh st.text()
DIMACS_PIECES = st.sampled_from(["p", "cnf", "c", "%", "0", "1", "-1", "2",
                                 "-3", "12", "-", "+", " ", "\t", "\n",
                                 "\r\n", "p cnf 3 2\n", "_", "\u0662",
                                 "\u00a0", "\x0c", "\x1c", "\r", "+1",
                                 "00", "-0", "p cnf 2 1\n", "\x0b", "\x85",
                                 "\u2028"])
DIMACS_LIKE = st.builds(
    "".join, st.lists(st.one_of(DIMACS_PIECES, DIMACS_PIECES, st.text(
        max_size=3)), max_size=40))


@given(st.one_of(st.text(), DIMACS_LIKE,
                 st.builds("p cnf 3 2\n{}".format, DIMACS_LIKE)))
@settings(max_examples=500)
def test_arbitrary_text_parses_or_raises_dimacs_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DimacsWarning)
        try:
            formula = parse_dimacs(text)
        except DimacsError:
            return
    assert isinstance(formula, CnfFormula)


def parse_outcome(parse, text):
    """The formula or the DimacsError message, and the warnings, of one
    parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except DimacsError as error:
            result = str(error)
    return result, [(w.category, str(w.message)) for w in caught]


# Clause data that is mostly well formed, so that the comparison below also
# covers formulas and warnings, not only errors.  A well-formed file is the
# only place where a check that is too loose shows: "1 0\u00a0" must stay
# an error.
CLAUSE_PIECES = st.sampled_from(["1", "-2", "3", "0", "0", " ", " ", "\n",
                                 "\n", "\t", "c x\n", "00", "-0", "+1",
                                 "4", "\u00a0", "\x85", "\u2028", "\x0c",
                                 "\r"])
CLAUSE_LIKE = st.builds("p cnf 3 2\n{}".format, st.builds(
    "".join, st.lists(CLAUSE_PIECES, max_size=40)))


@given(st.one_of(st.text(), DIMACS_LIKE, CLAUSE_LIKE,
                 st.builds("p cnf 3 2\n{}".format, DIMACS_LIKE)),
       st.sampled_from([1, 6, cnf._BATCH_CHARS]))
@settings(max_examples=1000)
def test_parse_matches_reference_parser(text, batch_chars):
    # small batches put batch boundaries inside these short texts
    with mock.patch.object(cnf, "_BATCH_CHARS", batch_chars):
        assert (parse_outcome(parse_dimacs, text)
                == parse_outcome(reference_parse_dimacs, text))


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
