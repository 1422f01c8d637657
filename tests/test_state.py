import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpllsat.state
from dpllsat import (FALSE, TRUE, UNSET, ContractError, Trail,
                     build_formula, build_state, check_state_invariants,
                     choose_literal, first_open_clause, has_empty_clause,
                     is_formula_satisfied, is_satisfiable_extend,
                     parse_dimacs, set_literal, set_variable, solve,
                     undo_last_layer)
from dpllsat.state import unset_variable
from helpers import example1, make_rng, random_formula


def fresh_example1_state(checked=False):
    return build_state(example1(), checked=checked)


def true_counts(s):
    """True literals per clause, counted from the literal flags."""
    return [sum(s.trail.is_true[literal] for literal in clause)
            for clause in s.formula.clauses]


def false_counts(s):
    """False literals per clause, the paper's falseLiteralsCount, counted
    from the literal flags."""
    return [sum(s.trail.is_true[-literal] for literal in clause)
            for clause in s.formula.clauses]


def fully_false_count(s):
    """Clauses with no literal that is not false."""
    return sum(count == len(clause) for clause, count
               in zip(s.formula.clauses, false_counts(s)))


class TestBuildState:
    def test_occurrence_lists_for_example1(self):
        s = fresh_example1_state()
        assert s.occurrences[2] == [0, 2, 3]  # x2 in clauses 1,3,4
        assert s.occurrences[-1] == [1]       # -x1 in clause 2

    def test_all_counters_zero(self):
        s = fresh_example1_state()
        assert s.trail.is_true == bytearray(2 * 7 + 1)
        # (-1, -2) and (2, -3) hold their sums; the ternary clauses None
        assert s.pair_sum == [None, -3, -1, None, None]
        assert false_counts(s) == [0] * 5
        assert s.conflict is None
        assert s.truth_assignment == [UNSET] * 7
        assert s.trail.size == 0

    def test_occurrence_lists_ascending(self):
        s = fresh_example1_state()
        for indices in s.occurrences:
            assert list(indices) == sorted(set(indices))

    def test_literals_that_never_occur_share_one_empty_tuple(self):
        s = fresh_example1_state()
        assert s.occurrences[-7] == () and s.occurrences[0] == ()
        assert s.occurrences[-7] is s.occurrences[-6] is s.occurrences[0]

    def test_memory_follows_the_literals_that_occur(self):
        # a million declared variables, one of them used: the state costs
        # two flag bytes and two occurrence slots per variable, no list
        formula = parse_dimacs("p cnf 1000000 1\n1 0\n")
        tracemalloc.start()
        try:
            state = build_state(formula)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.occurrences[1] == [0]
        assert peak <= 20 * formula.variables_count

    def test_memory_per_clause(self):
        # one binary-sum slot per clause and the occurrence lists'
        # references; the formula's own clause tuples are built before the
        # trace starts
        clauses = 100000
        formula = parse_dimacs("p cnf 3 %d\n%s" % (clauses,
                                                     "1 2 3 0\n" * clauses))
        tracemalloc.start()
        try:
            build_state(formula)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(formula.clauses) == clauses  # none merged by the parser
        assert peak <= 64 * clauses

    def test_rejects_trivially_unsat(self):
        f = parse_dimacs("p cnf 1 1\n0\n")
        with pytest.raises(ContractError):
            build_state(f)

    def test_checked_build_rejects_a_malformed_trail(self, monkeypatch):
        class ShortFlags(Trail):
            def __init__(self, variables_count):
                super().__init__(variables_count)
                del self.is_true[-1]  # one byte short of 2n+1

        monkeypatch.setattr(dpllsat.state, "Trail", ShortFlags)
        build_state(example1())  # unchecked: nothing looks at the flags
        with pytest.raises(ContractError, match="invariants violated"):
            build_state(example1(), checked=True)


class TestSetVariable:
    def test_fig2_first_assignment(self):
        s = fresh_example1_state(checked=True)
        s.trail.new_layer()
        set_variable(s, 0, True)  # x1 := true
        assert s.trail.is_true[1] and not s.trail.is_true[-1]
        assert true_counts(s) == [1, 0, 0, 0, 0]
        assert false_counts(s)[1] == 1  # clause 2 holds -x1

    def test_fig2_second_assignment(self):
        s = fresh_example1_state(checked=True)
        s.trail.new_layer()
        set_variable(s, 0, True)
        set_variable(s, 1, False)  # x2 := false
        assert false_counts(s)[0] == 1
        assert s.trail.is_true[-2] and not s.trail.is_true[2]
        assert true_counts(s)[1] == 1          # -x2 true in clause 2
        assert false_counts(s)[2] == 1         # clause 3 holds x2
        assert false_counts(s)[3] == 1         # clause 4 holds x2

    def test_already_set_rejected(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        with pytest.raises(ContractError):
            set_variable(s, 0, False)

    def test_checked_write_rejects_a_flag_off_the_trail(self):
        s = fresh_example1_state(checked=True)
        s.trail.new_layer()
        s.trail.is_true[7] = 1  # x7 flagged true, but not on the trail
        with pytest.raises(ContractError, match="invariants violated"):
            set_variable(s, 0, True)

    def test_decrements_unset_count(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        before = s.unset_count
        set_variable(s, 3, True)
        assert s.unset_count == before - 1


# "propagate" makes one literal true and propagates it: set_literal with value True
WRITES = {"set_variable": set_variable, "set_literal": set_literal,
          "propagate": lambda state, literal: set_literal(state, literal, True)}


@pytest.mark.parametrize("write, layer, args, message", [
    ("set_variable", False, (0, True), "no open layer"),
    ("set_literal", False, (1, True), "no open layer"),
    ("set_literal", True, (0, True), "literal 0 out of range"),
    ("set_literal", True, (8, True), "literal 8 out of range"),
    ("set_literal", True, (-8, False), "literal -8 out of range"),
    ("set_variable", True, (-1, True), "literal 0 out of range"),
    ("set_variable", True, (-2, True), "literal -1 out of range"),
    ("set_variable", True, (7, True), "literal 8 out of range"),
    ("set_variable", True, (7, False), "literal -8 out of range"),
    ("set_variable", True, (0, False), "literal -1 is already set"),
    ("set_literal", True, (1, True), "literal 1 is already set"),
    ("set_literal", True, (1, False), "literal -1 is already set"),
    ("propagate", False, (1,), "no open layer"),
    ("propagate", True, (0,), "literal 0 out of range"),
    ("propagate", True, (8,), "literal 8 out of range"),
    ("propagate", True, (-8,), "literal -8 out of range"),
    ("propagate", True, (-1,), "literal -1 is already set"),
    # a literal must be an int: True equals 1, and -True is the int -1
    ("set_literal", True, (True, True), "literal True out of range"),
    ("set_literal", True, (True, False), "literal True out of range"),
    ("set_literal", True, (1.0, True), "literal 1.0 out of range"),
    ("set_variable", True, (1.0, True), "literal 2.0 out of range"),
    ("set_variable", True, (True, True), "variable True out of range"),
])
@pytest.mark.parametrize("checked", [False, True])
def test_rejected_write_changes_nothing(write, layer, args, message, checked):
    # example1 has 7 variables; with a layer open, x1 is already true
    s = fresh_example1_state(checked=checked)
    if layer:
        s.trail.new_layer()
        set_variable(s, 0, True)
    before = s.snapshot()
    with pytest.raises(ContractError) as raised:
        WRITES[write](s, *args)
    assert str(raised.value) == message
    assert s.snapshot() == before


class TestUnsetVariable:
    def test_undo_x5_in_example1(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 4, True)  # x5 in clauses 4 and 5
        assert true_counts(s) == [0, 0, 0, 1, 1]
        undo_last_layer(s)
        assert true_counts(s) == [0, 0, 0, 0, 0]
        assert not s.trail.is_true[5]

    def test_set_then_unset_restores_counters(self):
        s = fresh_example1_state()
        snapshot_before = s.snapshot()
        s.trail.new_layer()
        flags_before = bytes(s.trail.is_true)
        set_variable(s, 1, False)
        undo_last_layer(s)
        assert s.trail.is_true == flags_before
        assert s.conflict is None
        assert s.snapshot() == snapshot_before
        assert s.truth_assignment[1] == UNSET

    def test_never_set_rejected(self):
        s = fresh_example1_state()
        with pytest.raises(ContractError):
            undo_last_layer(s)

    def test_checked_unset_variable_without_pop_rejected(self):
        # x1 is still on the trail, so unset_variable's precondition, that
        # the caller has popped the literal, does not hold
        s = fresh_example1_state(checked=True)
        s.trail.new_layer()
        set_variable(s, 0, True)
        with pytest.raises(ContractError):
            unset_variable(s, 1)

    def test_unchecked_unset_variable_without_pop_rejected(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        before = s.snapshot()
        with pytest.raises(ContractError, match="still on the trail"):
            unset_variable(s, 1)
        assert s.snapshot() == before

    def test_unset_variable_after_pop_restores_snapshot(self):
        # x1 := false empties the unit clause (1), so the recorded
        # conflict is rolled back too
        s = build_state(build_formula(2, [[1], [-1, 2], [1, -2]]))
        before = s.snapshot()
        s.trail.new_layer()
        set_variable(s, 0, False)
        assert s.conflict == 0
        (literal,) = s.trail.pop_layer()
        unset_variable(s, literal)
        assert s.snapshot() == before
        assert check_state_invariants(s)

    @pytest.mark.parametrize("literal", [-5, 5, 7, 0, True],
                             ids=["-5", "5", "7", "0", "True"])
    def test_literal_out_of_range_rejected(self, literal):
        # 2n+1 flag slots for n = 3: -5 and 5 would read the slots of
        # other literals, and 7 lies past the end
        s = build_state(build_formula(3, [[1, 2, 3], [-1, -2]]))
        s.trail.new_layer()
        set_variable(s, 1, False)
        before = s.snapshot()
        with pytest.raises(ContractError, match="literal .* out of range"):
            unset_variable(s, literal)
        assert s.snapshot() == before

    def test_undo_last_layer_after_several_sets_restores_snapshot(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        before = s.snapshot()
        s.trail.new_layer()
        for variable, value in [(1, False), (4, True), (6, False)]:
            set_variable(s, variable, value)
        undo_last_layer(s)
        assert s.snapshot() == before
        assert check_state_invariants(s)


class TestRestore:
    def test_checked_restore_rejects_a_snapshot_of_a_longer_trail(self):
        # the snapshot's flags name x1, which the cut trail no longer holds
        s = fresh_example1_state(checked=True)
        s.trail.new_layer()
        set_variable(s, 0, True)
        later = s.snapshot()
        undo_last_layer(s)
        with pytest.raises(ContractError, match="invariants violated"):
            s.restore(later)


class TestTruthAssignment:
    def test_mutating_the_list_changes_nothing(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        before = s.snapshot()
        flags = bytes(s.trail.is_true)
        tau = s.truth_assignment
        tau[0], tau[1] = FALSE, TRUE
        assert s.snapshot() == before
        assert s.trail.is_true == flags
        assert s.truth_assignment == [TRUE] + [UNSET] * 6

    def test_read_only(self):
        s = fresh_example1_state()
        with pytest.raises(AttributeError):
            s.truth_assignment = [TRUE] * 7


class TestClauseStatus:
    def test_conflict_detected(self):
        f = build_formula(1, [[1], [-1]])
        s = build_state(f)
        s.trail.new_layer()
        set_variable(s, 0, True)
        assert has_empty_clause(s)
        # and indeed no extension of this assignment can work
        assert not is_satisfiable_extend(f, s.truth_assignment)

    def test_example1_full_trace_has_no_conflict(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        for variable, value in [(0, True), (1, False), (2, False)]:
            set_variable(s, variable, value)
        s.trail.new_layer()
        set_variable(s, 3, True)
        s.trail.new_layer()
        set_variable(s, 4, True)
        assert not has_empty_clause(s)
        assert is_formula_satisfied(s)  # x6, x7 still unset

    def test_fresh_state(self):
        s = fresh_example1_state()
        assert not has_empty_clause(s)
        assert not is_formula_satisfied(s)

    def test_single_clause_satisfied(self):
        s = build_state(build_formula(1, [[1]]))
        s.trail.new_layer()
        set_variable(s, 0, True)
        assert is_formula_satisfied(s)

    def test_conflict_count_follows_set_and_unset(self):
        s = build_state(build_formula(2, [[1, 2], [-1], [2]]))
        s.trail.new_layer()
        set_variable(s, 0, True)   # clause 2 fully false
        assert (fully_false_count(s), s.conflict) == (1, 1)
        s.trail.new_layer()
        set_variable(s, 1, False)  # clause 3 fully false too
        assert (fully_false_count(s), s.conflict) == (2, 1)
        undo_last_layer(s)
        assert (fully_false_count(s), s.conflict) == (1, 1)
        undo_last_layer(s)
        assert (fully_false_count(s), s.conflict) == (0, None)
        assert not has_empty_clause(s)

    def test_conflict_of_layer_1_outlives_layer_2(self):
        # layer 1 empties clause 0; propagation on layer 2 empties clause
        # 3, but the field keeps the older conflict until layer 1 goes
        s = build_state(build_formula(3, [[1], [-1, 2], [-2, 3], [-2, -3]]),
                        checked=True)
        s.trail.new_layer()
        set_variable(s, 0, False)
        assert s.conflict == 0
        s.trail.new_layer()
        set_literal(s, 2, True)    # forces x3, which empties clause 3
        assert fully_false_count(s) == 2
        assert s.conflict == 0
        undo_last_layer(s)
        assert s.conflict == 0 and has_empty_clause(s)
        undo_last_layer(s)
        assert s.conflict is None and not has_empty_clause(s)

    def test_propagation_records_the_clause_it_stops_at(self):
        s = build_state(build_formula(3, [[-1, 2], [-1, 3], [-2, -3]]),
                        checked=True)
        s.trail.new_layer()
        set_literal(s, 1, True)    # forces x2 and x3; clause 3 is empty
        assert s.conflict == 2
        undo_last_layer(s)
        assert s.conflict is None


class TestFirstOpenClause:
    def test_example1_cursor(self):
        s = fresh_example1_state(checked=True)
        assert first_open_clause(s) == 0
        s.trail.new_layer()
        set_variable(s, 0, True)   # satisfies clause 1 only
        assert first_open_clause(s) == 1
        assert first_open_clause(s, 1) == 1
        set_variable(s, 1, False)  # satisfies clause 2
        assert first_open_clause(s, 1) == 2

    def test_none_when_all_satisfied(self):
        s = build_state(build_formula(1, [[1]]))
        s.trail.new_layer()
        set_variable(s, 0, True)
        assert first_open_clause(s) is None
        assert first_open_clause(s, 1) is None

    def test_checked_mode_rejects_start_past_an_open_clause(self):
        s = fresh_example1_state(checked=True)
        with pytest.raises(ContractError):
            first_open_clause(s, 1)
        # unchecked mode trusts the caller's cursor
        assert first_open_clause(fresh_example1_state(), 1) == 1

    def test_checked_mode_rejects_a_cursor_out_of_range(self):
        s = fresh_example1_state(checked=True)
        for start in (-1, 6):
            with pytest.raises(ContractError, match="out of range"):
                first_open_clause(s, start)
        with pytest.raises(ContractError, match="out of range"):
            choose_literal(s, -1)
        # every clause satisfied: the scan below start would run off the end
        s = build_state(build_formula(1, [[1]]), checked=True)
        s.trail.new_layer()
        set_variable(s, 0, True)
        assert first_open_clause(s, 1) is None
        with pytest.raises(ContractError, match="out of range"):
            first_open_clause(s, 2)

    def test_unchecked_mode_rejects_a_cursor_out_of_range(self):
        # build_formula(3, [[1, 2], [3]]): a cursor of -1 would name the
        # last clause, and choose_literal would decide from it
        s = build_state(build_formula(3, [[1, 2], [3]]))
        for start in (-1, 3):
            with pytest.raises(ContractError, match="out of range"):
                first_open_clause(s, start)
        with pytest.raises(ContractError, match="out of range"):
            choose_literal(s, -1)
        assert first_open_clause(s, 2) is None


    @pytest.mark.parametrize("checked", [False, True])
    def test_a_cursor_that_is_not_an_int_is_rejected(self, checked):
        s = fresh_example1_state(checked=checked)
        with pytest.raises(ContractError, match="out of range"):
            first_open_clause(s, 1.0)


class TestStateInvariantChecker:
    def test_holds_after_public_operations(self):
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        set_variable(s, 1, False)
        assert check_state_invariants(s)
        undo_last_layer(s)
        assert check_state_invariants(s)

    def test_corrupted_counter_detected(self):
        s = fresh_example1_state()
        s.pair_sum[0] = 0          # clause 1 is ternary, its entry is None
        assert not check_state_invariants(s)

    @pytest.mark.parametrize("table", ["pair_sum", "occurrences"])
    def test_table_corrupted_after_a_check_detected(self, table):
        # the first check caches the tables' derivation from the formula;
        # a change made in place after it still differs from that cache
        s = fresh_example1_state()
        assert check_state_invariants(s)
        if table == "pair_sum":
            s.pair_sum[1] += 1     # clause 2 is (-1, -2), its sum is -3
        else:
            s.occurrences[1].append(1)  # clause 2 does not hold x1
        assert not check_state_invariants(s)
        with pytest.raises(ContractError, match="invariants violated"):
            s.assert_valid()

    def test_corrupted_literal_flag_detected(self):
        s = fresh_example1_state()
        s.trail.is_true[1] = 1   # x1 flagged true, but not on the trail
        assert not check_state_invariants(s)
        s = fresh_example1_state()
        s.trail.new_layer()
        set_variable(s, 0, True)
        s.trail.is_true[-1] = 1  # both polarities of x1 flagged true
        assert not check_state_invariants(s)

    def test_trail_of_another_formula_size_detected(self):
        s = fresh_example1_state()
        s.trail = Trail(8)  # a sound trail, but example1 has 7 variables
        assert not check_state_invariants(s)

    def test_corrupted_conflict_detected(self):
        s = fresh_example1_state()
        s.conflict = 0             # no clause is fully false
        assert not check_state_invariants(s)
        s = build_state(build_formula(2, [[1], [1, 2], [2]]))
        s.trail.new_layer()
        set_variable(s, 0, False)  # clause 1 fully false
        assert s.conflict == 0 and check_state_invariants(s)
        for corrupt in (1, 3, -1):  # not fully false, or out of range
            s.conflict = corrupt
            assert not check_state_invariants(s)

    def test_checked_search_rejects_a_conflict_left_unrecorded(self):
        # the per-write check cannot tell an unrecorded conflict from one
        # propagation has yet to reach; the search's full scan can
        s = build_state(build_formula(2, [[1], [1, 2]]), checked=True)
        s.trail.new_layer()
        set_variable(s, 0, False)
        s.conflict = None
        assert check_state_invariants(s)
        with pytest.raises(ContractError, match="disagrees with a full scan"):
            solve(s)


def test_status_queries_match_scans_on_random_walk():
    # seeded walk of set_variable / undo_last_layer; after every step the
    # derived assignment, the O(1) conflict test and the cursor agree with
    # from-scratch scans
    rng = make_rng(4242)
    steps = 0
    for _ in range(60):
        f = random_formula(rng, min_vars=3, max_vars=12, max_clauses=40,
                           max_len=3)
        if f.trivially_unsat:
            continue
        s = build_state(f)
        for _ in range(80):
            unset = [v for v, t in enumerate(s.truth_assignment)
                     if t == UNSET]
            if s.trail.size and (not unset or rng.random() < 0.3):
                undo_last_layer(s)
            else:
                if s.trail.size == 0 or rng.random() < 0.5:
                    s.trail.new_layer()
                set_variable(s, rng.choice(unset), rng.random() < 0.5)
            implied = [UNSET] * f.variables_count
            for literal in s.trail.assignments:
                implied[abs(literal) - 1] = TRUE if literal > 0 else FALSE
            tau = s.truth_assignment
            assert tau == implied
            # literal v+1 has value tau[v], and -v-1 its flip, UNSET kept
            flip = {TRUE: FALSE, FALSE: TRUE, UNSET: UNSET}
            values = [[tau[lit - 1] if lit > 0 else flip[tau[-lit - 1]]
                       for lit in clause] for clause in f.clauses]
            assert has_empty_clause(s) == any(
                all(v == FALSE for v in vs) for vs in values)
            open_ = [i for i, vs in enumerate(values) if TRUE not in vs]
            first = open_[0] if open_ else None
            assert first_open_clause(s) == first
            assert is_formula_satisfied(s) == (first is None)
            start = rng.randint(0, len(f.clauses) if first is None
                                else first)
            assert first_open_clause(s, start) == first
            assert check_state_invariants(s)
            steps += 1
    assert steps > 3000


def _formula_strategy(draw, st_, max_vars=6, max_clauses=10):
    n = draw(st_.integers(1, max_vars))
    lit = st_.integers(-n, n).filter(lambda x: x != 0)
    raw = draw(st_.lists(st_.lists(lit, min_size=1, max_size=4),
                         max_size=max_clauses))
    return build_formula(n, raw)


@st.composite
def states_with_assignments(draw):
    f = _formula_strategy(draw, st)
    s = build_state(f)
    order = draw(st.permutations(range(f.variables_count)))
    count = draw(st.integers(0, f.variables_count))
    for variable in order[:count]:
        if s.trail.size == 0 or draw(st.booleans()):
            s.trail.new_layer()
        set_variable(s, variable, draw(st.booleans()))
    return s


@given(states_with_assignments())
@settings(max_examples=200)
def test_counters_match_recount_after_random_assignments(s):
    assert check_state_invariants(s)


@given(states_with_assignments(), st.booleans())
@settings(max_examples=200)
def test_set_unset_is_exact_inverse_and_local(s, value):
    unset = [v for v, t in enumerate(s.truth_assignment) if t == UNSET]
    if not unset:
        return
    variable = unset[0]
    snapshot_before = s.snapshot()
    s.trail.new_layer()  # a layer of its own, so that undo reverts just it
    flags_before = bytes(s.trail.is_true)
    counts_before = false_counts(s)
    conflict_before = s.conflict
    set_variable(s, variable, value)
    literal = variable + 1 if value else -variable - 1
    assert [i for i, (a, b) in enumerate(zip(s.trail.is_true,
                                              flags_before)) if a != b] \
        == [literal % len(flags_before)]
    touched = set(s.occurrences[-literal])
    for index in range(len(s.formula.clauses)):
        if index not in touched:
            assert false_counts(s)[index] == counts_before[index]
    undo_last_layer(s)
    assert s.trail.is_true == flags_before
    assert false_counts(s) == counts_before
    assert s.conflict == conflict_before
    assert s.snapshot() == snapshot_before
