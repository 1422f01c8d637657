import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

import dpllsat.search
from dpllsat import (TRUE, UNSET, ContractError, SolverState, Tracer,
                     brute_force, build_formula, build_state, check_model,
                     check_state_invariants, choose_literal, complete_model,
                     is_formula_satisfied, is_satisfiable_extend, set_literal,
                     solve, step)
from dpllsat.cli import generate_pigeonhole, generate_queens
from helpers import example1, make_rng, random_formula, solve_formula


class TestChooseLiteral:
    def test_fresh_example1(self):
        s = build_state(example1())
        assert choose_literal(s) == 1

    def test_after_first_layer(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, 1, True)  # propagates x2=F, x3=F
        assert choose_literal(s) == 4

    def test_after_second_layer(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, 1, True)
        s.trail.new_layer()
        set_literal(s, 4, True)
        assert choose_literal(s) == 5

    def test_rejects_satisfied_formula(self):
        s = build_state(build_formula(1, [[1]]))
        s.trail.new_layer()
        set_literal(s, 1, True)
        with pytest.raises(ContractError):
            choose_literal(s)


class TestSetLiteral:
    def test_example1_propagation(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, 1, True)
        assert s.trail.layer(0) == [1, -2, -3]

    def test_no_propagation_when_nothing_is_unit(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, 1, True)
        s.trail.new_layer()
        set_literal(s, 4, True)
        assert s.trail.layer(1) == [4]

    def test_propagation_reaches_satisfying_assignment(self):
        f = build_formula(2, [[1, 2], [-1, 2]])
        s = build_state(f)
        s.trail.new_layer()
        set_literal(s, 1, True)  # clause 2 becomes unit, forces x2
        assert s.truth_assignment == [TRUE, TRUE]
        assert check_model(f, complete_model(s.truth_assignment))

    def test_already_set_rejected(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, 1, True)
        with pytest.raises(ContractError):
            set_literal(s, -1, True)

    @pytest.mark.parametrize("literal", [0, 8, -8])  # example1 has 7 vars
    def test_out_of_range_literal_rejected(self, literal):
        s = build_state(example1())
        s.trail.new_layer()
        with pytest.raises(ContractError):
            set_literal(s, literal, True)

    def test_negative_literal_sets_variable_false(self):
        s = build_state(example1())
        s.trail.new_layer()
        set_literal(s, -3, True)
        assert s.truth_assignment[2] == 0

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("opened, literal", [(False, 1), (True, -8),
                                                 (True, 2)],
                             ids=["no_open_layer", "out_of_range",
                                  "already_set"])
    def test_rejected_literal_changes_nothing(self, opened, literal, checked):
        s = build_state(example1(), checked=checked)
        if opened:
            s.trail.new_layer()
            set_literal(s, 1, True)  # x1, x2 and x3 set
            s.trail.new_layer()
        before, length = s.snapshot(), len(s.trail)
        for value in (True, False):
            with pytest.raises(ContractError):
                set_literal(s, literal, value)
            assert s.snapshot() == before
            assert len(s.trail) == length

    def test_trail_top_is_the_propagation_queue(self, monkeypatch):
        # after each decision its layer holds the decision literal, then the
        # literals of its propagate events in the order they were emitted
        layers = []
        original = dpllsat.search.set_literal

        def recording(state, literal, value):
            original(state, literal, value)
            layers.append(state.trail.layer(state.trail.size - 1))

        monkeypatch.setattr(dpllsat.search, "set_literal", recording)
        rng = make_rng(1212)
        decisions = 0
        for _ in range(150):
            f = random_formula(rng, max_vars=14, max_clauses=50, min_len=2)
            if f.trivially_unsat:
                continue
            tracer = Tracer()
            layers.clear()
            solve_formula(f, tracer=tracer)
            expected = []
            for event in tracer.events:
                if event[0] in ("decide", "propagate"):
                    literal = event[1] + 1 if event[2] else -event[1] - 1
                    if event[0] == "decide":
                        expected.append([])
                    expected[-1].append(literal)
            assert layers == expected
            decisions += len(expected)
        assert decisions > 300

    def test_equisatisfiability_contract(self):
        # final assignment extendable iff pre-assignment with l:=value was
        rng = make_rng(303)
        for _ in range(200):
            f = random_formula(rng, max_vars=8, max_clauses=16)
            if f.trivially_unsat:
                continue
            s = build_state(f)
            literal = None if is_formula_satisfied(s) else choose_literal(s)
            if literal is None:
                continue
            tau_before = list(s.truth_assignment)
            variable = abs(literal) - 1
            tau_before[variable] = 1 if literal > 0 else 0
            s.trail.new_layer()
            set_literal(s, literal, True)
            assert is_satisfiable_extend(f, s.truth_assignment) == \
                is_satisfiable_extend(f, tau_before)


class TestStep:
    def test_example1_first_decision_is_sat_and_restores(self):
        s = build_state(example1(), checked=True)
        before = s.snapshot()
        result = step(s, 1, True)
        assert result.satisfiable
        assert s.snapshot() == before
        assert all(v == UNSET for v in s.truth_assignment)

    def test_conflicting_units(self):
        s = build_state(build_formula(1, [[1], [-1]]), checked=True)
        before = s.snapshot()
        assert not step(s, 1, True).satisfiable
        assert s.snapshot() == before

    def test_unit_formula_both_polarities(self):
        f = build_formula(1, [[1]])
        assert not step(build_state(f), 1, False).satisfiable
        assert step(build_state(f), 1, True).satisfiable

    @pytest.mark.parametrize("literal, message",
                             [(3, "literal 3 out of range"),
                              (-1, "literal -1 is already set"),
                              (True, "literal True out of range"),
                              (1.0, "literal 1.0 out of range")],
                             ids=["out_of_range", "already_set", "bool",
                                  "float"])
    def test_rejected_literal_opens_no_layer(self, literal, message):
        for checked in (False, True):
            s = build_state(build_formula(2, [[1, 2]]), checked=checked)
            s.trail.new_layer()
            set_literal(s, 1, True)  # x1 true, x2 still unset
            before = s.snapshot()
            with pytest.raises(ContractError) as raised:
                step(s, literal, True)
            assert str(raised.value) == message
            assert s.trail.size == 1
            assert step(s, 2, True).satisfiable
            assert s.snapshot() == before


class TestSolve:
    def test_example1_sat_with_default_false_completion(self):
        f = example1()
        result, _ = solve_formula(f)
        assert result.satisfiable
        assert result.model == (True, False, False, True, True, False, False)
        assert check_model(f, result.model)
        # the witness quoted alongside the instance also satisfies it
        assert check_model(f, (True, False, False, True, True, False, True))

    def test_zero_clause_formula(self):
        result, _ = solve_formula(build_formula(2, []))
        assert result.satisfiable
        assert result.model == (False, False)

    def test_unsat(self):
        result, _ = solve_formula(build_formula(2, [[1, 2], [-1], [-2]]))
        assert not result.satisfiable
        assert result.model is None


class TestCompleteModel:
    def test_unset_default_false(self):
        assert complete_model([1, 0, 0, 1, 1, -1, -1]) == \
            (True, False, False, True, True, False, False)

    def test_fully_set_identity(self):
        assert complete_model([1, 0, 1]) == (True, False, True)

    def test_all_unset(self):
        assert complete_model([-1, -1]) == (False, False)


class TestSearchProperties:
    def test_state_restoration_over_random_corpus(self):
        rng = make_rng(404)
        for _ in range(200):
            f = random_formula(rng, max_vars=9, max_clauses=20)
            if f.trivially_unsat:
                continue
            s = build_state(f)
            before = s.snapshot()
            solve(s)
            assert s.snapshot() == before

    def test_recursion_depth_bounded_by_variables(self):
        rng = make_rng(505)
        for _ in range(200):
            f = random_formula(rng, max_vars=9, max_clauses=20)
            if f.trivially_unsat:
                continue
            tracer = Tracer()
            result, _ = solve_formula(f, tracer=tracer)
            depth = max_depth = 0
            for event in tracer.events:
                if event[0] == "decide":
                    depth += 1
                    max_depth = max(max_depth, depth)
                elif event[0] == "backtrack":
                    depth -= 1
            assert max_depth <= f.variables_count
            assert depth == 0

    def test_determinism(self):
        rng = make_rng(606)
        for _ in range(50):
            f = random_formula(rng, max_vars=9, max_clauses=20)
            if f.trivially_unsat:
                continue
            t1, t2 = Tracer(), Tracer()
            r1, _ = solve_formula(f, tracer=t1)
            r2, _ = solve_formula(f, tracer=t2)
            assert r1 == r2
            assert t1.events == t2.events


class TestLemmaProperties:
    def test_lemma_unit_propagation_forced_value_is_the_only_option(self):
        # wherever propagation fires, setting the forced literal false
        # instead leaves no satisfiable extension
        rng = make_rng(707)
        fired = 0
        for _ in range(150):
            f = random_formula(rng, max_vars=10, max_clauses=20)
            if f.trivially_unsat:
                continue
            tracer = Tracer(snapshot_assignments=True)
            solve_formula(f, tracer=tracer)
            for event in tracer.events:
                if event[0] != "propagate":
                    continue
                _, variable, value, _, tau_before = event
                flipped = list(tau_before)
                flipped[variable] = 0 if value else 1
                assert not is_satisfiable_extend(f, flipped)
                fired += 1
        assert fired > 0

    def test_lemma_both_branches_unsat_means_no_extension(self):
        rng = make_rng(808)
        fired = 0
        for _ in range(150):
            f = random_formula(rng, max_vars=10, max_clauses=20)
            if f.trivially_unsat:
                continue
            tracer = Tracer(snapshot_assignments=True)
            solve_formula(f, tracer=tracer)
            for event in tracer.events:
                if event[0] != "branch_unsat":
                    continue
                assert not is_satisfiable_extend(f, list(event[1]))
                fired += 1
        assert fired > 0

    def test_differential_verdicts_small(self):
        rng = make_rng(909)
        for _ in range(300):
            f = random_formula(rng, max_vars=10, max_clauses=25)
            oracle_model = None if f.trivially_unsat else brute_force(f)
            if f.trivially_unsat:
                continue
            result, _ = solve_formula(f)
            assert result.satisfiable == (oracle_model is not None)
            if result.satisfiable:
                assert check_model(f, result.model)


def work_counters(events):
    """(decisions, propagations, conflicts, max depth) of a trace.

    A conflict is a decision that reaches its backtrack with no further
    decision and no model found in between.
    """
    decisions = propagations = conflicts = depth = max_depth = 0
    leaf = False
    for event in events:
        kind = event[0]
        if kind == "propagate":
            propagations += 1
        elif kind == "decide":
            decisions += 1
            depth += 1
            max_depth = max(max_depth, depth)
            leaf = True
        elif kind == "backtrack":
            conflicts += leaf
            leaf = False
            depth -= 1
        elif kind == "sat":
            leaf = False
    return decisions, propagations, conflicts, max_depth


class TestPinnedSearchTree:
    # recorded before the per-node clause scans were replaced by the O(1)
    # conflict count and the open-clause cursor; any change to these
    # numbers is a change of the search tree, not of its speed
    @pytest.mark.parametrize("formula, verdict, counters, kinds", [
        (generate_pigeonhole(6), "UNSAT", (1438, 9058, 720, 15),
         {"decide": 1438, "propagate": 9058, "backtrack": 1438,
          "branch_unsat": 719}),
        (generate_queens(8), "SAT", (50, 416, 24, 8),
         {"decide": 50, "propagate": 416, "backtrack": 50,
          "branch_unsat": 19, "sat": 1}),
        # the php7 and queens16 benchmark workloads
        (generate_pigeonhole(7), "UNSAT", (10078, 70302, 5040, 21),
         {"decide": 10078, "propagate": 70302, "backtrack": 10078,
          "branch_unsat": 5039}),
        (generate_queens(16), "SAT", (3675, 38902, 1833, 26),
         {"decide": 3675, "propagate": 38902, "backtrack": 3675,
          "branch_unsat": 1819, "sat": 1}),
    ], ids=["php6", "queens8", "php7", "queens16"])
    def test_work_counters(self, formula, verdict, counters, kinds):
        tracer = Tracer()
        result, _ = solve_formula(formula, tracer=tracer)
        assert result.verdict == verdict
        assert work_counters(tracer.events) == counters
        assert Counter(event[0] for event in tracer.events) == kinds


class RaisingTracer(Tracer):
    """Tracer that raises on its n-th event."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def emit(self, event):
        super().emit(event)
        if len(self.events) == self.n:
            raise KeyError(event[0])


class LimitTracer(Tracer):
    """Tracer that records the interpreter's recursion limit at each event."""

    def __init__(self):
        super().__init__()
        self.limits = set()

    def emit(self, event):
        self.limits.add(sys.getrecursionlimit())


class TestExceptionSafeSolve:
    def test_timed_out_solve_restores_state(self, monkeypatch):
        formula = generate_queens(8)
        for checked in (False, True):
            state = build_state(formula, checked=checked)
            before = state.snapshot()
            calls = []

            def clock():
                # one call sets the deadline, then one per search node; the
                # 30th node sees the deadline expired
                calls.append(state.trail.size)
                return 0.0 if len(calls) < 31 else 1e9

            with monkeypatch.context() as patch:
                patch.setattr(dpllsat.search, "time",
                              SimpleNamespace(monotonic=clock))
                result = solve(state, time_limit=1.0)
            assert result.verdict == "UNKNOWN" and result.model is None
            assert calls[-1] > 0  # the deadline struck with layers open
            assert state.snapshot() == before
            assert check_state_invariants(state)
            result = solve(state)
            assert result.verdict == "SAT"
            assert check_model(formula, result.model)
            assert state.snapshot() == before

    @pytest.mark.parametrize("checked", [False, True])
    def test_expired_deadline_in_step_restores_state(self, checked):
        formula = generate_queens(4)
        state = build_state(formula, checked=checked)
        before = state.snapshot()
        result = step(state, 1, True, deadline=time.monotonic() - 1)
        assert result.verdict == "UNKNOWN" and result.model is None
        assert state.snapshot() == before
        assert check_state_invariants(state)
        result = solve(state)
        assert result.verdict == "SAT"
        assert check_model(formula, result.model)

    @pytest.mark.parametrize("formula", [generate_pigeonhole(4),
                                         generate_queens(6), example1()],
                             ids=["php4", "queens6", "example1"])
    def test_timed_out_events_close_every_open_layer(self, formula,
                                                     monkeypatch):
        # the deadline expires at each node in turn, and then at none: the
        # events up to that node are the full run's, then one backtrack
        # per open layer
        reference = Tracer(snapshot_assignments=True)
        expected, _ = solve_formula(formula, tracer=reference)
        nodes = 1 + sum(event[0] == "decide" for event in reference.events)
        for deadline_node in range(1, nodes + 2):
            state = build_state(formula)
            state.tracer = Tracer(snapshot_assignments=True)
            seen = []  # (events so far, trail size) per clock call

            def clock():
                seen.append((len(state.tracer.events), state.trail.size))
                return 0.0 if len(seen) <= deadline_node else 1e9

            with monkeypatch.context() as patch:
                patch.setattr(dpllsat.search, "time",
                              SimpleNamespace(monotonic=clock))
                result = solve(state, time_limit=1.0)
            events = state.tracer.events
            if deadline_node <= nodes:
                assert len(seen) == deadline_node + 1
                count, size = seen[-1]
                assert result.verdict == "UNKNOWN"
                assert events[:count] == reference.events[:count]
                assert events[count:] == [("backtrack", level)
                                          for level in range(size - 1, -1,
                                                             -1)]
            else:  # no node saw the deadline expired
                assert len(seen) == deadline_node
                assert result == expected
                assert events == reference.events
            assert state.trail.size == 0

    @pytest.mark.parametrize("checked", [False, True])
    def test_exception_from_tracer_restores_state(self, checked):
        formula = generate_queens(4)  # 45 events, with every kind
        reference = Tracer()
        expected, _ = solve_formula(formula, tracer=reference)
        kinds = set()
        for n in range(1, len(reference.events) + 1):
            state = build_state(formula, checked=checked)
            before = state.snapshot()
            state.tracer = RaisingTracer(n)
            with pytest.raises(KeyError) as raised:
                solve(state)
            kinds.add(raised.value.args[0])
            assert state.snapshot() == before
            assert check_state_invariants(state)
            state.tracer = None
            assert solve(state) == expected
        assert kinds == {"decide", "propagate", "backtrack", "branch_unsat",
                         "sat"}

    def test_recursion_limit_restored(self):
        original = sys.getrecursionlimit()
        for limit in (original, 400):  # 400 is a lowered limit
            sys.setrecursionlimit(limit)
            try:
                for formula, verdict in [(generate_pigeonhole(5), "UNSAT"),
                                         (generate_queens(8), "SAT")]:
                    state = build_state(formula)
                    state.tracer = LimitTracer()
                    assert solve(state).verdict == verdict
                    assert sys.getrecursionlimit() == limit
                    # the limit stays unchanged during the search too
                    assert state.tracer.limits == {limit}
            finally:
                sys.setrecursionlimit(original)


class TestCheckedModeChecks:
    """Checked mode stands in for the paper's static proofs, so each of its
    runtime checks is pinned: deleting any one of them fails a test here."""

    @pytest.mark.parametrize("formula", [generate_pigeonhole(4),
                                         generate_queens(5), example1()],
                             ids=["php4", "queens5", "example1"])
    def test_one_state_check_per_write_and_per_undo(self, formula,
                                                    monkeypatch):
        # the decision write, each forced literal and each undo are checked
        # once each; the search calls no other checked write
        state = build_state(formula, checked=True)
        calls = []
        original = SolverState.assert_valid

        def counting(self):
            calls.append(None)
            original(self)

        monkeypatch.setattr(SolverState, "assert_valid", counting)
        state.tracer = Tracer()
        solve(state)
        kinds = Counter(event[0] for event in state.tracer.events)
        assert kinds["decide"] and kinds["propagate"] and kinds["backtrack"]
        assert len(calls) == (kinds["decide"] + kinds["propagate"]
                              + kinds["backtrack"])

    @pytest.mark.parametrize("formula, verdict",
                             [(generate_pigeonhole(3), "UNSAT"),
                              (generate_queens(5), "SAT")],
                             ids=["php3", "queens5"])
    def test_backtrack_that_restores_nothing_is_rejected(self, formula,
                                                         verdict, monkeypatch):
        # the first undo does nothing; the snapshot comparison must catch
        # it there, before a later write trips over the stale layer
        original = dpllsat.search.undo_last_layer
        undos = []

        def skip_first(state):
            undos.append(None)
            if len(undos) > 1:
                original(state)

        monkeypatch.setattr(dpllsat.search, "undo_last_layer", skip_first)
        state = build_state(formula, checked=True)
        before = state.snapshot()
        with pytest.raises(ContractError,
                           match="^backtrack did not restore the state"):
            solve(state)
        assert state.snapshot() == before
        monkeypatch.undo()
        assert solve(state).verdict == verdict
