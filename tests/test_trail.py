import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllsat import TRUE, ContractError, Trail, check_trail_invariants


def fig2_trail():
    """The three-layer trail reached on the running example:
    [(x1,T),(x2,F),(x3,F)] / [(x4,T)] / [(x5,T)]."""
    t = Trail(7)
    t.new_layer()
    t.push_entry(0, True)
    t.push_entry(1, False)
    t.push_entry(2, False)
    t.new_layer()
    t.push_entry(3, True)
    t.new_layer()
    t.push_entry(4, True)
    return t


class TestNewLayer:
    def test_first_layer(self):
        t = Trail(3)
        t.new_layer()
        assert t.size == 1
        assert all(t.layer(i) == [] for i in range(t.size))

    def test_existing_layers_unchanged(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(0, True)
        t.push_entry(1, False)
        t.push_entry(2, False)
        t.new_layer()
        assert t.size == 2
        assert t.layer(0) == [(0, True), (1, False), (2, False)]
        assert t.layer(1) == []

    def test_full_trail_rejected(self):
        t = Trail(2)
        t.new_layer()
        t.push_entry(0, True)
        t.new_layer()
        t.push_entry(1, True)
        with pytest.raises(ContractError):
            t.new_layer()

    def test_empty_current_layer_rejected(self):
        t = Trail(3)
        t.new_layer()
        with pytest.raises(ContractError):
            t.new_layer()


class TestPushEntry:
    def test_push_onto_fresh_layer(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(0, True)
        assert t.layer(0) == [(0, True)]

    def test_push_order_preserved(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(0, True)
        t.push_entry(1, False)
        t.push_entry(2, False)
        assert t.layer(0) == [(0, True), (1, False), (2, False)]

    def test_duplicate_variable_rejected(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(0, True)
        with pytest.raises(ContractError):
            t.push_entry(0, False)

    def test_push_without_layer_rejected(self):
        t = Trail(3)
        with pytest.raises(ContractError):
            t.push_entry(0, True)


class TestPopLayer:
    def test_pop_top_of_fig2(self):
        t = fig2_trail()
        assert t.pop_layer() == [(4, True)]
        assert t.size == 2
        assert t.layer(0) == [(0, True), (1, False), (2, False)]
        assert t.layer(1) == [(3, True)]

    def test_pop_single_layer(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(0, True)
        t.push_entry(1, False)
        t.push_entry(2, False)
        assert t.pop_layer() == [(0, True), (1, False), (2, False)]
        assert t.size == 0

    def test_pop_empty_trail_rejected(self):
        with pytest.raises(ContractError):
            Trail(3).pop_layer()

    def test_pop_then_replay_restores_trail(self):
        t = fig2_trail()
        before = [t.layer(i) for i in range(t.size)]
        entries = t.pop_layer()
        t.new_layer()
        for variable, value in entries:
            t.push_entry(variable, value)
        assert [t.layer(i) for i in range(t.size)] == before
        assert check_trail_invariants(t)


class TestInvariants:
    def test_fresh_trail(self):
        assert check_trail_invariants(Trail(4))

    def test_fig2_trail(self):
        assert check_trail_invariants(fig2_trail())

    def test_duplicate_variable_detected(self):
        t = fig2_trail()
        t.assignments.append((0, False))  # x1 already in layer 0
        assert not check_trail_invariants(t)

    def test_gap_layer_detected(self):
        t = fig2_trail()
        t.starts[1] = t.starts[0]  # layer 0 becomes empty
        assert not check_trail_invariants(t)

    def test_stale_unused_layer_detected(self):
        t = fig2_trail()
        t.values[6] = TRUE  # x7 has no trail entry
        assert not check_trail_invariants(t)


@given(st.data())
@settings(max_examples=200)
def test_invariants_hold_under_random_operations(data):
    n = data.draw(st.integers(1, 6))
    t = Trail(n)
    unused = list(range(n))
    steps = data.draw(st.integers(0, 30))
    for _ in range(steps):
        ops = []
        current_nonempty = t.size > 0 and len(t.last_layer()) > 0
        if t.size < n and (t.size == 0 or current_nonempty):
            ops.append("new")
        if t.size > 0 and unused:
            ops.append("push")
        if current_nonempty:
            ops.append("pop")
        if not ops:
            break
        op = data.draw(st.sampled_from(ops))
        if op == "new":
            t.new_layer()
        elif op == "push":
            variable = unused.pop(data.draw(st.integers(0, len(unused) - 1)))
            t.push_entry(variable, data.draw(st.booleans()))
        else:
            for variable, _ in t.pop_layer():
                unused.append(variable)
        assert check_trail_invariants(t)
        assert len(t) <= n
