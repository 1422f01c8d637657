import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpllsat import ContractError, Trail, check_trail_invariants


def fig2_trail():
    """The three-layer trail reached on the running example:
    [x1, -x2, -x3] / [x4] / [x5]."""
    t = Trail(7)
    t.new_layer()
    t.push_entry(1)
    t.push_entry(-2)
    t.push_entry(-3)
    t.new_layer()
    t.push_entry(4)
    t.new_layer()
    t.push_entry(5)
    return t


def test_negative_variable_count_rejected():
    with pytest.raises(ContractError, match="nonnegative"):
        Trail(-1)


class TestNewLayer:
    def test_first_layer(self):
        t = Trail(3)
        t.new_layer()
        assert t.size == 1
        assert t.starts == [0] and t.assignments == []

    def test_existing_layers_unchanged(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(1)
        t.push_entry(-2)
        t.push_entry(-3)
        t.new_layer()
        assert t.size == 2
        assert t.assignments == [1, -2, -3]
        assert t.starts == [0, 3]

    def test_full_trail_rejected(self):
        t = Trail(2)
        t.new_layer()
        t.push_entry(1)
        t.new_layer()
        t.push_entry(2)
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
        t.push_entry(1)
        assert t.assignments == [1] and t.starts == [0]

    def test_push_order_preserved(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(1)
        t.push_entry(-2)
        t.push_entry(-3)
        assert t.assignments == [1, -2, -3] and t.starts == [0]

    def test_duplicate_variable_rejected(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(1)
        with pytest.raises(ContractError):
            t.push_entry(-1)

    def test_push_without_layer_rejected(self):
        t = Trail(3)
        with pytest.raises(ContractError):
            t.push_entry(1)

    @pytest.mark.parametrize("literal", [True, 1.0])
    def test_non_int_literal_rejected(self, literal):
        # True equals 1 and indexes the flag of literal 1, but it is not
        # a literal code, so the trail invariant would reject it
        t = Trail(3)
        t.new_layer()
        with pytest.raises(ContractError) as raised:
            t.push_entry(literal)
        assert str(raised.value) == "literal %r out of range" % (literal,)
        assert t.assignments == [] and not any(t.is_true)


class TestPopLayer:
    def test_pop_top_of_fig2(self):
        t = fig2_trail()
        assert t.pop_layer() == [5]
        assert t.size == 2
        assert t.assignments == [1, -2, -3, 4]
        assert t.starts == [0, 3]

    def test_pop_single_layer(self):
        t = Trail(7)
        t.new_layer()
        t.push_entry(1)
        t.push_entry(-2)
        t.push_entry(-3)
        assert t.pop_layer() == [1, -2, -3]
        assert t.size == 0

    def test_pop_empty_trail_rejected(self):
        with pytest.raises(ContractError):
            Trail(3).pop_layer()

    def test_pop_empty_layer_rejected(self):
        t = Trail(3)
        t.new_layer()
        with pytest.raises(ContractError, match="last layer is empty"):
            t.pop_layer()
        assert t.starts == [0]

    def test_pop_then_replay_restores_trail(self):
        t = fig2_trail()
        before = (list(t.assignments), list(t.starts))
        literals = t.pop_layer()
        t.new_layer()
        for literal in literals:
            t.push_entry(literal)
        assert (t.assignments, t.starts) == before
        assert check_trail_invariants(t)


class TestInvariants:
    def test_fresh_trail(self):
        assert check_trail_invariants(Trail(4))

    def test_fig2_trail(self):
        assert check_trail_invariants(fig2_trail())

    def test_duplicate_variable_detected(self):
        t = fig2_trail()
        t.assignments.append(-1)  # x1 already in layer 0
        assert not check_trail_invariants(t)

    def test_variable_set_both_ways_detected(self):
        # flags and entries agree, but x1 is on the trail twice
        t = Trail(1)
        t.new_layer()
        t.push_entry(1)
        t.assignments.append(-1)
        t.is_true[-1] = 1
        assert not check_trail_invariants(t)

    def test_more_layers_than_variables_detected(self):
        t = Trail(1)
        t.new_layer()
        t.push_entry(1)
        t.starts.append(1)  # an empty second layer over one variable
        assert not check_trail_invariants(t)

    @pytest.mark.parametrize("entry", [0, 8, -8, (5, True)],
                             ids=["zero", "above", "below", "pair"])
    def test_malformed_entry_detected(self, entry):
        t = fig2_trail()
        t.assignments.append(entry)
        assert not check_trail_invariants(t)

    def test_bool_entry_detected(self):
        t = Trail(1)
        t.new_layer()
        t.push_entry(1)
        assert check_trail_invariants(t)
        t.assignments[0] = True  # equals 1, but is not a literal code
        assert not check_trail_invariants(t)

    def test_gap_layer_detected(self):
        t = fig2_trail()
        t.starts[1] = t.starts[0]  # layer 0 becomes empty
        assert not check_trail_invariants(t)

    def test_stale_unused_layer_detected(self):
        t = fig2_trail()
        t.is_true[7] = 1  # x7 flagged, with no trail entry
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
        current_nonempty = t.size > 0 and t.starts[-1] < len(t)
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
            t.push_entry(variable + 1 if data.draw(st.booleans())
                         else -variable - 1)
        else:
            for literal in t.pop_layer():
                unused.append(abs(literal) - 1)
        assert check_trail_invariants(t)
        assert len(t) <= n
