"""Interrupt sweeps: a KeyboardInterrupt at any point of `solve` or `step`
leaves a usable state.

A `sys.settrace` hook raises KeyboardInterrupt once, at the k-th trace event
in a frame of a `dpllsat` module, for every k.  A trace function that raises
is removed, so each run is interrupted at exactly one point.  The state is
usable if its invariants hold, its snapshot equals the one taken before the
call, and calling again gives the same verdict and restores it again.

Line events are swept here.  Opcode events (`frame.f_trace_opcodes`) give
about four times as many points, 6-7 s per instance with Python 3.11 on two
cores, so they run as their own CI step:

    PYTHONPATH=src:tests python -c 'import test_interrupts as t;
    t.assert_every_interrupt_is_restored("php3", opcodes=True)'
"""

import sys

import pytest

from dpllsat import (build_state, check_state_invariants, set_literal, solve,
                     step)
from dpllsat.cli import generate_pigeonhole, generate_queens

FORMULAS = {"php3": lambda: generate_pigeonhole(3),
            "queens5": lambda: generate_queens(5)}


def fresh_state(name, checked, outer_layer):
    """A new state of the named formula; with outer_layer, one layer is open
    and holds x1 and what it propagates."""
    state = build_state(FORMULAS[name](), checked=checked)
    if outer_layer:
        state.trail.new_layer()
        set_literal(state, 1, True)
    return state


def step_call(state):
    # x5 is unset below the outer layer of php3 that holds x1
    return step(state, 5, True)


def run_interrupted(call, state, k, opcodes):
    """Run call(state) with KeyboardInterrupt raised at the k-th event in a
    dpllsat frame.  Returns (events seen, the call's result, or None if it
    was interrupted)."""
    kind = "opcode" if opcodes else "line"
    seen = 0

    def local(frame, event, arg):
        nonlocal seen
        if event == kind:
            seen += 1
            if seen == k:
                raise KeyboardInterrupt
        return local

    def on_call(frame, event, arg):
        if not frame.f_globals.get("__name__", "").startswith("dpllsat"):
            return None
        frame.f_trace_opcodes = opcodes
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call(state)
    except KeyboardInterrupt:
        return seen, None
    finally:
        sys.settrace(previous)
    return seen, result


def is_usable(state, entry, verdict, call):
    """Invariants hold, the state is as on entry, and a second call gives
    the same verdict and restores it again."""
    try:
        return (check_state_invariants(state) and state.snapshot() == entry
                and call(state).verdict == verdict
                and state.snapshot() == entry)
    except Exception:
        return False


def sweep(name, call=solve, checked=False, outer_layer=False,
          opcodes=False, stride=1):
    """(usable points, points swept): one run per k-th event, k = 1, 1 +
    stride, ..., up to the event count of an uninterrupted run."""
    events, result = run_interrupted(
        call, fresh_state(name, checked, outer_layer), 0, opcodes)
    assert result is not None and events > 0
    usable = points = 0
    for k in range(1, events + 1, stride):
        state = fresh_state(name, checked, outer_layer)
        entry = state.snapshot()
        assert run_interrupted(call, state, k, opcodes)[1] is None
        points += 1
        usable += is_usable(state, entry, result.verdict, call)
    return usable, points


def assert_every_interrupt_is_restored(name, **options):
    usable, points = sweep(name, **options)
    assert usable == points, "%d of %d interrupt points usable" % (usable,
                                                                  points)
    print("%s %s: %d of %d interrupt points usable"
          % (name, options, usable, points))


@pytest.mark.parametrize("name", ["php3", "queens5"])
def test_interrupted_solve_restores_state(name):
    assert_every_interrupt_is_restored(name)


def test_interrupted_checked_solve_restores_state():
    # checked mode runs about 3.5 times as many lines; every fifth is swept
    assert_every_interrupt_is_restored("php3", checked=True, stride=5)


@pytest.mark.parametrize("checked", [False, True])
def test_interrupted_step_keeps_the_outer_layer(checked):
    # the restore cuts back to the entry trail, so the layer that holds x1
    # stays open and untouched
    assert_every_interrupt_is_restored("php3", call=step_call,
                                       checked=checked, outer_layer=True)
