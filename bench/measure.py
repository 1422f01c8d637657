"""Measurement loops: end-to-end timings, or spans and work counters.

Imported only after run.py has put this checkout's solver on the path.
"""

import io
import resource
import statistics
from itertools import cycle
from time import perf_counter

import dpllsat.cli
from dpllsat import build_state, parse_dimacs, solve
from dpllsat.cli import EXIT_SAT, EXIT_UNSAT
from dpllsat.oracle import check_model
from spans import HOOKS, PHASES, Spans, WorkCounter

COUNTERS = ("search.decisions", "search.propagations", "search.conflicts",
            "search.max_depth")


class BenchError(Exception):
    """The solver no longer offers what the benchmark measures."""


def parse_model(text, variables):
    """Model from `v` lines, or None unless it is complete and 0-terminated."""
    literals = []
    for line in text.splitlines():
        if line.startswith("v "):
            literals.extend(int(token) for token in line[2:].split())
    if not literals or literals.pop() != 0 or len(literals) != variables:
        return None
    model = [None] * variables
    for literal in literals:
        variable = abs(literal) - 1
        if not 0 <= variable < variables or model[variable] is not None:
            return None
        model[variable] = literal > 0
    return tuple(model)


def answer_ok(instance, code, text):
    if not instance.satisfiable:
        return code == EXIT_UNSAT and "s UNSATISFIABLE" in text.splitlines()
    if code != EXIT_SAT or "s SATISFIABLE" not in text.splitlines():
        return False
    model = parse_model(text, instance.variables)
    return model is not None and check_model(instance.reference_formula(),
                                             model)


class Client:
    """Runs instance files through cli.run and keeps score."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, instance):
        """Wall seconds of one checked cli.run call, or None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            code = dpllsat.cli.run(instance.path, out=out, err=err)
        except Exception as exc:  # one failed instance must not end the run
            self.fail("%s: %r" % (instance.path, exc))
            return None
        wall = perf_counter() - start
        if not answer_ok(instance, code, out.getvalue()):
            self.fail("%s: wrong answer, exit code %r, stderr %r"
                      % (instance.path, code, err.getvalue()[:200]))
            return None
        return wall

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def percentile(values, fraction):
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(instances, seconds, client, samples):
    """Closed loop over the instances until `seconds` have passed."""
    spans = Spans()
    walls, setups, solves = [], [], []
    with spans.installed(PHASES):
        if spans.absent:
            raise BenchError("cli.run no longer calls %s" % spans.absent)
        deadline = perf_counter() + seconds
        for instance in cycle(instances):
            spans.reset()
            wall = client.run(instance)
            if wall is not None:
                if any(spans.calls[name] != 1 for name in PHASES):
                    raise BenchError("expected one call each of %s per "
                                     "cli.run, got %s"
                                     % (PHASES, dict(spans.calls)))
                walls.append(wall)
                setups.append(spans.total_s["cnf.parse_dimacs"]
                              + spans.total_s["state.build_state"])
                solves.append(spans.total_s["search.solve"])
            if perf_counter() >= deadline:
                break
    samples["cli_runs"] = len(walls)
    samples["distinct_instances"] = min(len(walls), len(instances))
    if not walls:
        return {}
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": (statistics.median(walls), "s"),
        "wall_s.p95": (percentile(walls, 0.95), "s"),
        "instances_per_s": (len(walls) / sum(walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (statistics.median(solves), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def count_work(instance):
    """Work counters of one library solve with only a WorkCounter attached."""
    with open(instance.path) as handle:
        state = build_state(parse_dimacs(handle.read()))
    state.tracer = counter = WorkCounter()
    solve(state)
    return counter.totals()


def timed_pass(instances, client):
    """Total wall seconds of one pass over the instances, None on a failure."""
    total = 0.0
    for instance in instances:
        wall = client.run(instance)
        if wall is None:
            return None
        total += wall
    return total


def traced(instances, seconds, client, samples):
    """Untraced passes for a third of the time, then traced passes.

    Each traced pass runs every hook and attaches a WorkCounter to the state
    cli.run builds; its counters must equal those of an unhooked solve.
    """
    reference = [count_work(instance) for instance in instances]
    start = perf_counter()
    plain = []
    while not plain or perf_counter() - start < seconds / 3:
        wall = timed_pass(instances, client)
        if wall is None:
            return {}
        plain.append(wall)

    spans = Spans()
    counted = []
    walls, self_times = [], []
    calls = hits = None  # identical in every traced pass
    with spans.installed(HOOKS):
        hooked_solve = dpllsat.cli.solve

        def solve_counted(state, *args, **kwargs):
            state.tracer = counter = WorkCounter()
            counted.append(counter)
            return hooked_solve(state, *args, **kwargs)

        dpllsat.cli.solve = solve_counted
        try:
            while not walls or perf_counter() - start < seconds:
                spans.reset()
                counted.clear()
                wall = timed_pass(instances, client)
                if wall is None:
                    return {}
                work = [counter.totals() for counter in counted]
                if work != reference:
                    client.fail("traced counters %s differ from untraced %s"
                                % (work[:3], reference[:3]))
                    return {}
                if calls is None:
                    calls, hits = dict(spans.calls), dict(spans.true_results)
                elif calls != spans.calls or hits != spans.true_results:
                    client.fail("call counts differ between traced passes")
                    return {}
                walls.append(wall)
                self_times.append(dict(spans.self_s))
        finally:
            dpllsat.cli.solve = hooked_solve
    samples.update(plain_passes=len(plain), traced_passes=len(walls),
                   instances_per_pass=len(instances), absent=spans.absent)

    metrics = {}
    for name in HOOKS:
        if name in spans.absent:
            continue
        metrics[name + ".calls"] = (calls.get(name, 0), "count")
        if name == "oracle.check_model":
            # The independent checker is no optimisation target, and php7
            # (UNSAT) never calls it, so its time would read a constant 0.
            continue
        metrics[name + ".self_s"] = (statistics.median(
            times.get(name, 0.0) for times in self_times), "s")
    checks = calls.get("state.has_empty_clause", 0)
    if checks:
        metrics["state.has_empty_clause.hit_ratio"] = (
            hits.get("state.has_empty_clause", 0) / checks, "ratio")
    decisions, propagations, conflicts, _ = map(sum, zip(*reference))
    for name, value in zip(COUNTERS, (decisions, propagations, conflicts,
                                      max(work[3] for work in reference))):
        metrics[name] = (value, "count")
    metrics["search.conflicts_per_decision"] = (
        conflicts / decisions if decisions else 0.0, "ratio")
    metrics["trace.overhead"] = (
        statistics.median(walls) / statistics.median(plain), "ratio")
    return metrics
