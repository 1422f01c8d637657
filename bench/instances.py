"""Benchmark workloads: DIMACS files with known answers, made from a seed.

Every instance is written to disk before any timing starts; the solver only
ever sees the file.  Each instance keeps its clauses in a compact array so
that a model printed by the solver can be re-checked against the clauses
the generator produced, not against the solver's own parse of the file.
"""

import random
from array import array
from dataclasses import dataclass
from types import SimpleNamespace

from dpllsat import check_model
from dpllsat.cli import generate_pigeonhole, generate_queens

WHY = {
    "php7": "UNSAT pigeonhole, 7 holes: conflict- and undo-heavy, so counter "
            "writes in state and trail push/pop dominate on a small clause "
            "database",
    "queens16": "SAT 16-queens, 6,336 clauses: per-node clause scans "
                "(has_empty_clause) dominate; the largest single parse and "
                "build",
    "planted3sat": "2,000 planted 3-SAT instances (n=60, ratio 4.26) per "
                   "seed: many small solves, so parse, build and CLI I/O "
                   "show; throughput and tail latency",
}

PLANTED_VARIABLES = 60
PLANTED_RATIO = 4.26
# Enough distinct instances that the median and p95 over one run barely
# depend on which seed drew them (a 200-instance set moves its median by
# about 25% from seed to seed).
PLANTED_POOL = 2000
# Instances per traced pass: every traced pass solves exactly these, so
# call counts and work counters are comparable between commits.
PLANTED_PASS = 200


@dataclass(frozen=True)
class Instance:
    path: str
    variables: int
    clauses: int
    satisfiable: bool
    literals: array  # clause literals, each clause terminated by 0

    def reference_formula(self):
        """The generated clauses, shaped as oracle.check_model expects."""
        clauses, current = [], []
        for literal in self.literals:
            if literal:
                current.append(literal)
            else:
                clauses.append(tuple(current))
                current = []
        return SimpleNamespace(variables_count=self.variables,
                               clauses=clauses, trivially_unsat=False)


def planted_3sat(rng):
    """Random 3-SAT clauses kept only if a hidden model satisfies them.

    Drawing the sign pattern uniformly from the seven patterns the hidden
    model satisfies is the same distribution as drawing all eight and
    rejecting the falsified one (Achlioptas, Gomes, Kautz and Selman 2000).
    """
    variables = PLANTED_VARIABLES
    hidden = [rng.random() < 0.5 for _ in range(variables)]
    clauses = []
    for _ in range(round(PLANTED_RATIO * variables)):
        # bit k of `agree` set: literal k is true under the hidden model
        agree = rng.randrange(1, 8)
        clause = []
        for k, variable in enumerate(rng.sample(range(variables), 3)):
            positive = hidden[variable] == bool(agree >> k & 1)
            clause.append(variable + 1 if positive else -variable - 1)
        clauses.append(clause)
    formula = SimpleNamespace(variables_count=variables, clauses=clauses,
                              trivially_unsat=False)
    if not check_model(formula, tuple(hidden)):
        raise AssertionError("planted model does not satisfy its formula")
    return variables, clauses


def _generate(workload, seed, count):
    """Yield (variables, clauses, satisfiable) one instance at a time."""
    if workload == "php7":
        formula = generate_pigeonhole(7)
        yield formula.variables_count, formula.clauses, False
    elif workload == "queens16":
        formula = generate_queens(16)
        yield formula.variables_count, formula.clauses, True
    elif workload == "planted3sat":
        rng = random.Random(seed)
        for _ in range(PLANTED_POOL if count is None else count):
            yield planted_3sat(rng) + (True,)
    else:
        raise ValueError("unknown workload %r" % workload)


def make_instances(workload, seed, directory, count=None):
    """Write the workload's DIMACS files into `directory` and describe them.

    php7 and queens16 are single fixed instances; the seed picks the
    planted3sat instances.  `count` limits planted3sat to its first `count`
    instances, which are the same whatever the limit.
    """
    instances = []
    generated = _generate(workload, seed, count)
    for index, (variables, clauses, satisfiable) in enumerate(generated):
        path = directory / ("%s-%d-%04d.cnf" % (workload, seed, index))
        literals = array("h")
        lines = ["p cnf %d %d" % (variables, len(clauses))]
        for clause in clauses:
            literals.extend(clause)
            literals.append(0)
            lines.append(" ".join(map(str, clause)) + " 0")
        path.write_text("\n".join(lines) + "\n")
        instances.append(Instance(str(path), variables, len(clauses),
                                  satisfiable, literals))
    return instances
