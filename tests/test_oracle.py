import ast
from pathlib import Path

import pytest

from dpllsat import (UNSET, build_formula, brute_force, check_model,
                     is_satisfiable_extend, oracle)
from dpllsat.oracle import OracleCapExceeded
from helpers import example1, make_rng, random_formula


class TestCheckModel:
    def test_example1_paper_witness(self):
        assert check_model(example1(),
                           (True, False, False, True, True, False, True))

    def test_example1_all_false_fails(self):
        assert not check_model(example1(), (False,) * 7)

    def test_zero_clause_formula(self):
        assert check_model(build_formula(2, []), (False, True))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_model(example1(), (True, False))


class TestBruteForce:
    def test_example1_first_lexicographic_model(self):
        model = brute_force(example1())
        # hand-checked: no model has x1=F,x2=F (clauses 1 and 3 clash on x3)
        assert model == (False, True, False, False, False, False, True)
        assert check_model(example1(), model)

    def test_contradiction(self):
        assert brute_force(build_formula(1, [[1], [-1]])) is None

    def test_zero_clause_formula(self):
        assert brute_force(build_formula(2, [])) == (False, False)

    def test_cap_enforced(self):
        # x1 false satisfies it, so the False-first enumeration returns the
        # first assignment it tries
        f = build_formula(25, [[-1]])
        with pytest.raises(OracleCapExceeded):
            brute_force(f)
        assert brute_force(f, cap=25) is not None


class TestIsSatisfiableExtend:
    def test_example1_after_first_layer(self):
        tau = [1, 0, 0, UNSET, UNSET, UNSET, UNSET]
        assert is_satisfiable_extend(example1(), tau)

    def test_contradiction_with_empty_tau(self):
        f = build_formula(1, [[1], [-1]])
        assert not is_satisfiable_extend(f, [UNSET])

    def test_full_model_extends_itself(self):
        f = example1()
        tau = [1, 0, 0, 1, 1, 0, 1]
        assert is_satisfiable_extend(f, tau)


class TestOracleProperties:
    def test_brute_force_models_pass_check_model(self):
        rng = make_rng(111)
        for _ in range(300):
            f = random_formula(rng, max_vars=8, max_clauses=16)
            if f.trivially_unsat:
                continue
            model = brute_force(f)
            if model is not None:
                assert check_model(f, model)

    def test_empty_tau_extension_equals_brute_force(self):
        rng = make_rng(222)
        for _ in range(300):
            f = random_formula(rng, max_vars=8, max_clauses=16)
            if f.trivially_unsat:
                continue
            empty = [UNSET] * f.variables_count
            assert is_satisfiable_extend(f, empty) == \
                (brute_force(f) is not None)

    def test_unsatisfiable_extension_is_monotone(self):
        # once no extension works, refining tau further cannot help
        rng = make_rng(333)
        checked = 0
        for _ in range(300):
            f = random_formula(rng, max_vars=7, max_clauses=16)
            if f.trivially_unsat:
                continue
            n = f.variables_count
            tau = [UNSET] * n
            for variable in range(rng.randint(0, n)):
                tau[variable] = rng.randint(0, 1)
            if is_satisfiable_extend(f, tau):
                continue
            refined = list(tau)
            free = [v for v in range(n) if refined[v] == UNSET]
            for variable in free[:rng.randint(0, len(free))]:
                refined[variable] = rng.randint(0, 1)
            assert not is_satisfiable_extend(f, refined)
            checked += 1
        assert checked > 0


def test_oracle_imports_no_solver_code():
    # the oracle is independent ground truth only if it reuses nothing of
    # the solver, not even a constant
    assert oracle.UNSET == UNSET
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported
                             if name.startswith((".", "dpllsat"))]


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name with a leading underscore belongs to its own module; dunders
    # such as __version__ are public
    paths = sorted(Path(oracle.__file__).parent.glob("*.py"))
    private = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("dpllsat")):
                private += ["%s: %s" % (path.name, alias.name)
                            for alias in node.names
                            if alias.name.startswith("_")
                            and not alias.name.endswith("__")]
    assert len(paths) > 5 and private == []
