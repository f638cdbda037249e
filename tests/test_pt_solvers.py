import random

import pytest

from satscheme.oracle import oracle_scan
from satscheme.pt_solvers import is_2sat, is_horn, solve_2sat, solve_horn
from satscheme.scheme_core import Scheme, evaluate

from conftest import random_horn_scheme, random_scheme, with_empty_columns


def test_class_predicates(f5, g):
    assert not is_2sat(f5)
    assert is_horn(f5)
    assert not is_horn(g)  # first clause has three positive literals
    assert is_2sat(Scheme.empty(0)) and is_horn(Scheme.empty(0))


def test_solve_2sat_pure_columns():
    s = Scheme.from_rows([[1, 0], [0, 1]])
    res = solve_2sat(s)
    assert res.satisfiable and res.witness == (1, 1)


def test_solve_2sat_unsat_square():
    s = Scheme.from_rows([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    res = solve_2sat(s)
    assert not res.satisfiable and res.witness is None


def test_solve_2sat_f4_subformula(f4):
    sub = Scheme(f4.cells[2:4])
    res = solve_2sat(sub)
    assert res.satisfiable
    assert evaluate(sub, res.witness)


def test_solve_2sat_precondition(f5):
    with pytest.raises(ValueError):
        solve_2sat(f5)


def test_solve_2sat_multiple_components():
    # two independent blocks; the probe commit must not lose the second
    s = Scheme.from_rows(
        [[1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, -1], [0, 0, 1, -1]]
    )
    res = solve_2sat(s)
    assert res.satisfiable
    assert evaluate(s, res.witness)


def test_solve_horn_f5_unsat(f5):
    res = solve_horn(f5)
    assert not res.satisfiable


def test_solve_horn_no_facts_all_false():
    s = Scheme.from_rows([[-1, 1, 0], [0, -1, -1]])
    res = solve_horn(s)
    assert res.satisfiable and res.witness == (-1, -1, -1)


def test_solve_horn_single_fact():
    s = Scheme.from_rows([[1, 0]])
    res = solve_horn(s)
    assert res.satisfiable and res.witness == (1, -1)


def test_solve_horn_precondition(g):
    with pytest.raises(ValueError):
        solve_horn(g)


@pytest.mark.parametrize("pad", [None, 1, 7])
def test_solve_2sat_matches_oracle(pad):
    rng = random.Random(151)
    for _ in range(500):
        base = random_scheme(rng, n_max=10, m_max=15, k_max=2, empty_row_prob=0.03)
        s = with_empty_columns(base, pad)  # empty columns leave satisfiability as it is
        res = solve_2sat(s)
        truth = oracle_scan(base).count > 0
        assert res.satisfiable == truth
        if res.satisfiable:
            assert evaluate(s, res.witness)


@pytest.mark.parametrize("pad", [None, 1, 7])
def test_solve_horn_matches_oracle(pad):
    rng = random.Random(157)
    for _ in range(500):
        base = random_horn_scheme(rng, n_max=10, m_max=15)
        s = with_empty_columns(base, pad)  # empty columns leave satisfiability as it is
        res = solve_horn(s)
        truth = oracle_scan(base).count > 0
        assert res.satisfiable == truth
        if res.satisfiable:
            assert evaluate(s, res.witness)


# x1 is pure; then the fact x2 chains to x3 and x4
_PURE_THEN_FACTS = [[1, -1, 0, 0], [0, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 1, -1]]
# the facts x1, x2 leave the negative units not-x3 and not-x4, which all-false satisfies
_NEGATIVE_UNITS = [[1, 0, 0, 0], [-1, 1, 0, 0], [0, 0, -1, 0], [0, -1, 0, -1], [0, 0, 0, -1]]


@pytest.mark.parametrize(
    "solver, rows, expected",
    [
        # column 0 holds no literal; the probe lands on it first and sets it true
        (solve_2sat, [[0, 1, 1], [0, -1, -1]], (True, (1, 1, -1), 3)),
        # two quiet components: the first probe commits, the second block is solved after it
        (
            solve_2sat,
            [[1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, 1, 1], [0, 0, -1, -1], [0, 0, 1, -1]],
            (True, (1, -1, 1, -1), 4),
        ),
        # the probe x1 = true fails, and x1 = false fails with its step still counted
        (solve_2sat, [[1, 1], [1, -1], [-1, 1], [-1, -1]], (False, None, 1)),
        (solve_2sat, _PURE_THEN_FACTS, (True, (1, 1, 1, 1), 4)),
        (solve_horn, _PURE_THEN_FACTS, (True, (1, 1, 1, 1), 4)),
        (solve_horn, _NEGATIVE_UNITS, (True, (1, 1, -1, -1), 2)),
        (solve_2sat, _NEGATIVE_UNITS, (True, (1, 1, -1, -1), 4)),
    ],
    ids=[
        "absent-column-probe", "probe-commit", "both-probes-fail", "pure-then-facts-2sat", "pure-then-facts-horn",
        "negative-units-horn", "negative-units-2sat",
    ],
)
def test_solver_outputs_fixed_cases(solver, rows, expected):
    res = solver(Scheme.from_rows(rows))
    assert (res.satisfiable, res.witness, res.steps) == expected
