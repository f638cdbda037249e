import random

import pytest

from satscheme.oracle import oracle_scan
from satscheme.scheme_core import Scheme, evaluate

from conftest import naive_scan, random_scheme


def test_oracle_f4(f4):
    rep = oracle_scan(f4)
    assert rep.count == 2
    assert rep.solutions == ((-1, 1, -1, -1), (1, 1, -1, -1))
    assert rep.u_min == 0
    assert rep.u_histogram[0] == 2


def test_oracle_f5(f5):
    rep = oracle_scan(f5)
    assert rep.count == 0
    assert rep.u_min == 1
    assert rep.solutions == ()
    assert sum(rep.u_histogram.values()) == 16


def test_oracle_g(g):
    assert oracle_scan(g).count == 14


def test_oracle_limit():
    with pytest.raises(ValueError):
        oracle_scan(Scheme.empty(31))
    assert oracle_scan(Scheme.empty(31), limit=31).count == 1 << 31


def test_oracle_empty_and_trivial():
    rep = oracle_scan(Scheme.empty(3))
    assert rep.count == 8 and rep.u_min == 0
    rep0 = oracle_scan(Scheme.empty(0))
    assert rep0.count == 1 and rep0.solutions == ((),)
    rep_empty_clause = oracle_scan(Scheme.from_rows([[0, 0]]))
    assert rep_empty_clause.count == 0 and rep_empty_clause.u_min == 1


def test_oracle_matches_naive_scan():
    rng = random.Random(97)
    for _ in range(80):
        s = random_scheme(rng, n_max=8, m_max=10, empty_row_prob=0.1)
        fast = oracle_scan(s)
        slow = naive_scan(s)
        assert fast.count == slow.count
        assert fast.u_min == slow.u_min
        assert fast.u_histogram == slow.u_histogram
        assert set(fast.solutions) == set(slow.solutions)


def test_oracle_invariants():
    rng = random.Random(101)
    for _ in range(80):
        s = random_scheme(rng, n_max=9, m_max=12, empty_row_prob=0.05)
        rep = oracle_scan(s)
        assert sum(rep.u_histogram.values()) == 1 << s.n
        assert rep.u_histogram.get(0, 0) == rep.count
        assert (rep.u_min == 0) == (rep.count > 0)
        assert len(rep.solutions) == rep.count
        for sol in rep.solutions:
            assert evaluate(s, sol)
        # the witness attains u_min even when unsatisfiable
        from satscheme.pseudo_boolean import unsat_count_direct

        assert unsat_count_direct(s, rep.witness) == rep.u_min
