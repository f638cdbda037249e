import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from satscheme import transforms
from satscheme.checks import (
    VerdictKind,
    check_all_rows_polarity,
    check_clause_mass,
    check_coefficient_bound,
    check_eigen_bounds,
    check_parity,
    check_resolution_chain,
    jacobi_eigenvalues,
    run_all,
)
from satscheme.dyadic import Dyadic
from satscheme.oracle import oracle_scan
from satscheme.pseudo_boolean import eval_u, pb_coefficients, unsat_count_direct
from satscheme.scheme_core import Scheme, evaluate
from satscheme.transforms import assign, drop_subsumed, flip, metavariable_eliminate

from conftest import random_3sat, random_scheme

SAT = VerdictKind.SAT_CERTIFIED
UNSAT = VerdictKind.UNSAT_CERTIFIED
OPEN = VerdictKind.INCONCLUSIVE


# --- polarity -----------------------------------------------------------------

def test_polarity_f4_inconclusive(f4):
    assert check_all_rows_polarity(f4).kind is OPEN  # rows 3 and 4 block it


def test_polarity_after_flip(f4):
    v = check_all_rows_polarity(flip(f4, {0, 2, 3}))
    assert v.kind is SAT
    assert v.evidence["witness"] == (1, 1, 1, 1)
    assert evaluate(flip(f4, {0, 2, 3}), v.evidence["witness"])


def test_polarity_empty_scheme():
    assert check_all_rows_polarity(Scheme.empty(2)).kind is SAT


def test_polarity_negative_side():
    s = Scheme.from_rows([[-1, 0], [0, -1]])
    v = check_all_rows_polarity(s)
    assert v.kind is SAT and v.evidence["witness"] == (-1, -1)


# --- clause mass ----------------------------------------------------------------

def test_clause_mass_f5(f5):
    v = check_clause_mass(f5)
    assert v.kind is OPEN
    assert v.evidence["mass"] == Dyadic(3, 1)


def test_clause_mass_seven_triples():
    import itertools

    rows = [list(signs) for signs in itertools.product((1, -1), repeat=3)][:7]
    v = check_clause_mass(Scheme.from_rows(rows, n=3))
    assert v.kind is SAT and v.evidence["mass"] == Dyadic(7, 3)


def test_clause_mass_empty_scheme_and_empty_clause():
    assert check_clause_mass(Scheme.empty(3)).kind is SAT
    assert check_clause_mass(Scheme.from_rows([[0, 0]])).kind is UNSAT


# --- coefficient bound ------------------------------------------------------------

def test_coefficient_bound_f5(f5):
    v = check_coefficient_bound(pb_coefficients(f5))
    assert v.kind is OPEN
    assert v.evidence["constant"].scaled(3) == 12
    assert v.evidence["mass"].scaled(3) == 14


def test_coefficient_bound_f5_after_x1_false(f5):
    reduced = assign(f5, 0, False)
    v = check_coefficient_bound(pb_coefficients(reduced))
    assert v.kind is UNSAT
    assert v.evidence["constant"].scaled(3) == 11
    assert v.evidence["mass"].scaled(3) == 9


def test_coefficient_bound_empty():
    v = check_coefficient_bound(pb_coefficients(Scheme.empty(2)))
    assert v.kind is OPEN  # 0 < 0 is false


def test_coefficient_bound_flip_invariant():
    rng = random.Random(127)
    for _ in range(40):
        s = random_scheme(rng, n_max=7, m_max=10)
        mask = [j for j in range(s.n) if rng.random() < 0.5]
        a = check_coefficient_bound(pb_coefficients(s))
        b = check_coefficient_bound(pb_coefficients(flip(s, mask)))
        assert a.kind is b.kind
        assert a.evidence["mass"] == b.evidence["mass"]


# --- parity --------------------------------------------------------------------

def test_parity_f5_and_f4(f5, f4):
    v = check_parity(f5)
    assert v.kind is OPEN
    assert v.evidence["u_all_true"] == 4  # only clause 3 fails at all-true
    assert check_parity(f4).kind is OPEN


def test_parity_empty_clause_fires():
    s = Scheme.from_rows([[0, 0], [1, 0]])
    assert check_parity(s).kind is UNSAT


def test_parity_dual_paths_agree_on_randoms():
    rng = random.Random(131)
    for _ in range(200):
        s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.1)
        v = check_parity(s)
        # the direct sum equals the unit-weight expansion at all-true
        via_coeffs = eval_u(pb_coefficients(s, "unit"), (1,) * s.n)
        assert v.evidence["u_all_true"] == via_coeffs.as_int()
        assert (v.kind is UNSAT) == (v.evidence["u_all_true"] % 2 == 1)


# --- eigen bounds -----------------------------------------------------------------

def test_eigen_single_positive_clause():
    s = Scheme.from_rows([[1]])
    v = check_eigen_bounds(s, mode="exact")
    # the lower bound at the satisfying point is exactly zero (no UNSAT
    # certificate) while the upper bound certifies the witness
    assert v.kind is not UNSAT
    assert np.isclose(v.evidence["e_min"], 0.5)


def test_eigen_f5_f4_sound(f5, f4):
    assert check_eigen_bounds(f5, mode="exact").kind is not SAT
    assert check_eigen_bounds(f4, mode="exact").kind is not UNSAT
    assert check_eigen_bounds(f5, mode="relaxed").kind is not SAT
    assert check_eigen_bounds(f4, mode="relaxed").kind is not UNSAT


def test_eigen_mode_guard(f4):
    with pytest.raises(ValueError):
        check_eigen_bounds(f4, mode="bogus")


def test_jacobi_matches_numpy():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8, 12):
        a = rng.normal(size=(n, n))
        sym = (a + a.T) / 2
        got = jacobi_eigenvalues(sym)
        want = np.linalg.eigvalsh(sym)
        assert np.allclose(got, want, atol=1e-10)


def test_rayleigh_sandwich():
    rng = random.Random(137)
    eps = 1e-8
    for _ in range(40):
        s = random_scheme(rng, n_min=2, n_max=8, m_min=1, m_max=10)
        p = pb_coefficients(s)
        mat = 0.5 * p.mu / p.scale
        for j in range(s.n):
            mat[j, j] = p.const / p.scale / s.n
        eigs = jacobi_eigenvalues(mat)
        e_min, e_max = eigs[0], eigs[-1]
        codes = np.arange(1 << s.n, dtype=np.int64)
        X = (((codes[:, None] >> np.arange(s.n)[None, :]) & 1) * 2 - 1).astype(float)
        quad = np.einsum("bi,ij,bj->b", X, mat, X)
        assert (quad >= s.n * e_min - eps).all()
        assert (quad <= s.n * e_max + eps).all()


# --- resolution chain ---------------------------------------------------------------

def test_resolution_chain_paper_orders(f5):
    assert check_resolution_chain(f5, order=[0, 3, 2]).kind is UNSAT
    assert check_resolution_chain(f5, order=[1, 2]).kind is OPEN
    v = check_resolution_chain(Scheme.empty(3))
    assert v.kind is SAT and v.evidence == {"step": 0, "witness": (-1, -1, -1)}


def test_resolution_chain_validates_order(f5):
    with pytest.raises(ValueError):
        check_resolution_chain(f5, order=[0, 0])
    with pytest.raises(ValueError):
        check_resolution_chain(f5, order=[9])


def test_resolution_chain_never_contradicts_oracle():
    rng = random.Random(139)
    for _ in range(300):
        s = random_scheme(rng, n_max=11, m_max=30, empty_row_prob=0.05)
        v = check_resolution_chain(s)
        count = oracle_scan(s).count
        # with the default order the chain eliminates every variable, so
        # within its budget it always decides
        assert v.kind is (SAT if count else UNSAT)
        if v.kind is SAT:
            assert unsat_count_direct(s, v.evidence["witness"]) == 0
        # an explicit order is followed as given and stays sound
        order = rng.sample(range(s.n), rng.randint(0, s.n))
        w = check_resolution_chain(s, order=order)
        assert w.kind is not (UNSAT if count else SAT)
        if w.kind is SAT:
            assert unsat_count_direct(s, w.evidence["witness"]) == 0


def test_resolution_chain_budget_gives_up_before_building(monkeypatch):
    # the engine hands every step's resolvents to _unsubsumed
    def no_resolvents(*args):
        raise AssertionError("resolvents built past the budget")

    monkeypatch.setattr(transforms, "_unsubsumed", no_resolvents)
    # x1 occurs positively in 4 clauses and negatively in 4: 16 resolvents
    rows = []
    for i in range(4):
        pos = [0] * 9
        pos[0], pos[1 + i] = 1, 1
        neg = [0] * 9
        neg[0], neg[5 + i] = -1, 1
        rows += [pos, neg]
    s = Scheme.from_rows(rows)
    v = check_resolution_chain(s, order=[0], row_limit=10)
    assert v.kind is OPEN
    assert v.evidence == {"reason": "clause growth beyond 10", "final_rows": 8}


def test_resolution_chain_picks_least_growth_variable():
    # x1 has |P|*|N| - |P| - |N| = 4 - 4 = 0, x2 and x3 are pure (-1 each),
    # so x2 and x3 go first and take every clause with them
    s = Scheme.from_rows([[1, 1, 0], [1, 0, 1], [-1, 1, 0], [-1, 0, 1]])
    v = check_resolution_chain(s, row_limit=3)
    assert v.kind is SAT and v.evidence["step"] == 2
    assert unsat_count_direct(s, v.evidence["witness"]) == 0


def test_run_all_returns_on_large_random_3sat():
    s = random_3sat(random.Random(151), 26)
    t0 = time.perf_counter()
    run_all(s)
    assert time.perf_counter() - t0 < 20.0


@pytest.mark.parametrize("n", [20, 25])
def test_elimination_decides_random_3sat(n):
    # without subsumption the chain gave up on all four formulas at n = 20
    for seed in range(400, 404):
        s = random_3sat(random.Random(seed), n)
        truth = oracle_scan(s).count > 0
        assert check_resolution_chain(s).kind is (SAT if truth else UNSAT)
        sat, _ = metavariable_eliminate(s)
        assert sat == truth


# --- run_all -------------------------------------------------------------------------

def test_run_all_f5(f5):
    report = run_all(f5)
    assert report.overall is UNSAT
    assert report.checks["resolution_chain"].kind is UNSAT
    assert report.checks["horn"].kind is UNSAT


def test_run_all_f4(f4):
    report = run_all(f4)
    assert report.overall is SAT


def test_run_all_empty():
    assert run_all(Scheme.empty(3)).overall is SAT


def test_run_all_wide_clauses_marked():
    s = Scheme.from_rows([[1, 1, 1, 1]])
    report = run_all(s)
    assert report.checks["coefficient_bound"].kind is OPEN
    assert report.overall is SAT  # polarity certifies


def test_run_all_soundness_battery():
    rng = random.Random(149)
    for _ in range(300):
        s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.05)
        report = run_all(s)  # raises on conflicting certifications
        truth = oracle_scan(s).count > 0
        for name, verdict in report.checks.items():
            if verdict.kind is SAT:
                assert truth, f"{name} certified SAT on an unsatisfiable scheme"
            if verdict.kind is UNSAT:
                assert not truth, f"{name} certified UNSAT on a satisfiable scheme"


# --- the chain's dedupe and numpy.ma ----------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 8, 38, 39, 40, 78, 79, 100])
def test_distinct_rows_keeps_each_row_once(n):
    # the chain dedupes with drop_subsumed: the first copy of each row that
    # no other row strictly subsumes stays, in input order
    rng = np.random.default_rng(n)
    for m in (0, 1, 2, 7, 40):
        base = rng.integers(-1, 2, size=(max(1, m // 3), n), dtype=np.int8)
        cells = base[rng.integers(0, len(base), size=m)]
        # rows that differ only in the last column must stay apart
        if n > 39 and m:
            cells[rng.integers(0, m), n - 1] = 1
            cells[rng.integers(0, m), n - 1] = -1
        got = drop_subsumed(Scheme(cells)).cells
        lits = {r.tobytes(): {(j, v) for j, v in enumerate(r.tolist()) if v} for r in cells}
        kept = [k for k, a in lits.items() if not any(b < a for b in lits.values())]
        assert got.dtype == np.int8 and got.shape[1] == n
        assert [r.tobytes() for r in got] == kept


def test_answer_paths_leave_numpy_ma_unloaded(tmp_path):
    # an extra module on every answer path would raise the benchmark's peak RSS
    script = """
import contextlib, io, random, sys
from satscheme import cli
from satscheme.checks import check_resolution_chain, run_all
from satscheme.counting import count_solutions
from satscheme.fixtures import fixture
from satscheme.minimizer import minimize_u
from satscheme.oracle import oracle_scan
from satscheme.scheme_core import Scheme, emit_dimacs

rng = random.Random(5)
n = 12
rows = []
for _ in range(51):
    row = [0] * n
    for c in rng.sample(range(n), 3):
        row[c] = rng.choice((1, -1))
    rows.append(row)
for s in (fixture("F4"), fixture("F5"), Scheme.from_rows(rows, n=n)):
    run_all(s)
    check_resolution_chain(s)
    minimize_u(s)
    count_solutions(s)
    oracle_scan(s)
    for argv in (["check"], ["minimize"]):
        sys.stdin = io.StringIO(emit_dimacs(s))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
