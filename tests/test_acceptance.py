"""Acceptance gate: every criterion is exercised at its stated tolerance and
prints one PASS/FAIL line (run with -s to see them live)."""

import random
import time
from contextlib import contextmanager

import numpy as np

from satscheme.checks import VerdictKind, check_coefficient_bound, check_resolution_chain, run_all
from satscheme.counting import count_by_cliques, count_solutions, count_via_primes
from satscheme.dyadic import Dyadic
from satscheme.minimizer import minimize_u, s_factor
from satscheme.oracle import oracle_scan
from satscheme.pseudo_boolean import (
    eval_u,
    extend,
    pb_coefficients,
    serialize_polynomial,
    unsat_count_direct,
)
from satscheme.pt_solvers import is_2sat, is_horn, solve_2sat, solve_horn
from satscheme.scheme_core import Scheme, Status, evaluate, status
from satscheme.transforms import (
    accept_facts,
    assign,
    blow_up,
    drop_subsumed,
    flip,
    metavariable_eliminate,
    reduce_read3,
    remove_pure_columns,
    shrink,
    split,
)

from conftest import assignment_profile, random_horn_scheme, random_scheme, scaled_profile


def _copy_extension(s, x):
    """Extend a model over the fresh columns reduce_read3 appends.

    Copies are appended per over-occurring variable in ascending order, one
    fewer than its occurrence count; all carry the original value.
    """
    occ = np.count_nonzero(s.cells, axis=0) if s.m else np.zeros(s.n, dtype=int)
    ext = list(x)
    for v in range(s.n):
        if occ[v] > 3:
            ext.extend([x[v]] * (int(occ[v]) - 1))
    return tuple(ext)


@contextmanager
def criterion(num, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS ({time.perf_counter() - t0:.3f}s) - {description}")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def test_criterion_1_f5_cluster_expansion(f5):
    with criterion(1, "F5 cluster expansion: 0 with partials +16 -24 +9 -1"):
        res, elapsed = _timed(count_solutions, f5)
        assert res.total == 0
        assert res.partials == {0: 16, 1: -24, 2: 9, 3: -1}
        assert elapsed < 1.0


def test_criterion_2_fixture_counts(f4, g):
    with criterion(2, "F4 count 2 with exact models; G count 14"):
        res4, t4 = _timed(count_solutions, f4)
        assert res4.total == 2 and t4 < 1.0
        rep4, t4o = _timed(oracle_scan, f4)
        assert rep4.solutions == ((-1, 1, -1, -1), (1, 1, -1, -1))
        assert t4o < 1.0
        resg, tg = _timed(count_solutions, g)
        assert resg.total == 14 and tg < 1.0


def test_criterion_3_f5_polynomial(f5):
    with criterion(3, "F5 coefficients serialize to the exact 8u polynomial"):
        p = pb_coefficients(f5, "canonical")
        assert (
            serialize_polynomial(p)
            == "8u = 12 + x1 - 2x2 + 2x3 - 3x4 - x1x2 + x1x3 + x2x4 - x3x4 - x1x2x3 - x2x3x4"
        )
        assert eval_u(p, (1, 1, 1, 1)) == Dyadic(1)


def test_criterion_4_g_extension(g, gext):
    with criterion(4, "extend(G) cancels cubics and gives the exact 8u' polynomial"):
        ext = extend(g, "first")
        assert ext == gext
        p = pb_coefficients(ext, "canonical")
        assert len(p.nu_val) == 0
        assert serialize_polynomial(p) == "8u = 10 - 4x2 - 2x4 - 2x5 + 2x2x3 + 2x2x5 + 2x3x4"


def test_criterion_5_minimization(f5, g, gext):
    with criterion(5, "minimize: F5 case-i fix, 11-vs-9 shortcut, u_min 1; G' branch-free"):
        sf = s_factor(f5, 0)
        assert set(sf.table.values()) == {Dyadic(0), Dyadic(1, 1)}
        assert sf.case == "i"
        verdict = check_coefficient_bound(pb_coefficients(assign(f5, 0, False)))
        assert verdict.kind is VerdictKind.UNSAT_CERTIFIED
        assert verdict.evidence["constant"].scaled(3) == 11 and verdict.evidence["mass"].scaled(3) == 9
        out5, t5 = _timed(minimize_u, f5)
        assert t5 < 1.0
        assert out5.u_min == Dyadic(1)
        assert unsat_count_direct(f5, out5.minimizer) == 1
        assert oracle_scan(f5).u_min == 1

        # G': a sign-constant S forces every variable in turn, to a model of G
        cur, forced = gext, []
        while cur.n:
            case = s_factor(cur, 0).case
            assert case in ("i", "ii")
            forced.append(1 if case == "ii" else -1)
            cur = assign(cur, 0, case == "ii")
        assert evaluate(g, forced)
        outg, tg = _timed(minimize_u, gext)
        assert tg < 1.0
        assert outg.u_min == Dyadic(0)
        assert evaluate(g, outg.minimizer)


def test_criterion_6_resolution_and_metavariable(f5):
    with criterion(6, "resolution chain a1,a4,a3 contradicts; splitting chain 5-4-3-2 to UNSAT"):
        verdict = check_resolution_chain(f5, order=[0, 3, 2])
        assert verdict.kind is VerdictKind.UNSAT_CERTIFIED
        sat, chain = metavariable_eliminate(f5)
        assert not sat
        assert [c.m for c in chain] == [5, 4, 3, 2]


def test_criterion_7a_counter_agreement():
    with criterion(7, "(a) cluster count == prime count == oracle count on 500 randoms"):
        rng = random.Random(1009)
        t0 = time.perf_counter()
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.04)
            want = oracle_scan(s).count
            assert count_solutions(s).total == want
            assert count_by_cliques(s).total == want
            assert count_via_primes(s) == want
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7b_polynomial_agreement():
    with criterion(7, "(b) eval_u == direct violation count over all assignments, 500 randoms"):
        rng = random.Random(1013)
        t0 = time.perf_counter()
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.04)
            scale, vals = scaled_profile(pb_coefficients(s))
            assert np.array_equal(vals, assignment_profile(s.cells) * scale)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7c_transformation_invariances():
    with criterion(7, "(c) transformation invariances on 500 randoms"):
        rng = random.Random(1019)
        t0 = time.perf_counter()
        for k in range(500):
            s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.04)
            base = oracle_scan(s)
            sols = set(base.solutions)

            mask = [j for j in range(s.n) if rng.random() < 0.5]
            assert oracle_scan(flip(s, mask)).count == base.count

            assert set(oracle_scan(shrink(s)).solutions) == sols
            assert set(oracle_scan(drop_subsumed(s)).solutions) == sols
            absents = [
                (i, j) for i in range(s.m) for j in range(s.n) if s.cells[i, j] == 0
            ]
            if absents:
                i, j = absents[rng.randrange(len(absents))]
                assert set(oracle_scan(blow_up(s, i, j)).solutions) == sols

            sat = base.count > 0
            reduced, _ = remove_pure_columns(s)
            assert (oracle_scan(reduced).count > 0) == sat
            if s.n:
                var = rng.randrange(s.n)
                res = split(s, var)
                assert (oracle_scan(res.recombined).count > 0) == sat
                for yi in range(res.y.m):
                    for zj in range(res.z.m):
                        a, b = res.y.cells[yi], res.z.cells[zj]
                        clash = (
                            ((a == 1) & (b == -1)) | ((a == -1) & (b == 1))
                        ).any()
                        if not clash:
                            merged = np.where(a != 0, a, b).astype(np.int8)
                            assert any(
                                np.array_equal(merged, res.recombined.cells[r])
                                for r in range(res.recombined.m)
                            )
            faced, _ = accept_facts(s)
            assert (oracle_scan(faced).count > 0) == sat

            r3 = reduce_read3(s)
            occ = np.count_nonzero(r3.cells, axis=0) if r3.m else np.zeros(r3.n)
            assert (occ <= 3).all()
            if r3.n <= 16:
                assert (oracle_scan(r3).count > 0) == sat
            elif sat:
                # large expansion: check the SAT direction via the canonical
                # copy-extension of one model
                x = base.solutions[0]
                assert evaluate(r3, _copy_extension(s, x))

            meta_sat, _ = metavariable_eliminate(s)
            assert meta_sat == sat
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7d_checks_sound():
    with criterion(7, "(d) no check contradicts the oracle on 500 randoms"):
        rng = random.Random(1021)
        t0 = time.perf_counter()
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.04)
            truth = oracle_scan(s).count > 0
            report = run_all(s)
            for name, verdict in report.checks.items():
                if verdict.kind is VerdictKind.SAT_CERTIFIED:
                    assert truth, name
                if verdict.kind is VerdictKind.UNSAT_CERTIFIED:
                    assert not truth, name
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7e_class_solvers():
    with criterion(7, "(e) 2-SAT and Horn verdicts match the oracle, 500 randoms each"):
        rng = random.Random(1031)
        t0 = time.perf_counter()
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, k_max=2, empty_row_prob=0.03)
            res = solve_2sat(s)
            assert is_2sat(s)
            assert res.satisfiable == (oracle_scan(s).count > 0)
            if res.satisfiable:
                assert evaluate(s, res.witness)
        for _ in range(500):
            s = random_horn_scheme(rng, n_max=10, m_max=15)
            assert is_horn(s)
            res = solve_horn(s)
            assert res.satisfiable == (oracle_scan(s).count > 0)
            if res.satisfiable:
                assert evaluate(s, res.witness)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7f_minimizer_exact():
    with criterion(7, "(f) minimize_u equals the oracle minimum on 500 random 3-SAT"):
        rng = random.Random(1033)
        t0 = time.perf_counter()
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.03)
            out = minimize_u(s)
            assert out.u_min == Dyadic(oracle_scan(s).u_min)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_8_u_sum_identity():
    with criterion(8, "sum over x of u(x) == 2**n * sum of clause weights, exactly"):
        rng = random.Random(1039)
        for _ in range(500):
            s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.04)
            p = pb_coefficients(s)
            scale, vals = scaled_profile(p)
            assert int(vals.sum()) == (1 << s.n) * p.const
