import itertools
import random

import numpy as np
import pytest

from satscheme import kernels
from satscheme.dyadic import Dyadic
from satscheme.kernels import decode_assignment
from satscheme.oracle import oracle_scan
from satscheme.pseudo_boolean import (
    ExtensionStrategy,
    eval_u,
    extend,
    pb_coefficients,
    polarity_damped_weights,
    resolve_weights,
    serialize_polynomial,
    to_json_dict,
    unsat_count_direct,
)
from satscheme.scheme_core import Scheme, evaluate

from conftest import assignment_profile, random_scheme, scaled_profile

F5_POLY = "8u = 12 + x1 - 2x2 + 2x3 - 3x4 - x1x2 + x1x3 + x2x4 - x3x4 - x1x2x3 - x2x3x4"
GEXT_POLY = "8u = 10 - 4x2 - 2x4 - 2x5 + 2x2x3 + 2x2x5 + 2x3x4"


def test_f5_polynomial_serialization(f5):
    p = pb_coefficients(f5)
    assert serialize_polynomial(p) == F5_POLY
    assert p.scale == 8
    assert eval_u(p, (1, 1, 1, 1)) == Dyadic(1)


def test_f5_eval_all_false(f5):
    p = pb_coefficients(f5)
    assert eval_u(p, (-1, -1, -1, -1)) == Dyadic(2)
    assert unsat_count_direct(f5, (-1, -1, -1, -1)) == 2


def test_f4_solutions_have_zero_u(f4):
    p = pb_coefficients(f4)
    for sol in oracle_scan(f4).solutions:
        assert eval_u(p, sol) == Dyadic(0)


def test_gext_polynomial(gext):
    p = pb_coefficients(gext)
    assert len(p.nu_val) == 0
    assert serialize_polynomial(p) == GEXT_POLY


def test_empty_scheme_coefficients():
    p = pb_coefficients(Scheme.empty(3))
    assert p.const == 0
    assert not p.lam.any()
    assert not p.mu.any() and len(p.nu_val) == 0
    assert serialize_polynomial(p) == "u = 0"


def test_unit_weights_polynomial(f5):
    p = pb_coefficients(f5, "unit")
    assert p.scale == 1
    assert p.const == 5
    assert serialize_polynomial(p).startswith("u = 5")


def test_pb_rejects_wide_clauses():
    s = Scheme.from_rows([[1, 1, 1, 1]])
    with pytest.raises(ValueError, match="3-SAT"):
        pb_coefficients(s)


def test_eval_u_length_mismatch(f5):
    p = pb_coefficients(f5)
    with pytest.raises(ValueError):
        eval_u(p, (1, 1, 1))


def test_weight_validation(f5):
    with pytest.raises(ValueError):
        resolve_weights(f5, "nope")
    with pytest.raises(ValueError):
        resolve_weights(f5, [Dyadic(1)] * 4)
    with pytest.raises(ValueError):
        resolve_weights(f5, [Dyadic(0)] + [Dyadic(1)] * 4)
    damped = polarity_damped_weights(f5)
    vals, e, kind = resolve_weights(f5, damped)
    assert kind == "custom"
    # clause 3 has two negated literals: weight 2**-2 * 2**-2
    assert vals[2] == 1 << (e - 4)


def test_to_json_dict(f5):
    d = to_json_dict(pb_coefficients(f5))
    assert d["scale"] == 8
    assert d["C"] == 12
    assert d["lambda"] == [-1, 2, -2, 3]
    assert d["mu"]["1,2"] == -1
    assert d["nu"]["2,3,4"] == 1
    assert d["polynomial"] == F5_POLY


def test_cancelled_pair_term_is_zero_and_not_printed():
    # (x1 or x2) and (x1 or not x2): the two x1x2 contributions cancel
    p = pb_coefficients(Scheme.from_rows([[1, 1], [1, -1]]))
    assert p.mu.shape == (2, 2) and p.mu[0, 1] == 0
    assert serialize_polynomial(p) == "4u = 2 - 2x1"
    d = to_json_dict(p)
    assert d["mu"] == {} and d["lambda"] == [2, 0]


def test_terms_in_lexicographic_order():
    # triples (1,3,4) and (1,2,5): ordering by the last index would swap them
    p = pb_coefficients(Scheme.from_rows([[1, 0, 1, 1, 0], [1, 1, 0, 0, 1], [0, 1, -1, 0, 0]]))
    assert p.nu_idx.tolist() == [[0, 1, 4], [0, 2, 3]]
    assert serialize_polynomial(p) == (
        "8u = 4 - 2x1 - 3x2 + x3 - x4 - x5 + x1x2 + x1x3 + x1x4 + x1x5"
        " - 2x2x3 + x2x5 + x3x4 - x1x2x5 - x1x3x4"
    )


def test_json_coefficients_are_python_ints(f5):
    d = to_json_dict(pb_coefficients(f5))
    values = [d["scale"], d["C"], *d["lambda"], *d["mu"].values(), *d["nu"].values()]
    assert all(type(v) is int for v in values)


def test_custom_weights_too_spread_for_int64_rejected(f5):
    weights = [Dyadic(1, 60)] + [Dyadic(1)] * (f5.m - 1)
    with pytest.raises(ValueError, match=r"2\*\*53"):
        pb_coefficients(f5, weights)


@pytest.mark.parametrize("kind", ["canonical", "unit", "damped", "custom"])
def test_scaled_profile_is_weighted_violation_sum(kind):
    # scale * u(x) == sum_i (scaled w_i) * 2**k_i * [clause i violated at x]
    rng = random.Random(97)
    for _ in range(40):
        s = random_scheme(rng, n_max=7, m_max=10, empty_row_prob=0.1)
        sizes = [s.row_size(i) for i in range(s.m)]
        if kind == "canonical":
            spec, dyadics = kind, [Dyadic.half_pow(k) for k in sizes]
        elif kind == "unit":
            spec, dyadics = kind, [Dyadic(1)] * s.m
        elif kind == "damped":
            spec = dyadics = polarity_damped_weights(s)
        else:
            spec = dyadics = [Dyadic(rng.randint(1, 9), rng.randint(0, 5)) for _ in range(s.m)]
        p = pb_coefficients(s, spec)
        e = max((w.exp for w in dyadics), default=0)
        assert p.scale_exp == e
        scale, vals = scaled_profile(p)
        codes = np.arange(1 << s.n)
        X = ((codes[:, None] >> np.arange(s.n)) & 1) * 2 - 1
        violated = ~((s.cells[None] != 0) & (s.cells[None] == X[:, None])).any(axis=2)
        per_clause = np.array([w.scaled(e) << k for w, k in zip(dyadics, sizes)], dtype=np.int64)
        assert scale == 1 << e
        assert np.array_equal(vals, violated.astype(np.int64) @ per_clause)


def test_eval_u_equals_direct_count_exhaustive():
    rng = random.Random(67)
    for _ in range(120):
        s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.05)
        p = pb_coefficients(s)
        scale, vals = scaled_profile(p)
        direct = assignment_profile(s.cells)
        assert np.array_equal(vals, direct * scale)
        # spot-check the exact Dyadic path on a few assignments
        for _ in range(5):
            code = rng.randrange(1 << s.n)
            x = decode_assignment(code, s.n)
            assert eval_u(p, x) == Dyadic(unsat_count_direct(s, x))


def test_u_sum_identity():
    # sum over all x of u(x) == 2**n * sum of weights, exactly
    rng = random.Random(71)
    for _ in range(80):
        s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.05)
        p = pb_coefficients(s)
        scale, vals = scaled_profile(p)
        assert int(vals.sum()) == (1 << s.n) * p.const


def test_zero_u_iff_satisfiable_for_any_positive_weights():
    rng = random.Random(73)
    for _ in range(60):
        s = random_scheme(rng, n_max=6, m_max=9, empty_row_prob=0.05)
        sat = oracle_scan(s).count > 0
        for weights in ("canonical", "unit", polarity_damped_weights(s)):
            p = pb_coefficients(s, weights)
            zero_hit = any(
                eval_u(p, decode_assignment(code, s.n)) == Dyadic(0)
                for code in range(1 << s.n)
            )
            assert zero_hit == sat


def test_unit_weight_flip_parity():
    # flipping one coordinate changes the unit-weight u by an even amount
    rng = random.Random(79)
    for _ in range(60):
        s = random_scheme(rng, n_max=7, m_max=10, empty_row_prob=0.1)
        p = pb_coefficients(s, "unit")
        code = rng.randrange(1 << s.n)
        x = list(decode_assignment(code, s.n))
        before = eval_u(p, x).as_int()
        j = rng.randrange(s.n)
        x[j] = -x[j]
        after = eval_u(p, x).as_int()
        assert (after - before) % 2 == 0


# --- extension ----------------------------------------------------------------

def test_extend_g_flip_first_is_gext(g, gext):
    assert extend(g, ExtensionStrategy.FLIP_FIRST) == gext
    assert extend(g, "first") == gext


def test_extend_no_triples_unchanged():
    s = Scheme.from_rows([[1, -1, 0], [0, 1, 0]])
    assert extend(s) == s


def test_extend_all_strategies_cancel_cubics_and_preserve_models():
    rng = random.Random(83)
    strategies = ("first", "second", "third", "all")
    for _ in range(40):
        s = random_scheme(rng, n_max=6, m_max=8)
        for strat in strategies:
            ext = extend(s, strat)
            assert len(pb_coefficients(ext).nu_val) == 0
            report = oracle_scan(ext)
            if report.solutions:
                for sol in report.solutions:
                    assert evaluate(s, sol)


def test_extend_exhaustive_on_g(g, gext):
    ext = extend(g, ExtensionStrategy.EXHAUSTIVE)
    assert oracle_scan(ext).count > 0
    assert len(pb_coefficients(ext).nu_val) == 0
    # deterministic enumeration starts at all-flip-first, which is already
    # satisfiable here
    assert ext == gext
    # the found extension is one of the per-clause flip combinations
    assert ext.m == g.m * 2
    assert np.array_equal(ext.cells[: g.m], g.cells)
    for i in range(g.m):
        orig = g.cells[i]
        added = ext.cells[g.m + i]
        sup = np.nonzero(orig)[0]
        assert set(np.nonzero(added)[0]) == set(sup)
        prod_orig = int(np.prod(orig[sup]))
        prod_added = int(np.prod(added[sup]))
        assert prod_added == -prod_orig


def test_extend_exhaustive_unsat_raises(f5):
    with pytest.raises(ValueError, match="unsatisfiable"):
        extend(f5, "exhaustive")


def _triples(t, n=4):
    """t three-literal rows over n columns, cycling through supports and a first sign."""
    supports = list(itertools.combinations(range(n), 3))
    rows = []
    for k in range(t):
        row = [0] * n
        a, b, c = supports[k % len(supports)]
        row[a], row[b], row[c] = (1, -1)[(k // len(supports)) % 2], 1, 1
        rows.append(row)
    return Scheme.from_rows(rows, n=n)


def test_extend_exhaustive_budget_refuses_before_any_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned before the budget check")

    monkeypatch.setattr(kernels, "assignment_scan", no_scan)
    # 4**14 extensions of 2**4 assignments: 2**32 > 2**DEFAULT_LIMIT
    with pytest.raises(ValueError, match="4\\*\\*14 \\* 2\\*\\*4 exceeds the budget 2\\*\\*30"):
        extend(_triples(14), ExtensionStrategy.EXHAUSTIVE)


def test_extend_exhaustive_runs_at_the_budget():
    # 4**13 * 2**4 = 2**30 is allowed; all-true satisfies the first extension
    ext = extend(_triples(13), "exhaustive")
    assert ext.m == 26 and evaluate(ext, (1, 1, 1, 1))


def test_extend_sat_of_extension_implies_sat():
    # satisfiable extension -> original satisfiable (never the converse)
    rng = random.Random(89)
    hits = 0
    for _ in range(60):
        s = random_scheme(rng, n_max=6, m_max=8)
        ext = extend(s, "second")
        if oracle_scan(ext).count > 0:
            hits += 1
            assert oracle_scan(s).count > 0
    assert hits > 0
