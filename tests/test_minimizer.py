import random

import numpy as np
import pytest

from satscheme import kernels, minimizer
from satscheme.checks import VerdictKind, check_coefficient_bound
from satscheme.dyadic import Dyadic
from satscheme.minimizer import (
    BranchLimitExceeded,
    minimize_u,
    s_factor,
)
from satscheme.oracle import oracle_scan
from satscheme.pseudo_boolean import eval_u, pb_coefficients
from satscheme.scheme_core import Scheme, evaluate
from satscheme.transforms import assign, reduce_read3

from conftest import random_scheme


# --- swing factors -------------------------------------------------------------

def test_s_factor_f5_var1(f5):
    sf = s_factor(f5, 0)
    assert set(sf.table.values()) == {Dyadic(0), Dyadic(1, 1)}
    assert sf.case == "i"
    assert sf.support == (1, 2)
    assert sf.s_min == Dyadic(0) and sf.s_max == Dyadic(1, 1)


def test_s_factor_f5_after_x1_false(f5):
    reduced = assign(f5, 0, False)  # variables now (a2, a3, a4)
    sf = s_factor(reduced, 0)
    assert sf.case == "ii"
    # S = (-1 + x4 + x3 - x3 x4)/8 takes values {0, -1/2}
    assert set(sf.table.values()) == {Dyadic(0), Dyadic(-1, 1)}


def test_s_factor_gext_var2(gext):
    sf = s_factor(gext, 1)
    assert sf.case == "ii"
    # scaled by 8: -4 + 2 x3 + 2 x5
    assert sf.s_max == Dyadic(0) and sf.s_min == Dyadic(-1)
    assert sf.support == (2, 4)


def test_s_factor_g_all_branching(g):
    for var in range(g.n):
        assert s_factor(g, var).case == "iii"


def test_s_factor_identity_on_randoms():
    from satscheme.kernels import decode_assignment

    rng = random.Random(163)
    for _ in range(60):
        s = random_scheme(rng, n_max=7, m_max=10, m_min=1)
        var = rng.randrange(s.n)
        sf = s_factor(s, var)  # internal identity check runs at all-ones
        p = pb_coefficients(s)
        # independent spot checks of u(+1, y) - u(-1, y) == 2 S(y)
        for _ in range(5):
            code = rng.randrange(1 << s.n)
            x = list(decode_assignment(code, s.n))
            x_plus = list(x)
            x_plus[var] = 1
            x_minus = list(x)
            x_minus[var] = -1
            y = tuple(x[j] for j in sf.support)
            want = Dyadic(2) * sf.table[y]
            assert eval_u(p, x_plus) - eval_u(p, x_minus) == want


def test_s_factor_read3_support_bound():
    rng = random.Random(167)
    for _ in range(40):
        s = reduce_read3(random_scheme(rng, n_max=6, m_max=10))
        for var in range(s.n):
            assert len(s_factor(s, var).support) <= 6


# --- minimize -------------------------------------------------------------------

def test_minimize_f5(f5):
    out = minimize_u(f5)
    assert out.u_min == Dyadic(1)
    assert not out.satisfiable
    assert out.branch_count == 0
    assert out.trace[0] == {"var": 0, "case": "i", "value": -1}
    assert out.shortcut_hits == 1
    ev = out.shortcut_events[0]
    assert ev["constant"].scaled(3) == 11
    assert ev["mass"].scaled(3) == 9
    assert oracle_scan(f5).u_min == 1


def test_minimize_f5_shortcut_off_identical(f5):
    on = minimize_u(f5, shortcut=True)
    off = minimize_u(f5, shortcut=False)
    assert on.u_min == off.u_min == Dyadic(1)
    assert off.shortcut_hits == 0
    assert on.satisfiable == off.satisfiable


def test_minimize_gext_no_branching(gext, g):
    out = minimize_u(gext)
    assert out.u_min == Dyadic(0)
    assert out.satisfiable
    assert out.branch_count == 0
    assert evaluate(gext, out.minimizer)
    assert evaluate(g, out.minimizer)


def test_minimize_g_branches(g):
    out = minimize_u(g)
    assert out.u_min == Dyadic(0)
    assert out.branch_count >= 1
    assert evaluate(g, out.minimizer)


def test_minimize_order_validation(f5):
    with pytest.raises(ValueError):
        minimize_u(f5, order=[0, 1])


def test_minimize_branch_limit(g):
    with pytest.raises(BranchLimitExceeded):
        minimize_u(g, branch_limit=0)


def test_minimize_empty_and_trivial():
    out = minimize_u(Scheme.empty(3))
    assert out.u_min == Dyadic(0) and out.satisfiable
    out2 = minimize_u(Scheme.from_rows([[0, 0]]))
    assert out2.u_min == Dyadic(1) and not out2.satisfiable


def test_minimize_matches_oracle_on_randoms():
    rng = random.Random(173)
    for _ in range(200):
        s = random_scheme(rng, n_max=10, m_max=15, empty_row_prob=0.03)
        out = minimize_u(s)
        rep = oracle_scan(s)
        assert out.u_min == Dyadic(rep.u_min)
        assert eval_u(pb_coefficients(s), out.minimizer) == out.u_min
        assert out.satisfiable == (rep.count > 0)


def test_minimize_shortcut_equivalence_on_randoms():
    rng = random.Random(179)
    for _ in range(80):
        s = random_scheme(rng, n_max=8, m_max=12, empty_row_prob=0.05)
        on = minimize_u(s, shortcut=True)
        off = minimize_u(s, shortcut=False)
        assert on.u_min == off.u_min
        assert on.satisfiable == off.satisfiable


# --- folded child forms ------------------------------------------------------

def _folding_scheme(rng: random.Random) -> Scheme:
    """Random 3-SAT with empty and unit clauses, plus partner rows that flip one
    literal of a clause, so some pair and triple coefficients cancel to zero."""
    s = random_scheme(rng, n_max=8, m_max=14, empty_row_prob=0.1)
    rows = [list(r) for r in s.rows()]
    for row in list(rows):
        lits = [j for j in range(s.n) if row[j]]
        if len(lits) >= 2 and rng.random() < 0.4:
            partner = list(row)
            j = rng.choice(lits)
            partner[j] = -partner[j]
            rows.append(partner)
    return Scheme.from_rows(rows, n=s.n)


def test_fold_equals_rebuilt_child_form():
    rng = random.Random(401)
    pairs_cancelled = triples_cancelled = 0
    for _ in range(400):
        s = _folding_scheme(rng)
        p = pb_coefficients(s)
        var, value = rng.randrange(s.n), rng.choice((-1, 1))
        got = minimizer._fold(p, value, minimizer._terms_on(p, var))
        want = pb_coefficients(assign(s, var, value == 1))
        shift = p.scale_exp - want.scale_exp
        assert shift >= 0
        assert got.n == want.n == s.n - 1
        assert got.scale_exp == p.scale_exp
        assert got.const == want.const << shift
        assert got.lam.tolist() == (want.lam << shift).tolist()
        assert got.mu.tolist() == (want.mu << shift).tolist()
        assert got.nu_idx.tolist() == want.nu_idx.tolist()
        assert got.nu_val.tolist() == (want.nu_val << shift).tolist()
        together = np.abs(s.cells.astype(int)).T @ np.abs(s.cells.astype(int)) != 0
        np.fill_diagonal(together, False)
        pairs_cancelled += int((together & (p.mu == 0)).any())
        supports = {tuple(np.flatnonzero(r)) for r in s.cells if np.count_nonzero(r) == 3}
        triples_cancelled += int(len(supports) > len(p.nu_idx))
    assert pairs_cancelled > 20 and triples_cancelled > 20  # the partner rows cancel terms


def _reference_s_table(p, var):
    tri = (p.nu_idx == var).any(axis=1)
    pairs = p.nu_idx[tri][p.nu_idx[tri] != var].reshape(-1, 2)
    in_support = p.mu[var] != 0
    in_support[pairs] = True
    support = np.flatnonzero(in_support)
    if len(support) > minimizer.SUPPORT_LIMIT:
        raise ValueError(f"S-factor support {len(support)} exceeds limit {minimizer.SUPPORT_LIMIT}")
    codes = np.arange(1 << len(support), dtype=np.int64)
    Y = ((codes[:, None] >> np.arange(len(support))) & 1) * 2 - 1
    pos = np.searchsorted(support, pairs)
    vals = Y @ p.mu[var, support] - (Y[:, pos[:, 0]] * Y[:, pos[:, 1]]) @ p.nu_val[tri]
    return support, vals - p.lam[var]


class _ReferenceSearch:
    """The search as it was before folding: every node materializes its
    reduced scheme with `assign` and rebuilds its form with `pb_coefficients`."""

    def __init__(self, shortcut, branch_limit):
        self.shortcut = shortcut
        self.branch_limit = branch_limit
        self.branch_count = 0
        self.shortcut_hits = 0
        self.events = []

    def run(self, cur, col_ids, order):
        if cur.m == 0:
            return 0, {}, []
        if not col_ids:
            return cur.m, {}, []
        p = pb_coefficients(cur, "canonical")
        if self.shortcut:
            verdict = check_coefficient_bound(p)
            if verdict.kind is VerdictKind.UNSAT_CERTIFIED:
                self.shortcut_hits += 1
                self.events.append(
                    {
                        "constant": verdict.evidence["constant"],
                        "mass": verdict.evidence["mass"],
                        "scale": p.scale,
                        "vars_left": len(col_ids),
                    }
                )
                _, u_min, min_code, _, _ = kernels.assignment_scan(cur.cells)
                values = kernels.decode_assignment(int(min_code), cur.n)
                fixed = {col_ids[j]: values[j] for j in range(cur.n)}
                return int(u_min), fixed, [{"case": "shortcut-scan", "vars_left": len(col_ids)}]
        var = next(v for v in order if v in col_ids)
        local = col_ids.index(var)
        _, vals = _reference_s_table(p, local)
        if vals.min() >= 0:
            case, choices = "i", (-1,)
        elif vals.max() <= 0:
            case, choices = "ii", (1,)
        else:
            case, choices = "iii", (-1, 1)
            self.branch_count += 1
            if self.branch_limit is not None and self.branch_count > self.branch_limit:
                raise BranchLimitExceeded(f"exceeded branch limit {self.branch_limit}; no answer returned")
        best = None
        rest_ids = col_ids[:local] + col_ids[local + 1 :]
        rest_order = [v for v in order if v != var]
        for value in choices:
            child = assign(cur, local, value == 1)
            u_val, fixed, trace = self.run(child, rest_ids, rest_order)
            cand = (u_val, {var: value, **fixed}, [{"var": var, "case": case, "value": value}] + trace)
            if best is None or cand[0] < best[0]:
                best = cand
            if best[0] == 0:
                break
        return best


def _event_keys(events):
    return tuple((repr(e["constant"]), repr(e["mass"]), e["scale"], e["vars_left"]) for e in events)


def _outcome_fields(s, order, shortcut, branch_limit):
    """The six outcome fields (events by Dyadic repr and scale), or the error."""
    try:
        out = minimize_u(s, order=order, shortcut=shortcut, branch_limit=branch_limit)
    except (BranchLimitExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (
        repr(out.u_min),
        out.minimizer,
        out.branch_count,
        out.shortcut_hits,
        out.trace,
        _event_keys(out.shortcut_events),
    )


def _reference_fields(s, order, shortcut, branch_limit):
    search = _ReferenceSearch(shortcut, branch_limit)
    try:
        u_min, fixed, trace = search.run(s, list(range(s.n)), order)
    except (BranchLimitExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return (
        repr(Dyadic(u_min)),
        tuple(fixed.get(j, -1) for j in range(s.n)),
        search.branch_count,
        search.shortcut_hits,
        tuple(trace),
        _event_keys(search.events),
    )


def test_folded_search_matches_per_node_rebuild():
    rng = random.Random(409)
    limited = raised = hits = 0
    for _ in range(1000):
        s = _folding_scheme(rng) if rng.random() < 0.3 else random_scheme(
            rng, n_max=10, m_max=35, k_max=3, empty_row_prob=rng.choice((0.0, 0.05))
        )
        order = list(range(s.n)) if rng.random() < 0.5 else rng.sample(range(s.n), s.n)
        shortcut = rng.random() < 0.7
        branch_limit = rng.choice((None, None, 0, 1, 3))
        want = _reference_fields(s, order, shortcut, branch_limit)
        assert _outcome_fields(s, order, shortcut, branch_limit) == want
        limited += branch_limit is not None
        raised += want[0] == "BranchLimitExceeded"
        hits += len(want) == 6 and want[3] > 0
    assert limited > 200 and raised > 50 and hits > 200


def test_shortcut_event_scale_is_the_reduced_grid_width():
    # x1 = -1 satisfies both clauses with -x1 and empties the unit (x1):
    # the reduced grid is one empty row, scale 2**0, while the folded form
    # is still held at the root's scale 2**3
    s = Scheme.from_rows([[-1, -1, 0, -1], [1, 0, 0, 0], [-1, 0, 0, -1]])
    out = minimize_u(s)
    assert out.shortcut_events == (
        {"constant": Dyadic(1), "mass": Dyadic(0), "scale": 1, "vars_left": 3},
    )
    assert out.trace[0] == {"var": 0, "case": "iii", "value": 1}
    assert out.u_min == Dyadic(0) and out.branch_count == 1


# --- S-table blocks --------------------------------------------------------------

def _star_scheme(k: int) -> Scheme:
    """x1 in k // 2 clauses with distinct partner pairs: S_1 has support k."""
    pairs = k // 2
    n = 1 + 2 * pairs
    rows = []
    for i in range(pairs):
        row = [0] * n
        row[0], row[1 + 2 * i], row[2 + 2 * i] = 1, 1, -1 if i % 2 else 1
        rows.append(row)
    return Scheme.from_rows(rows, n=n)


@pytest.mark.parametrize("block", [1, 7])
def test_s_blocks_equal_unblocked(monkeypatch, block):
    rng = random.Random(419)
    schemes = [random_scheme(rng, n_max=9, m_max=16, m_min=1) for _ in range(40)]
    schemes += [_star_scheme(14), _star_scheme(10)]
    whole = []
    for s in schemes:
        var = 0 if s.n > 12 else rng.randrange(s.n)
        whole.append((var, s_factor(s, var), minimize_u(s), minimize_u(s, shortcut=False)))
    monkeypatch.setattr(minimizer, "S_BLOCK", block)
    for s, (var, sf, on, off) in zip(schemes, whole):
        assert s_factor(s, var) == sf
        assert minimize_u(s) == on
        assert minimize_u(s, shortcut=False) == off


def test_s_table_memory_bounded_at_support_18():
    import tracemalloc

    s = _star_scheme(18)
    assert len(s_factor(_star_scheme(8), 0).support) == 8
    tracemalloc.start()
    try:
        out = minimize_u(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.u_min == Dyadic(0)
    assert peak < 32 * 2**20
