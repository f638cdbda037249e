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
from satscheme.pseudo_boolean import eval_u, pb_coefficients, unsat_count_direct
from satscheme.scheme_core import Scheme, evaluate
from satscheme.transforms import assign, reduce_read3

from conftest import random_3sat, random_scheme


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
    assert unsat_count_direct(f5, out.minimizer) == 1
    assert (out.branch_count, out.shortcut_hits) == (3, 1)
    assert oracle_scan(f5).u_min == 1
    # the paper's path: S_1 >= 0 forces x1 = -1 (case i), and then the
    # coefficient mass 9 stays below the constant 11 (at scale 2**3)
    assert s_factor(f5, 0).case == "i"
    verdict = check_coefficient_bound(pb_coefficients(assign(f5, 0, False)))
    assert verdict.kind is VerdictKind.UNSAT_CERTIFIED
    assert verdict.evidence["constant"].scaled(3) == 11
    assert verdict.evidence["mass"].scaled(3) == 9


def test_minimize_gext_no_branching(gext, g):
    # the paper's search fixes every variable of G' by a sign-constant S
    reference = _ReferenceSearch(shortcut=True)
    assert reference.run(gext, list(range(gext.n)), list(range(gext.n)))[0] == 0
    assert reference.branch_count == 0
    out = minimize_u(gext)
    assert out.u_min == Dyadic(0)
    assert out.satisfiable
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


def test_minimize_matches_oracle_in_random_orders():
    rng = random.Random(431)
    satisfiable = 0
    for _ in range(1000):
        s = random_scheme(rng, n_max=10, m_max=35, empty_row_prob=rng.choice((0.0, 0.05)))
        order = list(range(s.n)) if rng.random() < 0.5 else rng.sample(range(s.n), s.n)
        out = minimize_u(s, order=order)
        assert out.u_min == Dyadic(oracle_scan(s).u_min)
        assert unsat_count_direct(s, out.minimizer) == out.u_min
        satisfiable += out.satisfiable
    assert 200 < satisfiable < 800


def test_branch_limit_stops_exactly_past_the_count():
    rng = random.Random(433)
    branched = 0
    for _ in range(300):
        s = random_scheme(rng, n_max=10, m_max=35, empty_row_prob=0.05)
        out = minimize_u(s, branch_limit=None)
        assert minimize_u(s, branch_limit=out.branch_count) == out
        if out.branch_count:
            branched += 1
            with pytest.raises(BranchLimitExceeded, match=f"exceeded branch limit {out.branch_count - 1};"):
                minimize_u(s, branch_limit=out.branch_count - 1)
    assert branched > 200


# --- the paper's S-factor search as a reference ------------------------------

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


def test_minimize_on_cancelling_partner_rows():
    rng = random.Random(401)
    for _ in range(400):
        s = _folding_scheme(rng)
        out = minimize_u(s)
        assert out.u_min == Dyadic(oracle_scan(s).u_min)
        assert unsat_count_direct(s, out.minimizer) == out.u_min


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
    """The paper's S-factor search: variables are fixed in `order`, a
    sign-constant S forces its variable, and every node materializes its
    reduced scheme with `assign` and rebuilds its form with `pb_coefficients`.
    With `shortcut`, a subtree whose coefficient mass proves u > 0 is
    finished by a scan."""

    def __init__(self, shortcut):
        self.shortcut = shortcut
        self.branch_count = 0

    def run(self, cur, col_ids, order):
        """(least violated-clause count, fixed values) below `cur`."""
        if cur.m == 0:
            return 0, {}
        if not col_ids:
            return cur.m, {}
        p = pb_coefficients(cur, "canonical")
        if self.shortcut and check_coefficient_bound(p).kind is VerdictKind.UNSAT_CERTIFIED:
            _, u_min, min_code, _, _ = kernels.assignment_scan(cur.cells)
            values = kernels.decode_assignment(int(min_code), cur.n)
            return int(u_min), {col_ids[j]: values[j] for j in range(cur.n)}
        var = next(v for v in order if v in col_ids)
        local = col_ids.index(var)
        _, vals = _reference_s_table(p, local)
        if vals.min() >= 0:
            choices = (-1,)
        elif vals.max() <= 0:
            choices = (1,)
        else:
            choices = (-1, 1)
            self.branch_count += 1
        best = None
        rest_ids = col_ids[:local] + col_ids[local + 1 :]
        for value in choices:
            u_val, fixed = self.run(assign(cur, local, value == 1), rest_ids, order)
            if best is None or u_val < best[0]:
                best = (u_val, {var: value, **fixed})
            if best[0] == 0:
                break
        return best


def test_folded_search_matches_per_node_rebuild():
    rng = random.Random(409)
    for _ in range(1000):
        s = _folding_scheme(rng) if rng.random() < 0.3 else random_scheme(
            rng, n_max=10, m_max=35, k_max=3, empty_row_prob=rng.choice((0.0, 0.05))
        )
        order = list(range(s.n)) if rng.random() < 0.5 else rng.sample(range(s.n), s.n)
        out = minimize_u(s, order=order)
        assert unsat_count_direct(s, out.minimizer) == out.u_min
        for shortcut in (True, False):
            want, fixed = _ReferenceSearch(shortcut).run(s, list(range(s.n)), order)
            assert unsat_count_direct(s, [fixed.get(j, -1) for j in range(s.n)]) == want
            assert out.u_min == Dyadic(want)


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
        whole.append((var, s_factor(s, var)))
    monkeypatch.setattr(minimizer, "S_BLOCK", block)
    for s, (var, sf) in zip(schemes, whole):
        assert s_factor(s, var) == sf


def test_s_tables_need_no_numpy_2_api(monkeypatch):
    # pyproject allows numpy>=1.24; np.bitwise_count first appeared in 2.0
    rng = random.Random(421)
    schemes = [random_scheme(rng, n_max=9, m_max=16, m_min=1) for _ in range(20)] + [_star_scheme(10)]
    before = [(s_factor(s, 0), minimize_u(s)) for s in schemes]
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert [(s_factor(s, 0), minimize_u(s)) for s in schemes] == before


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


def test_s_factor_support_over_limit_raises():
    s = _star_scheme(26)
    with pytest.raises(ValueError, match="S-factor support 26 exceeds limit 24"):
        s_factor(s, 0)
    assert minimize_u(s).u_min == Dyadic(0)  # the branch and bound has no support limit


def _band_scheme(n: int, width: int) -> Scheme:
    """Clauses (x_i or x_j) for 0 < j - i <= width."""
    rows = []
    for i in range(n):
        for j in range(i + 1, min(n, i + width + 1)):
            row = [0] * n
            row[i] = row[j] = 1
            rows.append(row)
    return Scheme.from_rows(rows, n=n)


# --- fixed cases -----------------------------------------------------------------

# name: (formula, u_min or None for the oracle's, most branches)
_FIXED_CASES = {
    # the rows use one of the 40 columns; the others stay free at -1
    "units-40": (lambda: Scheme.from_rows([[1] + [0] * 39, [-1] + [0] * 39]), 1, 1),
    "band-32": (lambda: _band_scheme(32, 15), 0, 60),
    # x1 = -1 empties the unit (x1) and satisfies the other two rows
    "empty-unit": (lambda: Scheme.from_rows([[-1, -1, 0, -1], [1, 0, 0, 0], [-1, 0, 0, -1]]), 0, 2),
    "r3-24-seed11": (lambda: random_3sat(random.Random(11), 24), None, 100),
    "r3-24-seed12": (lambda: random_3sat(random.Random(12), 24), None, 100),
    "r3-26-seed11": (lambda: random_3sat(random.Random(11), 26), None, 300),
    "r3-26-seed12": (lambda: random_3sat(random.Random(12), 26), None, 150),
    "ratio8-24-seed11": (lambda: random_3sat(random.Random(11), 24, 8.0), None, 3500),
    "ratio8-24-seed12": (lambda: random_3sat(random.Random(12), 24, 8.0), None, 1000),
}


@pytest.mark.parametrize("name", list(_FIXED_CASES))
def test_minimize_fixed_cases(name):
    build, u_min, most = _FIXED_CASES[name]
    s = build()
    if u_min is None:
        u_min = oracle_scan(s).u_min
    out = minimize_u(s)
    assert out.u_min == Dyadic(u_min)
    assert unsat_count_direct(s, out.minimizer) == u_min
    assert out.branch_count <= most
    if name == "units-40":
        assert out.minimizer == (-1,) * 40
