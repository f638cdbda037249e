import random

import numpy as np
import pytest

from satscheme.oracle import oracle_scan
from satscheme.scheme_core import (
    Scheme,
    Status,
    emit_scheme_text,
    parse_scheme_text,
    status,
)
from satscheme.transforms import (
    RESOLUTION_ROW_LIMIT,
    accept_facts,
    assign,
    blow_up,
    drop_subsumed,
    flip,
    full_blow_up,
    metavariable_eliminate,
    permute_columns,
    permute_rows,
    reduce_read3,
    remove_pure_columns,
    resolve,
    shrink,
    split,
)

from satscheme import transforms
from satscheme.checks import check_resolution_chain

from conftest import random_clause_set, random_scheme, wide_clause_set, with_empty_columns


def _solutions(s):
    return set(oracle_scan(s).solutions)


# --- flip --------------------------------------------------------------------

def test_flip_f4_masks_expose_all_positive(f4):
    for mask in ({0, 2, 3}, {2, 3}):
        flipped = flip(f4, mask)
        assert all((flipped.cells[i] == 1).any() for i in range(flipped.m))


def test_flip_identity_and_errors(f4):
    assert flip(f4, ()) == f4
    with pytest.raises(ValueError):
        flip(f4, [7])


def test_flip_solution_correspondence(f4):
    # flipping columns 1,3,4 makes all-true a model; undoing the flips on the
    # coordinates recovers the original model (false, true, false, false)
    flipped = flip(f4, {0, 2, 3})
    sols = _solutions(flipped)
    assert (1, 1, 1, 1) in sols
    assert (-1, 1, -1, -1) in _solutions(f4)


def test_flip_preserves_model_count():
    rng = random.Random(3)
    for _ in range(60):
        s = random_scheme(rng, n_max=8, m_max=10)
        mask = [j for j in range(s.n) if rng.random() < 0.5]
        assert oracle_scan(flip(s, mask)).count == oracle_scan(s).count


# --- permutations ------------------------------------------------------------

def test_permutations_preserve_solutions():
    rng = random.Random(5)
    for _ in range(20):
        s = random_scheme(rng, n_min=4, n_max=6, m_min=5, m_max=8)
        rp = list(range(s.m))
        cp = list(range(s.n))
        rng.shuffle(rp)
        rng.shuffle(cp)
        assert _solutions(permute_rows(s, rp)) == _solutions(s)
        # new column j carries old column cp[j], so solutions permute alike
        want = {tuple(x[cp[j]] for j in range(s.n)) for x in _solutions(s)}
        assert _solutions(permute_columns(s, cp)) == want


# --- blow up / shrink ----------------------------------------------------------

def test_blow_up_direct():
    s = Scheme.from_rows([[1, 0]])
    out = blow_up(s, 0, 1)
    assert [out.row(i) for i in range(2)] == [(1, 1), (1, -1)]


def test_blow_up_requires_absent_cell(f4):
    with pytest.raises(ValueError):
        blow_up(f4, 0, 1)
    with pytest.raises(IndexError):
        blow_up(f4, 9, 0)


def test_blow_up_preserves_solutions():
    rng = random.Random(9)
    for _ in range(40):
        s = random_scheme(rng, n_max=6, m_max=6, m_min=1)
        absents = [(i, j) for i in range(s.m) for j in range(s.n) if s.cells[i, j] == 0]
        if not absents:
            continue
        i, j = rng.choice(absents)
        assert _solutions(blow_up(s, i, j)) == _solutions(s)


def test_full_blow_up_f5_has_all_primes(f5):
    primes = full_blow_up(f5)
    assert all(primes.row_size(i) == f5.n for i in range(primes.m))
    distinct = {primes.row(i) for i in range(primes.m)}
    assert len(distinct) == 16  # all 2**4 primes: F5 is unsatisfiable


def test_full_blow_up_f4_misses_two_primes(f4):
    primes = full_blow_up(f4)
    distinct = {primes.row(i) for i in range(primes.m)}
    assert len(distinct) == 16 - 2  # one missing prime per model


def test_full_blow_up_refuses_large_n():
    with pytest.raises(ValueError):
        full_blow_up(Scheme.empty(21))


def test_shrink_reaches_contradiction():
    s = Scheme.from_rows([[0, 1], [1, -1], [-1, -1]])
    out = shrink(s)
    assert status(out) is Status.CONTRADICTION
    assert {out.row(i) for i in range(out.m)} == {(0, 1), (0, -1)}


def test_shrink_fixpoint_and_direct():
    s = Scheme.from_rows([[1, 1, 0], [0, -1, 1]])
    assert shrink(s) == s
    s2 = Scheme.from_rows([[1, 1], [-1, 1]])
    assert [shrink(s2).row(0)] == [(0, 1)]


def test_shrink_preserves_solutions():
    rng = random.Random(13)
    for _ in range(40):
        s = random_scheme(rng, n_max=6, m_max=8)
        assert _solutions(shrink(s)) == _solutions(s)


# --- subsumption ---------------------------------------------------------------

def test_drop_subsumed_direct(f5):
    s = Scheme.from_rows([[1, 0], [1, -1]])
    out = drop_subsumed(s)
    assert out.m == 1 and out.row(0) == (1, 0)
    assert drop_subsumed(f5) == f5
    dup = Scheme.from_rows([[1, -1], [1, -1]])
    assert drop_subsumed(dup).m == 1


def test_drop_subsumed_preserves_solutions():
    rng = random.Random(17)
    for _ in range(40):
        s = random_scheme(rng, n_max=6, m_max=10, empty_row_prob=0.1)
        assert _solutions(drop_subsumed(s)) == _solutions(s)


# --- pure columns / assign / facts ----------------------------------------------

def test_remove_pure_columns_f4(f4):
    out, removed = remove_pure_columns(f4)
    assert removed[0] == (3, False)  # column 4 holds only a negated literal
    assert (oracle_scan(out).count > 0) == (oracle_scan(f4).count > 0)


def test_remove_pure_columns_all_positive_rows():
    s = Scheme.from_rows([[1, 0], [0, 1]])
    out, removed = remove_pure_columns(s)
    assert out.m == 0
    assert dict(removed) == {0: True, 1: True}


def test_remove_pure_columns_fixpoint():
    s = Scheme.from_rows([[1, -1], [-1, 1]])
    out, removed = remove_pure_columns(s)
    assert out == s and removed == []


def test_remove_pure_columns_preserves_satisfiability():
    rng = random.Random(19)
    for _ in range(60):
        s = random_scheme(rng, n_max=8, m_max=10)
        out, _ = remove_pure_columns(s)
        assert (oracle_scan(out).count > 0) == (oracle_scan(s).count > 0)


def test_assign_f5_walkthrough(f5):
    step1 = assign(f5, 0, True)
    assert emit_scheme_text(step1) == "- + -\n0 - 0\n+ 0 0\n0 0 +"
    step2 = assign(step1, 0, True)
    assert emit_scheme_text(step2) == "+ -\n- 0\n0 +"
    step3 = assign(step2, 0, True)
    assert status(step3) is Status.EMPTY_CLAUSE


def test_assign_unit_to_empty():
    s = Scheme.from_rows([[1]])
    out = assign(s, 0, True)
    assert (out.m, out.n) == (0, 0)


def test_assign_preserves_conditional_satisfiability():
    rng = random.Random(21)
    for _ in range(60):
        s = random_scheme(rng, n_max=7, m_max=10, m_min=1)
        var = rng.randrange(s.n)
        value = rng.random() < 0.5
        fixed_sols = {
            x for x in _solutions(s) if (x[var] == 1) == value
        }
        reduced_sols = {
            x[:var] + x[var + 1 :] for x in fixed_sols
        }
        assert _solutions(assign(s, var, value)) == reduced_sols


def test_accept_facts_f5(f5):
    # the two forced facts a4 and a2 leave the 3x2 scheme, whose shrink is a
    # contradiction ...
    step = assign(assign(f5, 3, True), 1, True)
    assert emit_scheme_text(step) == "0 +\n+ -\n- -"
    assert status(shrink(step)) is Status.CONTRADICTION
    # ... and the fact fixpoint itself runs into that contradiction
    out, trail = accept_facts(f5)
    assert status(out) is Status.CONTRADICTION
    assert {(1, True), (3, True)}.issubset(set(trail))


def test_accept_facts_no_units(f4, g):
    out, trail = accept_facts(g)
    assert out == g and trail == []


def test_accept_facts_stops_on_terminal():
    s = Scheme.from_rows([[1, 0], [-1, 0]])
    out, trail = accept_facts(s)
    assert status(out) is Status.CONTRADICTION
    assert trail == []


# --- resolution ------------------------------------------------------------------

def test_resolve_f5_conclusive_chain(f5):
    s1, c1 = resolve(f5, 0)
    assert c1 and s1.n == 3
    idx_a4 = 2  # columns now (a2, a3, a4)
    s2, c2 = resolve(s1, idx_a4)
    assert c2
    s3, c3 = resolve(s2, 1)  # resolve a3
    assert c3
    assert status(s3) is Status.CONTRADICTION


def test_resolve_inconclusive_pairing(f5):
    s1, c1 = resolve(f5, 1)  # a2 occurs in three rows
    assert not c1
    s2, c2 = resolve(s1, 1)  # a3 now at index 1 of (a1, a3, a4)
    assert status(s2) is Status.OPEN


def test_resolve_absent_variable():
    s = Scheme.from_rows([[1, 0]])
    out, conclusive = resolve(s, 1)
    assert out == s and conclusive


def test_resolve_preserves_satisfiability():
    # Davis-Putnam elimination over all pairs is equisatisfiable
    rng = random.Random(29)
    for _ in range(60):
        s = random_scheme(rng, n_max=6, m_max=8, m_min=1)
        var = rng.randrange(s.n)
        out, _ = resolve(s, var)
        assert (oracle_scan(out).count > 0) == (oracle_scan(s).count > 0)


# --- splitting ---------------------------------------------------------------------

def test_split_f5_first_elimination(f5):
    res = split(f5, 0)
    assert emit_scheme_text(res.recombined) == "- - 0\n- + -\n+ 0 0\n0 0 +"
    assert (res.y.m, res.z.m, res.r.m) == (1, 1, 3)
    assert res.y.m + res.z.m + res.r.m == f5.m
    assert res.recombined.n == f5.n - 1


def test_split_pure_variable_leaves_rest():
    s = Scheme.from_rows([[1, 1], [0, -1]])
    res = split(s, 0)
    assert res.z.m == 0
    assert res.recombined.m == 1 and res.recombined.row(0) == (-1,)


def test_split_single_pair_equals_resolution():
    s = Scheme.from_rows([[1, 1, 0], [-1, 0, -1], [0, 1, 1]])
    res = split(s, 0)
    resolved, conclusive = resolve(s, 0)
    assert conclusive
    assert res.recombined == resolved


def test_split_never_emits_orthogonal_products():
    rng = random.Random(31)
    for _ in range(60):
        s = random_scheme(rng, n_max=6, m_max=10, m_min=1)
        var = rng.randrange(s.n)
        res = split(s, var)
        for yi in range(res.y.m):
            for zj in range(res.z.m):
                a, b = res.y.cells[yi], res.z.cells[zj]
                clash = (((a == 1) & (b == -1)) | ((a == -1) & (b == 1))).any()
                if not clash:
                    merged = np.where(a != 0, a, b)
                    present = any(
                        np.array_equal(merged, res.recombined.cells[r])
                        for r in range(res.recombined.m)
                    )
                    assert present
        assert (oracle_scan(res.recombined).count > 0) == (oracle_scan(s).count > 0)


def test_metavariable_f5_chain(f5):
    sat, chain = metavariable_eliminate(f5)
    assert not sat
    assert [c.m for c in chain] == [5, 4, 3, 2]


def test_metavariable_f4_sat(f4):
    sat, _ = metavariable_eliminate(f4)
    assert sat


def test_metavariable_empty_scheme():
    sat, chain = metavariable_eliminate(Scheme.empty(3))
    assert sat and chain[0].m == 0


def test_metavariable_requires_permutation(f5):
    with pytest.raises(ValueError):
        metavariable_eliminate(f5, order=[0, 1])


def test_metavariable_budget_raises():
    s = Scheme.from_rows([[1, 1, 0]] * 450 + [[-1, 0, 1]] * 450)
    with pytest.raises(ValueError, match=f"budget {RESOLUTION_ROW_LIMIT}"):
        metavariable_eliminate(s, order=[0, 1, 2])
    sat, _ = metavariable_eliminate(s)
    assert sat


def test_metavariable_matches_oracle_on_randoms():
    rng = random.Random(37)
    for _ in range(500):
        s = random_scheme(rng, n_max=8, m_max=12)
        order = list(range(s.n))
        rng.shuffle(order)
        sat, _ = metavariable_eliminate(s, order)
        assert sat == (oracle_scan(s).count > 0)


def test_metavariable_pure_steps_skip_subsumption(monkeypatch):
    # (x1 or a_i) and (not x1 or b_i), i = 1..100: x1 gives 10 000 resolvents,
    # then every step is pure and must not re-scan them for subsumption
    calls = []
    full_pass = transforms._unsubsumed
    monkeypatch.setattr(transforms, "_unsubsumed", lambda *args: calls.append(1) or full_pass(*args))
    rows = []
    for i in range(100):
        pos, neg = [0] * 201, [0] * 201
        pos[0], pos[1 + i] = 1, 1
        neg[0], neg[101 + i] = -1, 1
        rows += [pos, neg]
    sat, chain = metavariable_eliminate(Scheme.from_rows(rows), order=range(201))
    assert sat
    assert [c.m for c in chain[:4]] == [200, 10000, 9900, 9800]
    assert len(calls) == 1


# --- the elimination engine against a grid reference --------------------------------

REFUTED = (Status.CONTRADICTION, Status.EMPTY_CLAUSE)


def _reference_elimination(s, order=None, row_limit=RESOLUTION_ROW_LIMIT):
    """The elimination loop on grids: `resolve`, then the loop reference of `drop_subsumed`.

    Least growth first (lowest index on ties) or an explicit order, with the
    budget checked before each step.  Returns (chain, witness, over_budget).
    """
    chain, cur, cols = [s], s, list(range(s.n))
    steps = s.n if order is None else len(order)
    undo = []  # (column, columns left, clauses on the column) per step
    for step in range(steps + 1):
        if status(cur) in REFUTED:
            return chain, None, False
        if cur.m == 0:
            x = [-1] * s.n
            for col, left, clauses in reversed(undo):
                needy = [r for r in clauses if not any(f == x[c] for c, f in zip(left, r) if c != col)]
                x[col] = 1 if any(r[left.index(col)] == 1 for r in needy) else -1
            return chain, tuple(x), False
        if step == steps:
            return chain, None, False
        n_pos = (cur.cells == 1).sum(axis=0)
        n_neg = (cur.cells == -1).sum(axis=0)
        idx = int(np.argmin(n_pos * n_neg - n_pos - n_neg)) if order is None else cols.index(order[step])
        pos, neg = int(n_pos[idx]), int(n_neg[idx])
        if pos * neg + cur.m - pos - neg > row_limit:
            return chain, None, True
        undo.append((cols[idx], list(cols), [r for r in cur.rows() if r[idx]]))
        cur = _drop_subsumed_reference(resolve(cur, idx)[0]) if pos + neg else cur.delete_columns([idx])
        cols.pop(idx)
        chain.append(cur)


def _assert_engine_matches_reference(s, order=None, row_limit=RESOLUTION_ROW_LIMIT):
    chain, witness, over_budget = _reference_elimination(s, order, row_limit)
    step, last = len(chain) - 1, chain[-1]
    evidence = check_resolution_chain(s, order, row_limit).evidence
    if witness is not None:
        assert evidence == {"step": step, "witness": witness}
    elif status(last) in REFUTED:
        assert evidence == {"step": step, "pattern": status(last).value}
    elif over_budget:
        assert evidence == {"reason": f"clause growth beyond {row_limit}", "final_rows": last.m}
    else:
        assert evidence == {"final_rows": last.m}
    if row_limit != RESOLUTION_ROW_LIMIT or (order is not None and len(order) < s.n):
        return
    if over_budget:
        with pytest.raises(ValueError):
            metavariable_eliminate(s, order)
        return
    sat, got = metavariable_eliminate(s, order)
    assert sat == (witness is not None)
    assert got == chain  # every grid, row order included


def test_engine_matches_reference_on_small_randoms():
    rng = random.Random(181)
    for i in range(500):
        s = random_clause_set(rng, n_max=11, m_max=30) if i % 2 else random_scheme(
            rng, n_max=11, m_max=30, k_max=4, empty_row_prob=0.03
        )
        _assert_engine_matches_reference(s)
        _assert_engine_matches_reference(s, order=rng.sample(range(s.n), s.n))
        partial = rng.sample(range(s.n), rng.randint(0, s.n))
        _assert_engine_matches_reference(s, partial, row_limit=rng.choice((3, 8, 20, RESOLUTION_ROW_LIMIT)))
        _assert_engine_matches_reference(s, row_limit=rng.choice((3, 8, 20)))


def test_engine_matches_reference_on_wide_formulas():
    # n = 60-140, so every clause mask spans several 64-bit words; the clauses
    # sit on 12 random columns so that steps resolve, the rest stay absent
    rng = random.Random(191)
    for _ in range(10):
        n = rng.randint(60, 140)
        used = rng.sample(range(n), 12)
        rows = []
        for _ in range(rng.randint(30, 55)):
            row = [0] * n
            for c in rng.sample(used, 3):
                row[c] = rng.choice((1, -1))
            rows.append(row)
        s = Scheme.from_rows(rows)
        _assert_engine_matches_reference(s)
        _assert_engine_matches_reference(s, order=rng.sample(used, rng.randint(0, 12)))
        _assert_engine_matches_reference(s, row_limit=rng.choice((20, 60)))


# --- READ-3 -------------------------------------------------------------------------

def test_reduce_read3_f5_unchanged(f5):
    assert reduce_read3(f5) == f5


def test_reduce_read3_four_occurrences():
    s = Scheme.from_rows(
        [[1, 1, 0], [1, 0, 1], [-1, 1, 0], [1, 0, -1]]
    )  # variable 1 occurs four times
    out = reduce_read3(s)
    assert out.n == 3 + 3  # three fresh copies
    assert out.m == 4 + 4  # four chain clauses
    counts = np.count_nonzero(out.cells, axis=0)
    assert (counts <= 3).all()


def test_reduce_read3_empty():
    s = Scheme.empty(2)
    assert reduce_read3(s) == s


def test_reduce_read3_equisatisfiable():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        s = random_scheme(rng, n_max=5, m_max=12)
        out = reduce_read3(s)
        counts = np.count_nonzero(out.cells, axis=0) if out.m else np.zeros(out.n)
        assert (counts <= 3).all()
        if out.n <= 16:  # keep the exhaustive check tractable on both backends
            checked += 1
            assert (oracle_scan(out).count > 0) == (oracle_scan(s).count > 0)
    assert checked >= 20


# --- whole-array operations against the loops they replaced ----------------------

def _find_shrink_pair_reference(cells):
    m = cells.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            diff = np.nonzero(cells[i] != cells[j])[0]
            if len(diff) == 1:
                c = int(diff[0])
                if cells[i, c] != 0 and cells[i, c] == -cells[j, c]:
                    return i, j, c
    return None


def _shrink_reference(s):
    cells = s.cells.copy()
    while True:
        if status(Scheme(cells)) is not Status.OPEN:
            break
        hit = _find_shrink_pair_reference(cells)
        if hit is None:
            break
        i, j, c = hit
        merged = cells[i].copy()
        merged[c] = 0
        keep = [k for k in range(cells.shape[0]) if k != j]
        cells = cells[keep]
        cells[i] = merged
    return Scheme(cells)


def _drop_subsumed_reference(s):
    sets = [
        frozenset((int(j), int(s.cells[i, j])) for j in np.nonzero(s.cells[i])[0]) for i in range(s.m)
    ]
    keep = []
    for i in range(s.m):
        if not any(
            sets[j] < sets[i] or (sets[j] == sets[i] and j < i) for j in range(s.m) if j != i
        ):
            keep.append(i)
    return Scheme(s.cells[keep])


def _remove_pure_columns_reference(s):
    cells = s.cells
    col_ids = list(range(s.n))
    removed = []
    changed = True
    while changed:
        changed = False
        for j in range(cells.shape[1]):
            col = cells[:, j]
            nz = col[col != 0]
            if nz.size == 0:
                continue
            if (nz == 1).all():
                value = True
            elif (nz == -1).all():
                value = False
            else:
                continue
            removed.append((col_ids[j], value))
            cells = np.delete(cells[np.nonzero(col == 0)[0]], j, axis=1)
            col_ids.pop(j)
            changed = True
            break
    return Scheme(cells), removed


def _accept_facts_reference(s):
    cur = s
    col_ids = list(range(s.n))
    trail = []
    while status(cur) is Status.OPEN:
        unit = None
        for i in range(cur.m):
            sup = cur.row_support(i)
            if len(sup) == 1:
                unit = (sup[0], int(cur.cells[i, sup[0]]) == 1)
                break
        if unit is None:
            break
        j, value = unit
        trail.append((col_ids[j], value))
        cur = assign(cur, j, value)
        col_ids.pop(j)
    return cur, trail


def _same(a, b):
    return a.cells.shape == b.cells.shape and np.array_equal(a.cells, b.cells)


@pytest.mark.parametrize("pad", [None, 1, 7])
def test_clause_set_operations_match_loop_references(pad):
    rng = random.Random(421)
    merged = dropped = wide_merged = 0
    for i in range(650):
        s = random_clause_set(rng) if i < 500 else wide_clause_set(rng, m_max=40)
        s = with_empty_columns(s, pad)
        got = shrink(s)
        assert _same(got, _shrink_reference(s))
        merged += got.m < s.m
        wide_merged += got.m < s.m and i >= 500
        got = drop_subsumed(s)
        assert _same(got, _drop_subsumed_reference(s))
        dropped += got.m < s.m
        (got, trail), (want, want_trail) = remove_pure_columns(s), _remove_pure_columns_reference(s)
        assert _same(got, want) and trail == want_trail
        (got, trail), (want, want_trail) = accept_facts(s), _accept_facts_reference(s)
        assert _same(got, want) and trail == want_trail
    assert merged > 20 and dropped > 100 and wide_merged >= 3


def test_shrink_merges_first_pair_in_row_major_order():
    # rows 0/2 and 1/2 are both mergeable on column 0; the pair (0, 2) comes first
    s = Scheme.from_rows([[1, 1, 0], [1, 0, 1], [-1, 1, 0], [-1, 0, 1]])
    out = shrink(s)
    assert emit_scheme_text(out) == "0 + 0\n0 0 +"


def test_shrink_leaves_its_input_untouched():
    cells = np.array([[1, 1], [-1, 1], [0, -1]], dtype=np.int8)
    s = Scheme(cells.copy())
    shrink(s)
    assert np.array_equal(s.cells, cells)
