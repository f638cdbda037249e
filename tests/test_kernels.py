"""The split-and-multiply scans against independent paths: the clause-by-clause
profile, the nested-loop oracle reference, and a direct per-code evaluation
of the cubic form."""

import itertools
import random
from functools import partial

import numpy as np
import pytest

from satscheme import kernels
from satscheme.scheme_core import Scheme

from conftest import assignment_profile, naive_scan, random_scheme


def _random_cubic(rng, n):
    lam = np.array([rng.randint(-8, 8) / 8.0 for _ in range(n)])
    triples = []
    if n >= 3:
        for _ in range(rng.randint(0, 2 * n)):
            triples.append(tuple(sorted(rng.sample(range(n), 3))))
    triples = sorted(set(triples))
    nu_idx = np.array(triples, dtype=np.int64).reshape(-1, 3)
    nu_val = np.array([rng.randint(-8, 8) / 8.0 for _ in triples])
    return lam, nu_idx, nu_val


def _cubic_reference(n, lam, nu_idx, nu_val):
    """Per-code evaluation; eighth-integer inputs keep float sums exact."""
    values = []
    for code in range(1 << n):
        x = kernels.decode_assignment(code, n)
        val = sum(float(lam[j]) * x[j] for j in range(n))
        for (i, j, k), c in zip(nu_idx.tolist(), nu_val.tolist()):
            val += c * x[i] * x[j] * x[k]
        values.append(val)
    lo, hi = min(values), max(values)
    return lo, values.index(lo), hi, values.index(hi)


def _assert_scan_matches(s: Scheme):
    count, u_min, min_code, hist, sols = kernels.assignment_scan(s.cells, collect=True)
    # without `collect`, multi-chunk scans with few enough bins take the
    # pair-packed histogram path
    plain = kernels.assignment_scan(s.cells)
    assert plain[:3] == (count, u_min, min_code)
    assert np.array_equal(plain[3], hist) and plain[4].tolist() == []
    profile = assignment_profile(s.cells)
    assert count == int((profile == 0).sum())
    assert u_min == int(profile.min())
    assert min_code == int(profile.argmin())  # smallest code attaining u_min
    assert np.array_equal(hist, np.bincount(profile, minlength=s.m + 1))
    assert np.array_equal(sols, np.flatnonzero(profile == 0))
    if s.n <= 10:
        ref = naive_scan(s)
        assert (count, u_min) == (ref.count, ref.u_min)
        assert {k: int(v) for k, v in enumerate(hist) if v} == ref.u_histogram
        assert kernels.decode_assignment(min_code, s.n) == ref.witness
        assert [kernels.decode_assignment(int(c), s.n) for c in sols] == list(ref.solutions)


def test_assignment_scan_matches_references():
    rng = random.Random(103)
    for _ in range(80):
        _assert_scan_matches(random_scheme(rng, n_max=10, m_max=14, empty_row_prob=0.1))


@pytest.mark.parametrize(
    "rows, n",
    [
        ([], 0),  # n=0, m=0: the one empty assignment satisfies
        ([[]], 0),  # n=0 with the empty clause
        ([], 5),  # m=0, odd n
        ([[1]], 1),
        ([[-1], [1]], 1),
        ([[0, 0, 0]], 3),  # empty row violated everywhere
        ([[1, 0, -1, 0, 1], [0, 0, 0, 0, 0], [-1, -1, 0, 0, 0]], 5),
        ([[0, 0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 0, -1]], 7),  # only the high half
        ([[1, 0, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0, 0]], 7),  # only the low half
        ([[1]] * 9 + [[-1]] * 8, 1),  # lo = 0: an empty low half
        # merged tables: many clauses share one high part, or one low part
        ([list(low) + [0, 0, 1] for low in itertools.product((-1, 0, 1), repeat=3)], 6),
        ([[-1, 0, 0] + list(high) for high in itertools.product((-1, 0, 1), repeat=3)], 6),
        # wholly in one half, widths 2 up to n, and empty rows
        ([[1, -1, 1, -1, 0, 0, 0, 0], [0, 0, 0, 0, -1, 1, 1, 0], [0, 0, 0, 0, 1, 1, 1, 1],
          [1, 1, 0, 0, 0, 0, 0, 0], [0] * 8, [1, -1, 1, -1, 1, 0, 0, 0],
          [-1, 1, -1, 0, 1, 1, -1, 1], [1, 1, 1, 1, 1, 1, 1, 1], [0] * 8], 8),
    ],
)
def test_assignment_scan_edge_cases(rows, n, monkeypatch):
    s = Scheme.from_rows(rows, n=n)
    _assert_scan_matches(s)
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1)  # one high row per chunk
    _assert_scan_matches(s)


def test_assignment_scan_cross_chunk_tie():
    # n=19 splits into 2**9 low codes and several chunks of high codes; x_18
    # alone picks the half and no clause mentions it, so every violation
    # count occurs in both halves and the lower half must win.
    n = 19
    rows = [[0] * n for _ in range(4)]
    rows[0][12], rows[0][3] = 1, 1
    rows[1][12], rows[1][3] = -1, 1
    rows[2][3] = -1
    rows[3][17], rows[3][0] = 1, -1
    s = Scheme.from_rows(rows, n=n)
    assert len(kernels._chunks(n)[1]) > 1
    _assert_scan_matches(s)
    profile = assignment_profile(s.cells)
    assert profile[1 << 18 :].min() == profile.min()


def test_scans_across_many_chunks(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1 << 3)
    rng = random.Random(131)
    for i in range(30):
        # the last ten have widths up to n, so their merged tables hold wide parts
        k_max = 3 if i < 20 else 10
        s = random_scheme(rng, n_min=6, n_max=10, m_max=14, k_max=k_max, empty_row_prob=0.1)
        assert len(kernels._chunks(s.n)[1]) > 1
        _assert_scan_matches(s)
        lam, nu_idx, nu_val = _random_cubic(rng, s.n)
        got = kernels.cubic_form_scan(s.n, lam, nu_idx, nu_val)
        assert got == _cubic_reference(s.n, lam, nu_idx, nu_val)
    # cubic terms whose merged rows cancel: x0 - x1 and x3 - x4 are 0 where
    # the two agree, and a repeated triple with opposite signs is 0 throughout
    # (times x5 = -1 at code 0 for the second, which must not read -0.0)
    lam = np.array([0.5, -0.5, 0.0, 0.25, -0.25, 0.0, 0.0])
    for nu_idx, nu_val in (
        ([[0, 1, 2], [0, 1, 2]], [0.75, -0.75]),
        ([[0, 1, 5], [0, 1, 5]], [0.75, -0.75]),
        ([[0, 5, 6], [1, 5, 6], [2, 3, 4]], [-0.5, 0.5, 0.125]),
    ):
        nu_idx, nu_val = np.array(nu_idx), np.array(nu_val)
        for form in ((lam, nu_idx, nu_val), (np.zeros(7), nu_idx, nu_val)):
            got = kernels.cubic_form_scan(7, *form)
            assert repr(got) == repr(_cubic_reference(7, *form))  # no -0.0
    # a positive unit on the top variable, which no other clause mentions:
    # each code of the upper half violates one clause fewer than its twin in
    # the lower half, so a later packed chunk lowers u_min
    rest = random_scheme(rng, n_min=11, n_max=11, m_min=10, m_max=10)
    s = Scheme.from_rows([list(row) + [0] for row in rest.rows()] + [[0] * 11 + [1]], n=12)
    _assert_scan_matches(s)
    assert kernels.assignment_scan(s.cells)[2] >> 11 == 1
    # pairs are packed while 16 (m + 1)**2 <= 2**n and m <= 255: (13, 16),
    # (18, 100) and (20, 255) are, the others are not; 16 chunks each
    for n, m in ((13, 16), (13, 22), (18, 100), (20, 255), (9, 256), (9, 300)):
        monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1 << (n - 4))
        _assert_scan_matches(random_scheme(rng, n_min=n, n_max=n, m_min=m, m_max=m, empty_row_prob=0.1))
    # `collect` across the two chunks of the default size at n=16
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1 << 15)
    assert len(kernels._chunks(16)[1]) == 2
    rows = [[0] * 16 for _ in range(20)]
    for row in rows:
        for c in rng.sample(range(16), 3):
            row[c] = rng.choice((1, -1))
    s = Scheme.from_rows(rows, n=16)
    _assert_scan_matches(s)
    sols = kernels.assignment_scan(s.cells, collect=True)[4]
    assert sols.min() < 1 << 15 <= sols.max()  # models in both chunks


def test_merged_tables_stay_narrow():
    # terms of width <= 3 merge into at most 2n + 2 clause columns (the empty
    # part and each literal of either half) or n + 2 monomial columns
    rng = random.Random(139)
    for n in range(17, 21):
        lo = n // 2
        fmat = np.zeros((round(4.26 * n), n), np.int8)
        for row in fmat:
            row[rng.sample(range(n), 3)] = [rng.choice((1, -1)) for _ in range(3)]
        clauses = partial(kernels._falsified, dtype=np.float32)
        low_t, high = kernels._tables(fmat, lo, clauses, merge=True)
        assert low_t.shape[0] == high.shape[1] <= 2 * n + 2
        plain_low_t, plain_high = kernels._tables(fmat, lo, clauses)
        assert np.array_equal(high @ low_t, plain_high @ plain_low_t)

        lam, nu_idx, nu_val = _random_cubic(rng, n)
        support = np.vstack([np.eye(n, dtype=np.int64), np.zeros((len(nu_idx), n), np.int64)])
        support[np.arange(n, len(support))[:, None], nu_idx] = 1
        coef = np.concatenate([lam, nu_val])
        low_t, high = kernels._tables(support, lo, kernels._monomials, coef, merge=True)
        assert low_t.shape[0] == high.shape[1] <= n + 2
        plain_low_t, plain_high = kernels._tables(support, lo, kernels._monomials, coef)
        assert np.array_equal(high @ low_t, plain_high @ plain_low_t)


def test_cubic_form_scan_matches_direct_evaluation():
    rng = random.Random(107)
    for _ in range(60):
        n = rng.randint(1, 9)
        lam, nu_idx, nu_val = _random_cubic(rng, n)
        got = kernels.cubic_form_scan(n, lam, nu_idx, nu_val)
        assert got == _cubic_reference(n, lam, nu_idx, nu_val)


def test_cubic_form_scan_edge_cases():
    empty_idx, empty_val = np.zeros((0, 3), np.int64), np.zeros(0)
    assert kernels.cubic_form_scan(0, np.zeros(0), empty_idx, empty_val) == (0.0, 0, 0.0, 0)
    # an all-zero form ties everywhere: code 0 is both extrema
    assert kernels.cubic_form_scan(5, np.zeros(5), empty_idx, empty_val) == (0.0, 0, 0.0, 0)
    assert kernels.cubic_form_scan(1, np.array([0.5]), empty_idx, empty_val) == (-0.5, 0, 0.5, 1)
    # a cubic term whose variables straddle the split
    lam, idx, val = np.zeros(4), np.array([[0, 2, 3]]), np.array([-0.375])
    assert kernels.cubic_form_scan(4, lam, idx, val) == _cubic_reference(4, lam, idx, val)


def test_assignment_profile_matches_scan():
    rng = random.Random(109)
    for _ in range(30):
        s = random_scheme(rng, n_max=8, m_max=10, empty_row_prob=0.1)
        profile = assignment_profile(s.cells)
        _, u_min, min_code, hist, _ = kernels.assignment_scan(s.cells)
        assert profile.min() == u_min
        assert np.array_equal(
            np.bincount(profile, minlength=s.m + 1), np.asarray(hist)
        )
        assert profile[min_code] == u_min


def test_assignment_profile_limit():
    with pytest.raises(ValueError):
        assignment_profile(Scheme.empty(25).cells)


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_decode_assignment():
    assert kernels.decode_assignment(0, 3) == (-1, -1, -1)
    assert kernels.decode_assignment(5, 3) == (1, -1, 1)


def test_scan_without_rows_matches_naive_scan():
    for n in range(13):
        s = Scheme.empty(n)
        ref = naive_scan(s)
        count, u_min, min_code, hist, sols = kernels.assignment_scan(s.cells, collect=True)
        assert count == ref.count == 1 << n
        assert u_min == ref.u_min == 0
        assert kernels.decode_assignment(min_code, n) == ref.witness
        assert hist.dtype == np.int64 and hist.tolist() == [ref.u_histogram[0]]
        assert sols.dtype == np.int64
        assert tuple(kernels.decode_assignment(int(c), n) for c in sols) == ref.solutions
        assert kernels.assignment_scan(s.cells)[4].tolist() == []
