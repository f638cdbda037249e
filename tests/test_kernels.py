"""The split-and-multiply scans against independent paths: the clause-by-clause
profile, the nested-loop oracle reference, and a direct per-code evaluation
of the cubic form."""

import random

import numpy as np
import pytest

from satscheme import kernels
from satscheme.oracle import naive_scan
from satscheme.scheme_core import Scheme

from conftest import random_scheme


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
    profile = kernels.assignment_profile(s.cells)
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
    ],
)
def test_assignment_scan_edge_cases(rows, n):
    _assert_scan_matches(Scheme.from_rows(rows, n=n))


def test_assignment_scan_cross_chunk_tie():
    # n=19 splits into 2**9 low codes and two chunks of high codes; x_18
    # alone picks the chunk and no clause mentions it, so every violation
    # count occurs in both chunks and the first chunk must win.
    n = 19
    rows = [[0] * n for _ in range(4)]
    rows[0][12], rows[0][3] = 1, 1
    rows[1][12], rows[1][3] = -1, 1
    rows[2][3] = -1
    rows[3][17], rows[3][0] = 1, -1
    s = Scheme.from_rows(rows, n=n)
    assert len(kernels._chunks(n)[1]) > 1
    _assert_scan_matches(s)
    profile = kernels.assignment_profile(s.cells)
    assert profile[1 << 18 :].min() == profile.min()


def test_scans_across_many_chunks(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_ENTRIES", 1 << 3)
    rng = random.Random(131)
    for _ in range(20):
        s = random_scheme(rng, n_min=6, n_max=10, m_max=14, empty_row_prob=0.1)
        assert len(kernels._chunks(s.n)[1]) > 1
        _assert_scan_matches(s)
        lam, nu_idx, nu_val = _random_cubic(rng, s.n)
        got = kernels.cubic_form_scan(s.n, lam, nu_idx, nu_val)
        assert got == _cubic_reference(s.n, lam, nu_idx, nu_val)


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
        profile = kernels.assignment_profile(s.cells)
        _, u_min, min_code, hist, _ = kernels.assignment_scan(s.cells)
        assert profile.min() == u_min
        assert np.array_equal(
            np.bincount(profile, minlength=s.m + 1), np.asarray(hist)
        )
        assert profile[min_code] == u_min


def test_assignment_profile_limit():
    with pytest.raises(ValueError):
        kernels.assignment_profile(Scheme.empty(25).cells)


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
