import random

import numpy as np
import pytest

from satscheme.fixtures import fixture
from satscheme.kernels import decode_assignment
from satscheme.oracle import OracleReport
from satscheme.pseudo_boolean import PBForm
from satscheme.scheme_core import Scheme


@pytest.fixture(scope="session")
def f4():
    return fixture("F4")


@pytest.fixture(scope="session")
def f5():
    return fixture("F5")


@pytest.fixture(scope="session")
def g():
    return fixture("G")


@pytest.fixture(scope="session")
def gext():
    return fixture("Gext")


def random_scheme(
    rng: random.Random,
    n_min=1,
    n_max=10,
    m_min=0,
    m_max=15,
    k_max=3,
    empty_row_prob=0.0,
) -> Scheme:
    n = rng.randint(n_min, n_max)
    m = rng.randint(m_min, m_max)
    rows = []
    for _ in range(m):
        if empty_row_prob and rng.random() < empty_row_prob:
            rows.append([0] * n)
            continue
        k = rng.randint(1, max(1, min(k_max, n)))
        row = [0] * n
        for c in rng.sample(range(n), k):
            row[c] = rng.choice((1, -1))
        rows.append(row)
    return Scheme.from_rows(rows, n=n)


def random_horn_scheme(rng: random.Random, n_max=10, m_max=15) -> Scheme:
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    rows = []
    for _ in range(m):
        k = rng.randint(1, max(1, min(3, n)))
        cols = rng.sample(range(n), k)
        row = [0] * n
        pos_at = rng.choice(cols) if rng.random() < 0.6 else None
        for c in cols:
            row[c] = 1 if c == pos_at else -1
        rows.append(row)
    return Scheme.from_rows(rows, n=n)


def random_clause_set(rng: random.Random, n_max=9, m_max=15, n_min=0) -> Scheme:
    """Random scheme with n=n_min..n_max, duplicate rows, empty clauses, widths
    up to 4 and sometimes a pair of complementary unit clauses."""
    n = rng.randint(n_min, n_max)
    m = rng.randint(0, m_max)
    empty_prob = rng.choice((0.0, 0.05, 0.2))
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.15:
            rows.append(list(rng.choice(rows)))
            continue
        k = 0 if n == 0 or rng.random() < empty_prob else rng.randint(1, min(4, n))
        row = [0] * n
        for c in rng.sample(range(n), k):
            row[c] = rng.choice((1, -1))
        rows.append(row)
    if n and rng.random() < 0.2:
        c = rng.randrange(n)
        for sign in (1, -1):
            row = [0] * n
            row[c] = sign
            rows.insert(rng.randint(0, len(rows)), row)
    return Scheme.from_rows(rows, n=n)


def wide_clause_set(rng: random.Random, m_max=15) -> Scheme:
    """A random_clause_set on 12 columns, spread over n = 60..140 columns so
    that each clause mask spans several 64-bit words."""
    narrow = random_clause_set(rng, n_max=12, m_max=m_max, n_min=12)
    n = rng.randint(60, 140)
    cells = np.zeros((narrow.m, n), dtype=np.int8)
    cells[:, rng.sample(range(n), 12)] = narrow.cells
    return Scheme(cells)


def with_empty_columns(s: Scheme, pad: int | None) -> Scheme:
    """s with `pad` all-zero columns in front (s itself for None), which
    moves every literal's bit and the complement offset n of a clause mask."""
    if pad is None:
        return s
    return Scheme(np.hstack([np.zeros((s.m, pad), dtype=np.int8), s.cells]))


def random_3sat(rng: random.Random, n: int, ratio: float = 4.26) -> Scheme:
    """round(ratio * n) clauses, each on 3 distinct random columns with random signs."""
    rows = []
    for _ in range(round(ratio * n)):
        row = [0] * n
        for c in rng.sample(range(n), 3):
            row[c] = rng.choice((1, -1))
        rows.append(row)
    return Scheme.from_rows(rows, n=n)


# --- test references -----------------------------------------------------------
#
# Plain, independent evaluations that the package's scans are checked against.

def naive_scan(s: Scheme) -> OracleReport:
    """Plain nested-loop reference for the kernel scan (small n only)."""
    if s.n > 16:
        raise ValueError("naive_scan is a reference implementation; keep n <= 16")
    rows = [s.row_support(i) for i in range(s.m)]
    signs = [tuple(int(s.cells[i, j]) for j in s.row_support(i)) for i in range(s.m)]
    count = 0
    u_min = None
    witness = None
    histogram: dict[int, int] = {}
    solutions = []
    for code in range(1 << s.n):
        x = decode_assignment(code, s.n)
        u = 0
        for sup, sgn in zip(rows, signs):
            if not any(x[j] == f for j, f in zip(sup, sgn)):
                u += 1
        histogram[u] = histogram.get(u, 0) + 1
        if u_min is None or u < u_min:
            u_min, witness = u, x
        if u == 0:
            count += 1
            solutions.append(x)
    return OracleReport(
        count=count,
        solutions=tuple(solutions),
        u_min=u_min,
        u_histogram=histogram,
        witness=witness,
    )


def _signs_for_codes(codes: np.ndarray, n: int) -> np.ndarray:
    bits = (codes[:, None] >> np.arange(n, dtype=np.int64)[None, :]) & 1
    return (bits * 2 - 1).astype(np.int8)


def _block_violations(fmat: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Violated-clause count for each assignment code in the block."""
    m, n = fmat.shape
    X = _signs_for_codes(codes, n)
    u = np.zeros(len(codes), np.int64)
    for i in range(m):
        sup = np.nonzero(fmat[i])[0]
        if sup.size == 0:
            u += 1
        else:
            u += ~(X[:, sup] == fmat[i, sup]).any(axis=1)
    return u


def assignment_profile(fmat: np.ndarray, limit: int = 24) -> np.ndarray:
    """Violated-clause count for every assignment code, as one array.

    Materializes 2**n values, so n is capped (default 24).  Evaluated clause
    by clause, independent of the split-and-multiply scan.
    """
    fmat = np.ascontiguousarray(fmat, dtype=np.int8)
    n = fmat.shape[1]
    if n > limit:
        raise ValueError(f"n={n} exceeds profile limit {limit}")
    total = 1 << n
    out = np.empty(total, np.int64)
    block = min(total, 1 << 16)
    for base in range(0, total, block):
        codes = np.arange(base, min(base + block, total), dtype=np.int64)
        out[base : base + len(codes)] = _block_violations(fmat, codes)
    return out


def scaled_profile(p: PBForm, limit: int = 20) -> tuple[int, np.ndarray]:
    """(scale, values) with values[code] = scale * u(assignment code), exact int64."""
    if p.n > limit:
        raise ValueError(f"n={p.n} exceeds profile limit {limit}")
    codes = np.arange(1 << p.n, dtype=np.int64)
    X = ((codes[:, None] >> np.arange(p.n, dtype=np.int64)[None, :]) & 1) * 2 - 1
    return p.scale, p.values(X)
