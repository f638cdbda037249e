"""Assignment-space scan kernels.

Everything here covers all 2**n assignments of a formula, which dominates the
runtime of the brute-force oracle and of the exact eigenvalue-bound check.
Both scans split and multiply (after R. Williams, "A new algorithm for
optimal 2-constraint satisfaction and its implications", TCS 2005):

* the variables split into a low half (the low ``n // 2`` code bits) and a
  high half;
* per term (a clause, or a monomial of the cubic form) each half-assignment
  gets one table entry for its part of the term;
* one matrix product of a chunk of high-half rows with the low-half table
  gives the value of every code in that chunk, in ascending code order.

The high half is processed in chunks of about ``_CHUNK_ENTRIES`` codes, so
memory stays flat at any n.  The products are exact: violation counts are
small integers (exact in float32 for m < 2**24, float64 beyond), and the
cubic form's values are exact in float64 for dyadic coefficients with small
exponents.

Assignment encoding: an assignment is an integer code in [0, 2**n); bit j set
means x_j = +1 (true), clear means x_j = -1.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "assignment_scan",
    "cubic_form_scan",
    "assignment_profile",
    "decode_assignment",
]

# Codes per matrix product; a chunk spans max(1, _CHUNK_ENTRIES >> lo) high rows.
_CHUNK_ENTRIES = 1 << 18
_BLOCK_BITS = 16


def backend() -> str:
    """Name of the kernel implementation (always 'numpy')."""
    return "numpy"


def decode_assignment(code: int, n: int) -> tuple[int, ...]:
    """Integer code -> tuple over {-1, +1} (bit j set means +1)."""
    return tuple(1 if (code >> j) & 1 else -1 for j in range(n))


# --- split-and-multiply scans ------------------------------------------------

def _bits(start: int, stop: int, width: int) -> np.ndarray:
    """0/1 matrix of the low `width` bits of the codes start..stop-1."""
    codes = np.arange(start, stop, dtype=np.int64)
    return ((codes[:, None] >> np.arange(width, dtype=np.int64)) & 1).astype(np.float64)


def _chunks(n: int):
    """(lo, row ranges of the high half) for a scan over n variables."""
    lo = n // 2
    rows = max(1, _CHUNK_ENTRIES >> lo)
    high = 1 << (n - lo)
    return lo, [(h, min(h + rows, high)) for h in range(0, high, rows)]


def _falsified(pos: np.ndarray, neg: np.ndarray, start: int, stop: int, dtype) -> np.ndarray:
    """1 where half-codes start..stop-1 make no literal of a clause's half true.

    `pos`/`neg` are the 0/1 positive/negative literal incidences (m x width)
    of one half; the result is (stop - start) x m.
    """
    bits = _bits(start, stop, pos.shape[1])
    true_lits = bits @ (pos - neg).T + neg.sum(axis=1)
    return (true_lits == 0).astype(dtype)


def assignment_scan(fmat: np.ndarray, collect: bool = False):
    """Scan all assignments of the clause matrix.

    Returns (sat_count, u_min, min_code, hist, solution_codes) where hist[k]
    is the number of assignments violating exactly k clauses, u_min the least
    violation count, min_code the smallest assignment code attaining it, and
    solution_codes the codes with zero violations (ascending; empty unless
    `collect`).
    """
    fmat = np.asarray(fmat, dtype=np.int8)
    m, n = fmat.shape
    lo, chunks = _chunks(n)
    pos = (fmat == 1).astype(np.float64)
    neg = (fmat == -1).astype(np.float64)
    dtype = np.float32 if m < (1 << 24) else np.float64
    low_t = np.ascontiguousarray(_falsified(pos[:, :lo], neg[:, :lo], 0, 1 << lo, dtype).T)

    hist = np.zeros(m + 1, np.int64)
    u_min, min_code = m + 1, -1
    sols = []
    for start, stop in chunks:
        high = _falsified(pos[:, lo:], neg[:, lo:], start, stop, dtype)
        u = (high @ low_t).astype(np.intp).ravel()
        hist += np.bincount(u, minlength=m + 1)
        k = int(u.argmin())
        if u[k] < u_min:
            u_min, min_code = int(u[k]), (start << lo) + k
        if collect:
            sols.append(np.flatnonzero(u == 0) + (start << lo))
    sols = np.concatenate(sols) if sols else np.empty(0, np.int64)
    return int(hist[0]), u_min, min_code, hist, sols


def _monomials(support: np.ndarray, start: int, stop: int) -> np.ndarray:
    """+-1 value of each half-monomial at half-codes start..stop-1.

    `support` is the 0/1 variable incidence (terms x width) of one half; a
    monomial is -1 exactly when an odd number of its variables are -1.
    """
    set_bits = _bits(start, stop, support.shape[1]) @ support.T + support.sum(axis=1)
    return 1.0 - 2.0 * (set_bits.astype(np.int64) & 1)


def cubic_form_scan(n: int, lam: np.ndarray, nu_idx: np.ndarray, nu_val: np.ndarray):
    """Extrema of sum(lam_j x_j) + sum(nu_t x_i x_j x_k) over all sign vectors.

    Returns (min_val, min_code, max_val, max_code) with smallest-code
    tie-breaking.  Exact as long as inputs are dyadic with small exponents
    (float64 then incurs no rounding).
    """
    lam = np.asarray(lam, dtype=np.float64)
    nu_idx = np.asarray(nu_idx, dtype=np.int64).reshape(-1, 3)
    nu_val = np.asarray(nu_val, dtype=np.float64)
    # term t is coef[t] times the product of the variables in support[t]
    support = np.zeros((n + len(nu_idx), n), np.int64)
    support[np.arange(n), np.arange(n)] = 1
    np.add.at(support, (np.arange(n, n + len(nu_idx))[:, None], nu_idx), 1)
    support = (support % 2).astype(np.float64)
    coef = np.concatenate([lam, nu_val])
    keep = coef != 0
    support, coef = support[keep], coef[keep]

    lo, chunks = _chunks(n)
    low_t = np.ascontiguousarray(_monomials(support[:, :lo], 0, 1 << lo).T)
    min_val = max_val = None
    min_code = max_code = -1
    for start, stop in chunks:
        high = _monomials(support[:, lo:], start, stop) * coef
        val = (high @ low_t).ravel()
        a, b = int(val.argmin()), int(val.argmax())
        if min_val is None or val[a] < min_val:
            min_val, min_code = float(val[a]), (start << lo) + a
        if max_val is None or val[b] > max_val:
            max_val, max_code = float(val[b]), (start << lo) + b
    return min_val, min_code, max_val, max_code


# --- reference profile -------------------------------------------------------

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

    Materializes 2**n values, so n is capped (default 24).  This is an
    analysis/test surface evaluated clause by clause, independent of the
    split-and-multiply scan, not a hot aggregate.
    """
    fmat = np.ascontiguousarray(fmat, dtype=np.int8)
    n = fmat.shape[1]
    if n > limit:
        raise ValueError(f"n={n} exceeds profile limit {limit}")
    total = 1 << n
    out = np.empty(total, np.int64)
    block = min(total, 1 << _BLOCK_BITS)
    for base in range(0, total, block):
        codes = np.arange(base, min(base + block, total), dtype=np.int64)
        out[base : base + len(codes)] = _block_violations(fmat, codes)
    return out
