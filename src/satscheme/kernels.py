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

An assignment scan over several chunks reads the minimum from the first
chunk's plain product and only the histogram from the others.  Those
multiply by a pair-packed low table, so product entry j is
u[2j] + (m + 1) u[2j + 1]: an integer below (m + 1)**2 <= 2**16, exact in
float32.  The product, cast and ``bincount`` (over (m + 1)**2 bins) then
touch half the entries; only a chunk whose histogram holds a count below
the current minimum is multiplied again by the plain table for its argmin.
Packing needs at least 16 codes per bin, 16 (m + 1)**2 <= 2**n, and at most
2**16 bins (m <= 255); with more bins per code the ``bincount`` and its sums
cost more than the halved product saves.  Other scans, single-chunk scans
and ``collect`` scans keep the plain product throughout.

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

# Codes per matrix product; a chunk spans max(1, _CHUNK_ENTRIES >> lo) high
# rows.  Of 2**14..2**18, 2**15 scanned fastest (both scans, n = 17..20).
_CHUNK_ENTRIES = 1 << 15
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


def _product(high: np.ndarray, low_t: np.ndarray) -> np.ndarray:
    """`high @ low_t`, ignoring a stray "invalid" flag from the BLAS call.

    The operands are finite 0/1, small-integer or dyadic tables, and the
    product has raised the flag with exact results; in the assignment scan a
    real NaN would still warn when cast to integers.
    """
    with np.errstate(invalid="ignore"):
        return high @ low_t


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
    if m == 0:  # every assignment is a model
        return 1 << n, 0, 0, np.array([1 << n], np.int64), np.arange(1 << n) if collect else np.empty(0, np.int64)
    lo, chunks = _chunks(n)
    pos = (fmat == 1).astype(np.float64)
    neg = (fmat == -1).astype(np.float64)
    dtype = np.float32 if m < (1 << 24) else np.float64
    low_t = np.ascontiguousarray(_falsified(pos[:, :lo], neg[:, :lo], 0, 1 << lo, dtype).T)

    hist = np.zeros(m + 1, np.int64)
    u_min, min_code = m + 1, -1
    sols = []
    bins = (m + 1) ** 2
    # Later chunks only feed the histogram: one product entry holds the pair
    # u[2j] + (m + 1) * u[2j + 1], one of `bins` values.
    pair_t = None
    if len(chunks) > 1 and not collect and 16 * bins <= 1 << min(n, 20):
        pair_t = low_t[:, 0::2] + (m + 1) * low_t[:, 1::2]
    for i, (start, stop) in enumerate(chunks):
        high = _falsified(pos[:, lo:], neg[:, lo:], start, stop, dtype)
        packed = i > 0 and pair_t is not None
        if packed:
            pairs = _product(high, pair_t).astype(np.intp).ravel()
            joint = np.bincount(pairs, minlength=bins).reshape(m + 1, m + 1)
            counts = joint.sum(0) + joint.sum(1)
            hist += counts
            if not counts[:u_min].any():
                continue  # the chunk does not lower u_min
        u = _product(high, low_t).astype(np.intp).ravel()
        if not packed:
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
        val = _product(high, low_t).ravel()
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
