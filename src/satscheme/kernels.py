"""Assignment-space scan kernels.

Everything here covers all 2**n assignments of a formula, which dominates the
runtime of the brute-force oracle and of the exact eigenvalue-bound check.
Both scans split and multiply (after R. Williams, "A new algorithm for
optimal 2-constraint satisfaction and its implications", TCS 2005):

* the variables split into a low half (the low ``n // 2`` code bits) and a
  high half;
* per term (a clause, or a monomial of the cubic form) each half-assignment
  gets one table entry for its part of the term; each half's table is built
  once per scan, in float32 (exact for 0/1 entries and the small integer
  counts behind them);
* one matrix product of a chunk of high-half rows with the low-half table
  gives the value of every code in that chunk, in ascending code order.

A scan of more than one chunk first merges terms that share a half-part
(``_tables``): a term with no more literals (variables) in its high half than
in its low half joins the terms with the same high part, whose low rows add
up; any other term joins the terms with the same low part, whose high
columns add up.  The product is unchanged, but its inner dimension K falls
from the number of terms to the number of distinct parts: for terms of width
<= 3 at most 2n + 2 for clauses and n + 2 for the cubic form.  Single-chunk
scans skip the merge, which costs more than it saves there.

The high half is processed in chunks of about ``_CHUNK_ENTRIES`` codes, and
memory is bounded by the two half-tables: 2**lo and 2**(n - lo) rows of m
(or K) entries.  The products are exact: violation counts and merged entries
are integers at most m (exact in float32 for m < 2**24, float64 beyond), and
the cubic form's values and merged entries are exact in float64 for dyadic
coefficients with small exponents.

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

from functools import partial

import numpy as np

__all__ = [
    "backend",
    "assignment_scan",
    "cubic_form_scan",
    "decode_assignment",
]

# Codes per matrix product; a chunk spans max(1, _CHUNK_ENTRIES >> lo) high
# rows.  Of 2**14..2**18, 2**15 scanned fastest (both scans, n = 17..20).
_CHUNK_ENTRIES = 1 << 15


def backend() -> str:
    """Name of the kernel implementation (always 'numpy')."""
    return "numpy"


def decode_assignment(code: int, n: int) -> tuple[int, ...]:
    """Integer code -> tuple over {-1, +1} (bit j set means +1)."""
    return tuple(1 if (code >> j) & 1 else -1 for j in range(n))


# --- split-and-multiply scans ------------------------------------------------

def _bits(width: int) -> np.ndarray:
    """0/1 float32 matrix (2**width x width) of the bits of every half-code."""
    codes = np.arange(1 << width, dtype=np.int64)
    return ((codes[:, None] >> np.arange(width, dtype=np.int64)) & 1).astype(np.float32)


def _chunks(n: int):
    """(lo, row ranges of the high half) for a scan over n variables."""
    lo = n // 2
    rows = max(1, _CHUNK_ENTRIES >> lo)
    high = 1 << (n - lo)
    return lo, [(h, min(h + rows, high)) for h in range(0, high, rows)]


def _falsified(half: np.ndarray, dtype) -> np.ndarray:
    """1 where a half-code makes no literal of a clause's half true.

    `half` is one half's columns (m x width) of the clause matrix; the result
    is 2**width x m.  The true-literal counts are small integers, exact in
    float32.
    """
    # bits @ half.T counts the set positive minus the set negative literals,
    # and reaches -(negative literals) only when no literal is true
    negatives = (half == -1).sum(axis=1, dtype=np.float32)
    return (_bits(half.shape[1]) @ half.T.astype(np.float32) == -negatives).astype(dtype)


def _monomials(half: np.ndarray) -> np.ndarray:
    """+-1 value of each half-monomial at every half-code (2**width x terms).

    `half` is one half's columns of the 0/1 variable incidence; a monomial is
    -1 exactly when an odd number of its variables are -1.
    """
    # in place: each further full-size temporary of a large table cost page
    # faults on every call, several times the arithmetic
    sign = (_bits(half.shape[1]) @ half.T.astype(np.float32)).astype(np.int32)
    sign += half.sum(axis=1, dtype=np.int32)
    sign &= 1
    sign *= -2
    sign += 1
    return sign.astype(np.float64)


def _tables(parts: np.ndarray, lo: int, build, coef=None, merge: bool = False):
    """Low (K x 2**lo) and high (2**hi x K) tables whose product is the scan.

    Row t of `parts` is term t over the n variables, `build` makes one half's
    table (a column per term), and the term's value is coef[t] (default 1)
    times its two entries.  Without `merge` K is the number of terms; with
    it, the terms that share a half-part (module docstring) become one
    column: their entries in the other half add up, times coef, and the
    shared half keeps the first member's entry.
    """
    low_part, high_part = parts[:, :lo], parts[:, lo:]
    low, high = build(low_part), build(high_part)
    if not merge:
        return np.ascontiguousarray(low.T), high if coef is None else high * coef
    by_high = np.count_nonzero(high_part, axis=1) <= np.count_nonzero(low_part, axis=1)
    keys = np.where(by_high, _key(high_part), -1 - _key(low_part))
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    lead = np.zeros(len(keys), bool)
    lead[first] = True
    weight = 1 if coef is None else coef
    terms = np.arange(len(keys))
    onehot = np.zeros((len(first), len(keys)), low.dtype)
    onehot[group, terms] = np.where(by_high, weight, lead)
    low_t = _product(onehot, low.T)
    onehot[group, terms] = np.where(by_high, lead, weight)
    return low_t, _product(high, onehot.T)


def _key(part: np.ndarray) -> np.ndarray:
    """Base-3 key of each {-1, 0, 1} row; exact in int64 up to 39 columns."""
    return (part.astype(np.int64) + 1) @ 3 ** np.arange(part.shape[1], dtype=np.int64)


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
    dtype = np.float32 if m < (1 << 24) else np.float64
    low_t, table = _tables(fmat, lo, partial(_falsified, dtype=dtype), merge=len(chunks) > 1)

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
        high = table[start:stop]
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
    support %= 2
    coef = np.concatenate([lam, nu_val])
    keep = coef != 0
    support, coef = support[keep], coef[keep]

    lo, chunks = _chunks(n)
    low_t, table = _tables(support, lo, _monomials, coef, merge=len(chunks) > 1)
    min_val = max_val = None
    min_code = max_code = -1
    for start, stop in chunks:
        val = _product(table[start:stop], low_t).ravel()
        a, b = int(val.argmin()), int(val.argmax())
        if min_val is None or val[a] < min_val:
            min_val, min_code = float(val[a]), (start << lo) + a
        if max_val is None or val[b] > max_val:
            max_val, max_code = float(val[b]), (start << lo) + b
    return min_val, min_code, max_val, max_code
