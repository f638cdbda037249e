"""Exact model counting via the non-orthogonal cluster expansion.

Expanding the product that evaluates a CNF over all assignments turns the
model count into an alternating sum over clusters of clauses.  A cluster
containing two clauses with opposite literals in some column (an orthogonal
pair) contributes nothing, so only cliques of the pairwise-compatibility
graph count:

    N(F) = 2**n * (1 + sum over non-orthogonal clusters c of (-1)^|c| 2**-k_c)

with k_c the number of distinct variables occurring in the cluster.  Every
term 2**(n - k_c) is an exact integer, handled with Python bignums.

A non-orthogonal cluster is violated by exactly 2**(n - k_c) assignments
and an orthogonal one by none, so the size-k terms also sum to
sum_x C(u(x), k), with u(x) the number of clauses x violates.  Up to
HISTOGRAM_N_LIMIT variables the partial sums are read from the histogram of
u that one assignment scan gives; above it the cliques are enumerated, on
the clause masks of the elimination engine (`transforms._masks`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernels
from .dyadic import Dyadic
from .pseudo_boolean import clause_mass
from .scheme_core import Scheme
from .transforms import FULL_BLOW_UP_LIMIT, _literals, _masks, _occurrences

__all__ = [
    "CountResult",
    "count_solutions",
    "count_by_cliques",
    "count_via_primes",
    "solution_lower_bound",
    "DEFAULT_N_LIMIT",
    "HISTOGRAM_N_LIMIT",
]

DEFAULT_N_LIMIT = 63
HISTOGRAM_N_LIMIT = 24


@dataclass(frozen=True)
class CountResult:
    """Cluster-expansion outcome.

    `partials[k]` is the signed sum (-1)^k * sum 2**(n - k_c) over all
    clusters of size k; the size-0 entry is the base term 2**n, so the total
    is simply the sum of all partials, and only sizes with some
    non-orthogonal cluster have an entry.  `cluster_count` counts the
    nonempty clusters enumerated: 0 when the partials come from the
    violation histogram.
    """

    total: int
    partials: dict[int, int]
    cluster_count: int


def count_solutions(s: Scheme, n_limit: int = DEFAULT_N_LIMIT) -> CountResult:
    """Exact model count by the cluster expansion.

    Up to HISTOGRAM_N_LIMIT variables one assignment scan gives hist[u],
    the number of assignments violating exactly u clauses, and
    partials[k] = (-1)^k * sum_u hist[u] * C(u, k) in exact integers;
    cluster_count is then 0.  Above it the cliques are enumerated
    (`count_by_cliques`).  The n cap merely keeps the 2**n base term in
    check and may be raised freely (bignum arithmetic).
    """
    if s.n > n_limit:
        raise ValueError(f"count_solutions refuses n={s.n} > limit {n_limit}")
    if s.n > HISTOGRAM_N_LIMIT:
        return count_by_cliques(s)
    _, _, _, hist, _ = kernels.assignment_scan(s.cells)
    hist = {u: c for u, c in enumerate(hist.tolist()) if c}
    partials = {
        k: (-1) ** k * sum(c * comb(u, k) for u, c in hist.items() if u >= k)
        for k in range(max(hist) + 1)
    }
    return CountResult(total=sum(partials.values()), partials=partials, cluster_count=0)


def count_by_cliques(s: Scheme) -> CountResult:
    """Exact model count by depth-first clique enumeration.

    Rows are compatible when not orthogonal (a row's own bit is set too);
    each clique is visited once by extending only with higher row indices.
    Row i's compatible rows are those holding no complement of its
    literals, read off per-literal row bitsets over the clause masks of
    `transforms._masks`.  The exact path above HISTOGRAM_N_LIMIT variables,
    and the reference for the histogram path.
    """
    m, n = s.m, s.n
    masks = _masks(s)
    lits = {c: _literals(c) for c in masks}
    occ = _occurrences(masks, lits, 2 * n)
    everyone = (1 << m) - 1
    compat = []
    for c in masks:
        clash = 0
        for b in lits[c]:
            clash |= occ[(b + n) % (2 * n)]  # the rows holding b's complement
        compat.append(everyone & ~clash)
    supports = [(c | c >> n) & ((1 << n) - 1) for c in masks]

    partials: dict[int, int] = {0: 1 << n}
    clusters = 0
    for root in range(m):
        above = ~((1 << (root + 1)) - 1)
        stack = [(supports[root], 1, compat[root] & above)]
        while stack:
            support, size, cand = stack.pop()
            clusters += 1
            term = 1 << (n - support.bit_count())
            partials[size] = partials.get(size, 0) + (term if size % 2 == 0 else -term)
            mm = cand
            while mm:
                j = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                stack.append(
                    (support | supports[j], size + 1, cand & compat[j] & ~((1 << (j + 1)) - 1))
                )

    total = sum(partials.values())
    assert 0 <= total <= (1 << n), f"cluster expansion out of range: {total}"
    return CountResult(total=total, partials=partials, cluster_count=clusters)


def count_via_primes(s: Scheme, n_limit: int = FULL_BLOW_UP_LIMIT) -> int:
    """Model count as the number of primes missing from the full blow-up.

    A prime (clause containing every variable) excludes exactly one
    assignment, and blowing every clause up to primes leaves the solution
    set untouched; the assignments not excluded are precisely the models.
    Equivalent to full_blow_up + deduplication, but tracked as a presence
    mask over the 2**n possible primes.
    """
    if s.n > n_limit:
        raise ValueError(f"count_via_primes refuses n={s.n} > limit {n_limit}")
    n = s.n
    present = np.zeros(1 << n, dtype=bool)
    for i in range(s.m):
        base = 0
        free: list[int] = []
        for j in range(n):
            f = int(s.cells[i, j])
            if f == 1:
                base |= 1 << j
            elif f == 0:
                free.append(j)
        idx = np.full(1 << len(free), base, dtype=np.int64)
        combos = np.arange(1 << len(free), dtype=np.int64)
        for b, col in enumerate(free):
            idx |= ((combos >> b) & 1) << col
        present[idx] = True
    return (1 << n) - int(np.count_nonzero(present))


def solution_lower_bound(s: Scheme) -> Dyadic | float:
    """2**n * (1 - sum 2**-k_i); a positive value certifies satisfiability.

    The clique sum truncated after singleton clusters can only undershoot
    the total, which is what this bound expresses.  Requires every clause to
    carry at least one literal; with an empty clause present the bound is
    meaningless and -inf is returned.
    """
    if s.has_empty_row():
        return float("-inf")
    return Dyadic(1 << s.n) * (Dyadic(1) - clause_mass(s))
