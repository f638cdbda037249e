"""Exact minimization of the unsatisfied-clause count by variable elimination.

u is linear in each variable, so u(x_v, y) = u(0, y) + x_v * S_v(y).  When
the swing factor S_v keeps one sign over all y the optimal value of x_v is
forced and one variable disappears without branching; otherwise both values
must be explored.

Flat form.  `pb_coefficients` runs once, at the root.  Every node's form is
one int64 vector in the root's indexing, at the root's scale 2**E:
c = [C, lam, mu over the pairs that share a root term, nu over the root's
triples].  Fixing x_v = a moves each monomial on v onto its image without v
(lam_v onto C, mu_vj onto lam_j, nu_vjk onto mu_jk): c[dst] -= a c[src],
then c[src] = 0.  The multilinear expansion is unique (Boros & Hammer, DAM
2002), so this is exactly the form of the reduced formula.  M -> M without v is
injective, so no slot receives two terms, and the slots of monomials on
fixed variables stay 0.  The `resolve_weights` bound keeps every value
exact in int64.

Per-depth S tables.  Depth d fixes order[d], so every node there has the
same free set.  The fold's slots and a +-1 basis over R_d, the free
variables that share a root term with order[d], are built once per depth,
and S at a node is the basis times the slots the fold reads.  R_d contains
the node's exact support and S does not depend on the other columns, so
the min and max are those over the exact support.  The kept bases hold at
most S_CACHE entries per search; a depth past that, or past S_BLOCK rows,
tabulates S over the node's exact support, S_BLOCK assignments at a time.

Deferred shortcut scans.  When the coefficient mass is below C, u > 0 on
the whole subtree, and the assignment-scan kernel finishes it.  The scan
is deferred: the hit yields the lower bound ceil((C - mass) / 2**E) >= 1,
and a scan runs only when its value decides which child a branch keeps
(the least value, the first child on a tie), so the result is the one the
eager search gives.  A zero is always exact, so a formula with a model
runs no scan.

`Dyadic` appears only in the returned `SFactor` and `MinimizeOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .checks import check_coefficient_bound  # noqa: F401  unused; the benchmark tracer wraps minimizer.check_coefficient_bound
from .dyadic import Dyadic, ZERO
from .pseudo_boolean import PBForm, pb_coefficients, unsat_count_direct
from .scheme_core import Scheme
from .transforms import _check_permutation
from .transforms import assign  # noqa: F401  unused; the benchmark tracer wraps minimizer.assign

__all__ = [
    "SFactor",
    "MinimizeOutcome",
    "BranchLimitExceeded",
    "s_factor",
    "minimize_u",
    "SUPPORT_LIMIT",
]

SUPPORT_LIMIT = 24
S_BLOCK = 1 << 16  # most +-1 support assignments tabulated at once
S_CACHE = 1 << 20  # most basis entries the per-depth S tables of one search keep


class BranchLimitExceeded(RuntimeError):
    """Raised instead of returning anything once the branch budget is spent."""


@dataclass(frozen=True)
class SFactor:
    """Swing factor of one variable in u.

    `support` lists the other variables S depends on (at most 6 when every
    variable occurs at most three times in a 3-SAT scheme); `table` maps
    each +-1 assignment of the support (in support order) to the exact
    value.  Case 'i' (S >= 0 everywhere) forces x = -1, case 'ii' (S <= 0)
    forces x = +1, case 'iii' branches.
    """

    var: int
    support: tuple[int, ...]
    table: dict[tuple[int, ...], Dyadic]
    s_min: Dyadic
    s_max: Dyadic

    @property
    def case(self) -> str:
        if not (self.s_min < ZERO):
            return "i"
        if not (ZERO < self.s_max):
            return "ii"
        return "iii"


class _Layout:
    """The root form as one flat vector, and the slots each depth's fold moves.

    `rank[v]` is the depth at which v is fixed.  A monomial is folded at the
    depth of its first fixed variable v, while its other variables are
    free.  Depth d's slots are one run of `src`/`dst`: lam_v, then mu_vj
    for j in R_d (ascending), then nu_vjk; `pos` holds each triple's j and
    k as positions in R_d.  S = -lam_v + sum mu_vj y_j - sum nu_vjk y_j y_k
    reads exactly the src slots.
    """

    def __init__(self, p: PBForm, rank: np.ndarray):
        n, tri = p.n, p.nu_idx
        i, j = np.nonzero(p.mu)
        i, j = i[i < j], j[i < j]
        # every pair whose mu can be nonzero at some node: nonzero at the
        # root, or inside a root triple
        keys = np.sort(np.concatenate([i * n + j, (tri[:, [0, 0, 1]] * n + tri[:, [1, 2, 2]]).ravel()]))
        keys = keys[np.diff(keys, prepend=-1) != 0]  # not np.unique, which imports numpy.ma
        a, b = keys // n, keys % n
        self.keys, self.tri = keys, tri  # the pairs (i * n + j, i < j) and triples of the slots
        self.c = np.concatenate([[p.const], p.lam, p.mu[a, b], p.nu_val])

        a_first = rank[a] < rank[b]
        pair_depth = np.where(a_first, rank[a], rank[b])
        other = np.where(a_first, b, a)
        lead = rank[tri].argmin(axis=1)
        tri_depth = rank[tri[np.arange(len(tri)), lead]]
        jk = tri[np.arange(3) != lead[:, None]].reshape(-1, 2)
        pair_at = np.sort(pair_depth * n + other)  # the pairs by depth, then other
        pos = np.searchsorted(pair_at, tri_depth[:, None] * n + jk) - np.searchsorted(pair_at, tri_depth * n)[:, None]

        P, T = len(keys), len(tri)
        depth = np.concatenate([rank, pair_depth, tri_depth])
        kind = np.repeat([0, 1, 2], [n, P, T])  # lam, mu, nu
        by_depth = np.lexsort((np.concatenate([np.zeros(n, np.int64), other, np.zeros(T, np.int64)]), kind, depth))
        self.src = np.arange(1, 1 + n + P + T)[by_depth]
        self.dst = np.concatenate(
            [np.zeros(n, np.int64), 1 + other, 1 + n + np.searchsorted(keys, jk[:, 0] * n + jk[:, 1])]
        )[by_depth]
        self.pos = np.concatenate([np.zeros((n + P, 2), np.int64), pos])[by_depth]
        self.start = np.searchsorted(depth[by_depth], np.arange(n + 1))
        self.r = np.bincount(pair_depth, minlength=n)

    def slots(self, d: int):
        """(src, dst, |R_d|, pos) of the fold at depth d."""
        lo, hi, r = self.start[d], self.start[d + 1], self.r[d]
        return self.src[lo:hi], self.dst[lo:hi], int(r), self.pos[lo + 1 + r : hi]


def _basis(k: int, pos: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the +-1 matrix with S = basis @ [lam, mu (k), nu].

    Row `code` has y_b = +1 where bit b of code is set, else -1.  The
    columns are the constant -1, each y_b, and -y_j y_k for each triple's
    two positions in `pos`.
    """
    y = ((np.arange(start, stop)[:, None] >> np.arange(k)) & 1) * 2 - 1
    return np.concatenate([np.full((stop - start, 1), -1), y, -(y[:, pos[:, 0]] * y[:, pos[:, 1]])], axis=1)


def _exact_s(cs: np.ndarray, r: int, pos: np.ndarray):
    """(support positions in R, coefficients, triple positions) of S over its exact support.

    `cs` is [lam_v, mu over R, nu] as `_Layout.slots` orders it.  Raises
    ValueError when the support exceeds SUPPORT_LIMIT.
    """
    keep = cs[1 : 1 + r] != 0
    keep[pos] = True  # every live triple is nonzero
    support = np.flatnonzero(keep)
    if len(support) > SUPPORT_LIMIT:
        raise ValueError(f"S-factor support {len(support)} exceeds limit {SUPPORT_LIMIT}")
    coefs = np.concatenate([cs[:1], cs[1 + support], cs[1 + r :]])
    return support, coefs, (np.cumsum(keep) - 1)[pos]


def _s_blocks(k: int, pos: np.ndarray, coefs: np.ndarray) -> Iterator[np.ndarray]:
    """Scaled S at every +-1 assignment of k support variables, in code order.

    At most S_BLOCK assignments are tabulated at once, so memory stays
    bounded at any support size.
    """
    for start in range(0, 1 << k, S_BLOCK):
        yield _basis(k, pos, start, min(start + S_BLOCK, 1 << k)) @ coefs


def _fold(c: np.ndarray, src: np.ndarray, dst: np.ndarray, cs: np.ndarray, value: int) -> np.ndarray:
    """The flat form `c` with x_v = value; `src`/`dst` are v's slots and images, cs = c[src]."""
    child = c.copy()
    child[dst] -= value * cs
    child[src] = 0
    return child


def s_factor(s: Scheme, var: int) -> SFactor:
    """Swing factor of `var` with canonical weights, tabulated over its support.

    S is tabulated as integers at the form's scale and returned as `Dyadic`
    values.  Cross-checks the defining identity u(+1, y) - u(-1, y) = 2 S(y)
    at y = all-ones before returning; a mismatch is an internal error.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    p = pb_coefficients(s, "canonical")
    rank = np.arange(1, s.n + 1)
    rank[var:] -= 1
    rank[var] = 0  # var first, the others after it in ascending order
    layout = _Layout(p, rank)
    src, dst, r, pos = layout.slots(0)
    support, coefs, pos = _exact_s(layout.c[src], r, pos)
    vals = np.concatenate(list(_s_blocks(len(support), pos, coefs)))
    support = dst[1 + support] - 1  # the images of mu_vj are the lam_j
    e = p.scale_exp
    table = {
        kernels.decode_assignment(code, len(support)): Dyadic(v, e)
        for code, v in enumerate(vals.tolist())
    }

    x = np.ones((2, s.n), dtype=np.int64)
    x[1, var] = -1
    u_plus, u_minus = p.values(x).tolist()
    if u_plus - u_minus != 2 * vals[-1]:
        raise RuntimeError(f"swing-factor identity violated at scale {p.scale}")
    return SFactor(
        var=var,
        support=tuple(support.tolist()),
        table=table,
        s_min=Dyadic(int(vals.min()), e),
        s_max=Dyadic(int(vals.max()), e),
    )


@dataclass(frozen=True)
class MinimizeOutcome:
    """Exact global minimum of u with a witnessing assignment.

    `trace` records the winning elimination path: one entry per fixed
    variable with its case, plus a terminal marker when a subtree was
    finished by the shortcut scan.  `shortcut_events` carries the exact
    (constant, coefficient mass) pair of every shortcut hit.
    """

    u_min: Dyadic
    minimizer: tuple[int, ...]
    branch_count: int
    shortcut_hits: int
    satisfiable: bool
    trace: tuple[dict, ...]
    shortcut_events: tuple[dict, ...]


class _Scan(NamedTuple):
    """A shortcut hit's deferred scan: the rows left at depth d."""

    rows: np.ndarray
    d: int


class _Min(NamedTuple):
    """The first of two results unless the second's value is strictly smaller."""

    first: tuple
    second: tuple


# A search result is (value, exact, chain).  An exact result's value is the
# least violated-clause count below its node; a deferred one's is a lower
# bound >= 1.  `chain` is None, a step (var, value, case, chain), a `_Scan`
# or a `_Min`.


class _Search:
    def __init__(self, p: PBForm, cells: np.ndarray, order: list[int], shortcut: bool, branch_limit: int | None):
        self.rank = np.empty(p.n, dtype=np.int64)
        self.rank[order] = np.arange(p.n)
        self.layout = _Layout(p, self.rank)
        self.scale_exp = p.scale_exp
        self.cells = cells
        self.by_depth = cells[:, order]
        self.order = order
        self.levels: list = [None] * p.n
        self.cache_left = S_CACHE
        self.shortcut = shortcut
        self.branch_limit = branch_limit
        self.branch_count = 0
        self.shortcut_hits = 0
        self.events: list[dict] = []

    def level(self, d: int):
        """(src, dst, R size, triple positions, cached basis or None) at depth d."""
        if self.levels[d] is None:
            src, dst, r, pos = self.layout.slots(d)
            basis = None
            size = (1 << r) * len(src)
            if (1 << r) <= S_BLOCK and size <= self.cache_left:
                self.cache_left -= size
                basis = _basis(r, pos, 0, 1 << r)
            self.levels[d] = (src, dst, r, pos, basis)
        return self.levels[d]

    def run(self, c: np.ndarray, d: int, values: list[int]):
        """The search result below the node with form `c` at depth `d`.

        `c` is the root-scaled flat form of the formula left after fixing
        order[:d] to `values`.
        """
        const = int(c[0])
        if const == 0:
            return 0, True, None  # every clause adds a positive weight to C
        if d == len(self.order):
            # only empty clauses can remain; each contributes exactly 1
            return const >> self.scale_exp, True, None
        if self.shortcut:
            mass = int(np.abs(c[1:]).sum())
            if mass < const:
                return self.hit(const, mass, d, values)

        src, dst, r, pos, basis = self.level(d)
        cs = c[src]
        if basis is not None:
            vals = basis @ cs
            s_min, s_max = vals.min(), vals.max()
        else:
            s_min, s_max = np.inf, -np.inf
            support, coefs, spos = _exact_s(cs, r, pos)
            for vals in _s_blocks(len(support), spos, coefs):
                s_min, s_max = min(s_min, vals.min()), max(s_max, vals.max())
        if s_min >= 0:
            case, choices = "i", (-1,)
        elif s_max <= 0:
            case, choices = "ii", (1,)
        else:
            case, choices = "iii", (-1, 1)
            self.branch_count += 1
            if self.branch_limit is not None and self.branch_count > self.branch_limit:
                raise BranchLimitExceeded(
                    f"exceeded branch limit {self.branch_limit}; no answer returned"
                )

        var = self.order[d]
        best = None
        for value in choices:
            u, exact, chain = self.run(_fold(c, src, dst, cs, value), d + 1, values + [value])
            cand = (u, exact, (var, value, case, chain))
            if best is None or (exact and u < best[0]):
                best = cand  # an exact value below the best's value or bound
            elif not (best[1] and u >= best[0]):
                best = (min(best[0], u), False, _Min(best, cand))
            if best[0] == 0:
                break  # zero is a global lower bound; nothing can beat it
        return best

    def hit(self, const: int, mass: int, d: int, values: list[int]):
        """Record a shortcut hit and defer its scan of the remaining grid.

        The grid is the one chained `assign` calls would give: the rows no
        fixed value satisfies, the free columns in ascending order.
        """
        rows = ~(self.by_depth[:, :d] == values).any(axis=1)
        e = self.scale_exp
        self.shortcut_hits += 1
        self.events.append(
            {
                "constant": Dyadic(const, e),
                "mass": Dyadic(mass, e),
                "scale": 1 << int(np.count_nonzero(self.by_depth[rows, d:], axis=1).max()),
                "vars_left": len(self.order) - d,
            }
        )
        return -((mass - const) >> e), False, _Scan(rows, d)

    def force(self, result):
        """(least violated-clause count, fixed values, trace) of a result.

        Runs the deferred scans the result needs.  A scan covers only the
        free columns its rows use; the others take -1, which is what the
        full scan's smallest-code tie-break picks.
        """
        u, _, chain = result
        fixed, trace = {}, []
        while type(chain) is tuple:
            var, value, case, chain = chain
            fixed[var] = value
            trace.append({"var": var, "case": case, "value": value})
        if type(chain) is _Scan:
            cells = self.cells[chain.rows]
            used = np.flatnonzero(cells.any(axis=0) & (self.rank >= chain.d))
            _, u, code, _, _ = kernels.assignment_scan(cells[:, used])
            fixed.update(zip(used.tolist(), kernels.decode_assignment(int(code), len(used))))
            trace.append({"case": "shortcut-scan", "vars_left": len(self.order) - chain.d})
        elif type(chain) is _Min:
            first = self.force(chain.first)
            if chain.second[0] < first[0]:
                second = self.force(chain.second)
                first = second if second[0] < first[0] else first
            u = first[0]
            fixed.update(first[1])
            trace += first[2]
        return u, fixed, trace


def minimize_u(
    s: Scheme,
    order: Sequence[int] | None = None,
    shortcut: bool = True,
    branch_limit: int | None = None,
) -> MinimizeOutcome:
    """Exact minimum of the violated-clause count over all assignments.

    Variables are eliminated in `order` (default ascending); sign-constant
    swing factors fix their variable outright, the rest branch.  With
    `shortcut` enabled, subtrees whose coefficient mass proves u > 0 are
    finished by a direct scan instead of further case analysis; the result
    is identical either way.  `branch_limit` (default None, unlimited)
    aborts runaway instances with BranchLimitExceeded rather than ever
    returning a wrong answer.
    """
    if order is None:
        order = list(range(s.n))
    else:
        order = _check_permutation(order, s.n, "elimination")

    search = _Search(pb_coefficients(s, "canonical"), s.cells, order, shortcut=shortcut, branch_limit=branch_limit)
    u_min, fixed, trace = search.force(search.run(search.layout.c, 0, []))
    minimizer = tuple(fixed.get(j, -1) for j in range(s.n))

    if unsat_count_direct(s, minimizer) != u_min:
        raise RuntimeError("internal error: minimizer does not attain the reported minimum")
    return MinimizeOutcome(
        u_min=Dyadic(u_min),
        minimizer=minimizer,
        branch_count=search.branch_count,
        shortcut_hits=search.shortcut_hits,
        satisfiable=(u_min == 0),
        trace=tuple(trace),
        shortcut_events=tuple(search.events),
    )
