"""The least number of violated clauses, and the paper's swing factors.

`minimize_u` is a depth-first branch and bound on the clause masks of
`transforms._masks` (Borchers & Furman, J. Comb. Optim. 1999).  Each
distinct clause is one Python int with its multiplicity, since duplicate
rows each count toward u; empty rows are the base cost.  Setting a literal
drops the clauses it satisfies and clears its complement from the others;
a clause left empty adds its multiplicity to the cost.  The lower bound at
a node is its cost plus min(w(v), w(-v)) over each pair of complementary
unit clauses, since one of the two is violated whatever value v takes.  A
subtree is cut when its bound reaches the incumbent, and the search stops
once the incumbent equals the base cost.  It branches on the variable with
the most weighted occurrences (the lowest index on a tie), its more
frequent literal first, or on the first variable of an explicit order that
still occurs.

`s_factor` is the paper's view of the same question.  u is linear in each
variable, so u(x_v, y) = u(0, y) + x_v S_v(y); when the swing factor S_v
keeps one sign over all y the optimal value of x_v is forced.  It is
tabulated from `pb_coefficients` over S_v's support, at most S_BLOCK
assignments at a time.

`Dyadic` appears only in the returned `SFactor` and `MinimizeOutcome`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .checks import check_coefficient_bound  # noqa: F401  unused; the benchmark tracer wraps minimizer.check_coefficient_bound
from .dyadic import Dyadic, ZERO
from .pseudo_boolean import pb_coefficients, unsat_count_direct
from .scheme_core import Scheme
from .transforms import _check_permutation, _literals, _masks
from .transforms import assign  # noqa: F401  unused; the benchmark tracer wraps minimizer.assign

__all__ = [
    "SFactor",
    "MinimizeOutcome",
    "BranchLimitExceeded",
    "s_factor",
    "minimize_u",
    "SUPPORT_LIMIT",
    "BRANCH_LIMIT",
]

SUPPORT_LIMIT = 24  # most variables an S-factor may depend on
S_BLOCK = 1 << 16  # most +-1 support assignments `s_factor` tabulates at once
BRANCH_LIMIT = 100_000  # default branch budget of `minimize_u`


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


def _basis(k: int, pos: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the +-1 matrix with S = basis @ [lam, mu (k), nu].

    Row `code` has y_b = +1 where bit b of code is set, else -1.  The
    columns are the constant -1, each y_b, and -y_j y_k for each triple's
    two positions in `pos`.
    """
    y = ((np.arange(start, stop)[:, None] >> np.arange(k)) & 1) * 2 - 1
    return np.concatenate([np.full((stop - start, 1), -1), y, -(y[:, pos[:, 0]] * y[:, pos[:, 1]])], axis=1)


def s_factor(s: Scheme, var: int) -> SFactor:
    """Swing factor of `var` with canonical weights, tabulated over its support.

    S = -lam_v + sum_j mu_vj y_j - sum nu_vjk y_j y_k, so its support is
    every j with mu_vj != 0 or in a triple with v.  S is tabulated as
    integers at the form's scale and returned as `Dyadic` values.  Raises
    ValueError when the support exceeds SUPPORT_LIMIT.  Cross-checks the
    defining identity u(+1, y) - u(-1, y) = 2 S(y) at y = all-ones before
    returning; a mismatch is an internal error.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    p = pb_coefficients(s, "canonical")
    on_var = (p.nu_idx == var).any(axis=1)
    pairs = p.nu_idx[on_var][p.nu_idx[on_var] != var].reshape(-1, 2)
    keep = p.mu[var] != 0
    keep[pairs] = True  # every stored triple is nonzero
    support = np.flatnonzero(keep)
    k = len(support)
    if k > SUPPORT_LIMIT:
        raise ValueError(f"S-factor support {k} exceeds limit {SUPPORT_LIMIT}")
    pos = np.searchsorted(support, pairs)
    coefs = np.concatenate([[p.lam[var]], p.mu[var, support], p.nu_val[on_var]])
    vals = np.concatenate(
        [_basis(k, pos, start, min(start + S_BLOCK, 1 << k)) @ coefs for start in range(0, 1 << k, S_BLOCK)]
    )
    e = p.scale_exp
    table = {kernels.decode_assignment(code, k): Dyadic(v, e) for code, v in enumerate(vals.tolist())}

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

    `minimizer` is the first optimum the search reaches, with -1 on the
    columns its path leaves free.  `trace` lists that path, one
    {"var", "case", "value"} entry per fixed variable: case "branch", or
    "unit" for a unit clause the bound forced.
    `branch_count` counts the nodes that branched and `shortcut_hits` the
    subtrees the unit-pair bound cut.
    """

    u_min: Dyadic
    minimizer: tuple[int, ...]
    branch_count: int
    shortcut_hits: int
    satisfiable: bool
    trace: tuple[dict, ...]


class _Search:
    """One branch and bound; `best` and `best_path` hold the incumbent.

    `floor` is the base cost: no assignment violates fewer clauses.
    """

    def __init__(self, n: int, order: list[int] | None, branch_limit: int | None, floor: int, best: int):
        self.n = n
        self.order = order
        self.branch_limit = branch_limit
        self.floor = floor
        self.best = best
        self.best_path: list[tuple[int, int, str]] = []
        self.path: list[tuple[int, int, str]] = []
        self.branch_count = 0
        self.shortcut_hits = 0

    def run(self, clauses: dict[int, int], occ: list[int], cost: int) -> None:
        """Search below the node with clause multiplicities `clauses`.

        occ[b] is the weighted count of literal b in `clauses`, and `cost`
        the number of clauses the path has already violated.
        """
        if not clauses:
            if cost < self.best:
                self.best, self.best_path = cost, self.path.copy()
            return
        n = self.n
        unit = None
        units = [c for c in clauses if not c & (c - 1)]
        bound = cost
        for c in units:
            if c >> n == 0:
                bound += min(clauses[c], clauses.get(c << n, 0))
        if bound >= self.best:
            self.shortcut_hits += 1
            return
        if bound == self.best - 1:
            # an improvement violates no clause outside the bound, so a unit
            # clause c whose complement (c >> n or c << n) is no clause must hold
            unit = next((c.bit_length() - 1 for c in units if (c >> n or c << n) not in clauses), None)
        if unit is not None:
            v, choices, case = unit % n, (1 if unit < n else -1,), "unit"
        else:
            tot = [occ[j] + occ[j + n] for j in range(n)]
            v = tot.index(max(tot)) if self.order is None else next(j for j in self.order if tot[j])
            self.branch_count += 1
            if self.branch_limit is not None and self.branch_count > self.branch_limit:
                raise BranchLimitExceeded(f"exceeded branch limit {self.branch_limit}; no answer returned")
            first = 1 if occ[v] > occ[v + n] else -1
            choices, case = (first, -first), "branch"
        on_v = [c for c in clauses if c & ((1 << v) | (1 << (v + n)))]
        for value in choices:
            child, child_occ, child_cost = self.fix(clauses, occ, cost, on_v, v, value)
            if child_cost >= self.best:
                continue
            self.path.append((v, value, case))
            self.run(child, child_occ, child_cost)
            self.path.pop()
            if self.best == self.floor:
                return

    def fix(self, clauses: dict[int, int], occ: list[int], cost: int, on_v: list[int], v: int, value: int):
        """(clauses, occ, cost) after x_v = value; `on_v` lists the clauses holding v."""
        true_lit, false_lit = (v, v + self.n) if value == 1 else (v + self.n, v)
        true_bit, false_bit = 1 << true_lit, 1 << false_lit
        clauses, occ = clauses.copy(), occ.copy()
        for c in on_v:
            w = clauses.pop(c)
            if c & true_bit:
                while c:
                    low = c & -c
                    occ[low.bit_length() - 1] -= w
                    c ^= low
                continue
            occ[false_lit] -= w
            c ^= false_bit
            if c:
                clauses[c] = clauses.get(c, 0) + w
            else:
                cost += w
        return clauses, occ, cost


def minimize_u(
    s: Scheme,
    order: Sequence[int] | None = None,
    branch_limit: int | None = BRANCH_LIMIT,
) -> MinimizeOutcome:
    """Exact minimum of the violated-clause count over all assignments.

    Branches on the most frequent variable, or in `order` when one is given
    (a permutation of the columns).  Every node applies the unit-pair lower
    bound; when the bound is one below the incumbent, a unit clause whose
    complement is no clause is set without a branch.  `branch_limit`
    (default BRANCH_LIMIT, None for unlimited) aborts runaway instances with
    BranchLimitExceeded rather than ever returning a wrong answer.  A search
    deeper than Python's recursion limit raises ValueError.
    """
    if order is not None:
        order = _check_permutation(order, s.n, "elimination")
    clauses = Counter(_masks(s))
    base = clauses.pop(0, 0)
    occ = [0] * (2 * s.n)
    for c, w in clauses.items():
        for b in _literals(c):
            occ[b] += w
    search = _Search(s.n, order, branch_limit, base, s.m + 1)
    try:
        search.run(dict(clauses), occ, base)
    except RecursionError:  # the search recurses once per fixed variable
        raise ValueError(
            f"search depth on {s.n} variables exceeds Python's recursion limit; no answer returned"
        ) from None
    u_min = search.best
    fixed = {v: value for v, value, _ in search.best_path}
    minimizer = tuple(fixed.get(j, -1) for j in range(s.n))

    if unsat_count_direct(s, minimizer) != u_min:
        raise RuntimeError("internal error: minimizer does not attain the reported minimum")
    return MinimizeOutcome(
        u_min=Dyadic(u_min),
        minimizer=minimizer,
        branch_count=search.branch_count,
        shortcut_hits=search.shortcut_hits,
        satisfiable=(u_min == 0),
        trace=tuple({"var": v, "case": case, "value": value} for v, value, case in search.best_path),
    )
