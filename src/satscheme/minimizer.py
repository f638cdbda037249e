"""Exact minimization of the unsatisfied-clause count by variable elimination.

u is linear in each variable, so u(x_v, y) = u(0, y) + x_v * S_v(y).  When
the swing factor S_v keeps one sign over all y the optimal value of x_v is
forced and one variable disappears without branching; otherwise both values
must be explored.  Reduced subproblems are materialized as genuine schemes
(satisfied clauses dropped, falsified literals removed), so every
intermediate u is again the u of a formula.

The coefficient-mass shortcut proves some subtrees can never reach u = 0;
those subtrees skip the case analysis and are finished by the fast
assignment-scan kernel instead, keeping the reported minimum exact.

Each node reads the integer-scaled form of `pb_coefficients` directly:
S_v is tabulated as int64 over its support and the search compares plain
integer counts.  `Dyadic` appears only in the returned `SFactor` and
`MinimizeOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .checks import VerdictKind, check_coefficient_bound
from .dyadic import Dyadic, ZERO
from .pseudo_boolean import PBForm, pb_coefficients, unsat_count_direct
from .scheme_core import Scheme
from .transforms import assign

__all__ = [
    "SFactor",
    "MinimizeOutcome",
    "BranchLimitExceeded",
    "s_factor",
    "minimize_u",
    "SUPPORT_LIMIT",
]

SUPPORT_LIMIT = 24


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


def _s_table(p: PBForm, var: int) -> tuple[np.ndarray, np.ndarray]:
    """(support, scaled values) of S_var over every +-1 assignment of its support.

    S_var(y) = -lam_var + sum_j mu_var,j y_j - sum nu_var,j,k y_j y_k; value
    `code` has bit b set when support[b] is +1.  Exact int64 at p's scale.
    """
    tri = (p.nu_idx == var).any(axis=1)
    pairs = p.nu_idx[tri][p.nu_idx[tri] != var].reshape(-1, 2)
    in_support = p.mu[var] != 0
    in_support[pairs] = True
    support = np.flatnonzero(in_support)
    if len(support) > SUPPORT_LIMIT:
        raise ValueError(f"S-factor support {len(support)} exceeds limit {SUPPORT_LIMIT}")
    codes = np.arange(1 << len(support), dtype=np.int64)
    Y = ((codes[:, None] >> np.arange(len(support))) & 1) * 2 - 1
    pos = np.searchsorted(support, pairs)
    vals = Y @ p.mu[var, support] - (Y[:, pos[:, 0]] * Y[:, pos[:, 1]]) @ p.nu_val[tri]
    return support, vals - p.lam[var]


def s_factor(s: Scheme, var: int) -> SFactor:
    """Swing factor of `var` with canonical weights, tabulated over its support.

    S is tabulated as integers at the form's scale and returned as `Dyadic`
    values.  Cross-checks the defining identity u(+1, y) - u(-1, y) = 2 S(y)
    at y = all-ones before returning; a mismatch is an internal error.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    p = pb_coefficients(s, "canonical")
    support, vals = _s_table(p, var)
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


class _Search:
    def __init__(self, shortcut: bool, branch_limit: int | None):
        self.shortcut = shortcut
        self.branch_limit = branch_limit
        self.branch_count = 0
        self.shortcut_hits = 0
        self.events: list[dict] = []

    def run(self, cur: Scheme, col_ids: list[int], order: list[int]):
        """(least violated-clause count, fixed values, trace) below `cur`."""
        if cur.m == 0:
            return 0, {}, []
        if not col_ids:
            # only empty clauses can remain; each contributes exactly 1
            return cur.m, {}, []
        p = pb_coefficients(cur, "canonical")
        if self.shortcut:
            verdict = check_coefficient_bound(p)
            if verdict.kind is VerdictKind.UNSAT_CERTIFIED:
                self.shortcut_hits += 1
                self.events.append(
                    {
                        "constant": verdict.evidence["constant"],
                        "mass": verdict.evidence["mass"],
                        "scale": p.scale,
                        "vars_left": len(col_ids),
                    }
                )
                _, u_min, min_code, _, _ = kernels.assignment_scan(cur.cells)
                values = kernels.decode_assignment(int(min_code), cur.n)
                fixed = {col_ids[j]: values[j] for j in range(cur.n)}
                return int(u_min), fixed, [
                    {"case": "shortcut-scan", "vars_left": len(col_ids)}
                ]

        var = next(v for v in order if v in col_ids)
        local = col_ids.index(var)
        _, vals = _s_table(p, local)
        if vals.min() >= 0:
            case, choices = "i", (-1,)
        elif vals.max() <= 0:
            case, choices = "ii", (1,)
        else:
            case, choices = "iii", (-1, 1)
            self.branch_count += 1
            if self.branch_limit is not None and self.branch_count > self.branch_limit:
                raise BranchLimitExceeded(
                    f"exceeded branch limit {self.branch_limit}; no answer returned"
                )

        best = None
        rest_ids = col_ids[:local] + col_ids[local + 1 :]
        rest_order = [v for v in order if v != var]
        for value in choices:
            child = assign(cur, local, value == 1)
            u_val, fixed, trace = self.run(child, rest_ids, rest_order)
            cand = (u_val, {var: value, **fixed}, [{"var": var, "case": case, "value": value}] + trace)
            if best is None or cand[0] < best[0]:
                best = cand
            if best[0] == 0:
                break  # zero is a global lower bound; nothing can beat it
        return best


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
        order = [int(v) for v in order]
        if sorted(order) != list(range(s.n)):
            raise ValueError("elimination order must be a permutation of all columns")

    search = _Search(shortcut=shortcut, branch_limit=branch_limit)
    u_min, fixed, trace = search.run(s, list(range(s.n)), order)
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
