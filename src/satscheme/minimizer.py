"""Exact minimization of the unsatisfied-clause count by variable elimination.

u is linear in each variable, so u(x_v, y) = u(0, y) + x_v * S_v(y).  When
the swing factor S_v keeps one sign over all y the optimal value of x_v is
forced and one variable disappears without branching; otherwise both values
must be explored.

Fixing x_v = a is a substitution into the parent's polynomial: C becomes
C - a lam_v, each lam_j becomes lam_j - a mu_vj, each mu_jk becomes
mu_jk - a nu_vjk, and the terms without v keep their values.  Because the
multilinear expansion is unique (Boros & Hammer, DAM 2002), the result is
exactly the polynomial of the reduced formula (satisfied clauses dropped,
falsified literals removed), so every intermediate u is again the u of a
formula.  The search builds one form at the root with `pb_coefficients`
and folds every child's form from its parent's, all at the root's scale;
the `resolve_weights` bound keeps every value exact in int64.

The coefficient-mass shortcut proves some subtrees can never reach u = 0;
those subtrees skip the case analysis and are finished by the fast
assignment-scan kernel instead, keeping the reported minimum exact.

S_v is tabulated as int64 over its support, at most S_BLOCK assignments
at a time, and the search compares plain integer counts.  A shortcut hit
rebuilds the node's clause grid from the root's rows for its scan.
`Dyadic` appears only in the returned `SFactor` and `MinimizeOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .checks import VerdictKind, check_coefficient_bound
from .dyadic import Dyadic, ZERO
from .pseudo_boolean import PBForm, pb_coefficients, unsat_count_direct
from .scheme_core import Scheme
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


class _Terms(NamedTuple):
    """What the S-table and both folds on one variable share, indexed without it."""

    lam_var: int  # lam of the variable
    rest: np.ndarray  # the other columns of the parent form, ascending
    lam: np.ndarray  # lam on `rest`
    mu_row: np.ndarray  # mu between the variable and `rest`
    mu: np.ndarray  # mu on `rest` x `rest`
    pairs: np.ndarray  # (j, k) left by the triples on the variable
    pair_vals: np.ndarray  # their nu values
    nu_delta: np.ndarray  # the same values as a symmetric matrix on `rest`
    nu_idx: np.ndarray  # the triples without the variable
    nu_val: np.ndarray


def _terms_on(p: PBForm, var: int) -> _Terms:
    """Split p's terms at `var`, once per search node."""
    hit = p.nu_idx == var
    on = hit.any(axis=1)
    shifted = p.nu_idx - (p.nu_idx > var)
    pairs = shifted[on][~hit[on]].reshape(-1, 2)
    pair_vals = p.nu_val[on]
    rest = np.arange(p.n - 1)
    rest[var:] += 1
    nu_delta = np.zeros((p.n - 1, p.n - 1), dtype=np.int64)
    nu_delta[pairs[:, 0], pairs[:, 1]] = pair_vals
    nu_delta[pairs[:, 1], pairs[:, 0]] = pair_vals
    return _Terms(
        int(p.lam[var]),
        rest,
        p.lam[rest],
        p.mu[var, rest],
        p.mu[rest[:, None], rest],
        pairs,
        pair_vals,
        nu_delta,
        shifted[~on],
        p.nu_val[~on],
    )


def _s_support(t: _Terms) -> np.ndarray:
    """Positions in `t.rest` that S depends on, ascending; at most SUPPORT_LIMIT."""
    in_support = t.mu_row != 0
    in_support[t.pairs] = True
    support = np.flatnonzero(in_support)
    if len(support) > SUPPORT_LIMIT:
        raise ValueError(f"S-factor support {len(support)} exceeds limit {SUPPORT_LIMIT}")
    return support


def _s_blocks(t: _Terms, support: np.ndarray) -> Iterator[np.ndarray]:
    """Scaled S over every +-1 assignment of `support`, S_BLOCK codes at a time.

    S(y) = -lam_var + sum_j mu_var,j y_j - sum nu_var,j,k y_j y_k; value
    `code` has bit b set when support[b] is +1.  Exact int64 at the form's
    scale.  No sign matrix holds more than S_BLOCK rows, so memory stays
    bounded at any support size.
    """
    k = len(support)
    mu_row = t.mu_row[support]
    pos = np.searchsorted(support, t.pairs)
    for start in range(0, 1 << k, S_BLOCK):
        codes = np.arange(start, min(start + S_BLOCK, 1 << k))
        Y = ((codes[:, None] >> np.arange(k)) & 1) * 2 - 1
        yield Y @ mu_row - (Y[:, pos[:, 0]] * Y[:, pos[:, 1]]) @ t.pair_vals - t.lam_var


def _fold(p: PBForm, value: int, t: _Terms) -> PBForm:
    """The form of u with the variable of `t` fixed to `value` (+-1), its column dropped.

    Substituting into u = C - lam.x + mu-terms - nu-terms gives C - a lam_v,
    lam_j - a mu_vj, and mu_jk - a nu_vjk on the pairs the triples on v
    leave; the other triples keep their values.  Values stay at p's scale.
    """
    return PBForm(
        n=p.n - 1,
        const=p.const - value * t.lam_var,
        lam=t.lam - value * t.mu_row,
        mu=t.mu - value * t.nu_delta,
        nu_idx=t.nu_idx,
        nu_val=t.nu_val,
        scale_exp=p.scale_exp,
        weight_kind=p.weight_kind,
    )


def s_factor(s: Scheme, var: int) -> SFactor:
    """Swing factor of `var` with canonical weights, tabulated over its support.

    S is tabulated as integers at the form's scale and returned as `Dyadic`
    values.  Cross-checks the defining identity u(+1, y) - u(-1, y) = 2 S(y)
    at y = all-ones before returning; a mismatch is an internal error.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    p = pb_coefficients(s, "canonical")
    t = _terms_on(p, var)
    support = _s_support(t)
    vals = np.concatenate(list(_s_blocks(t, support)))
    support = t.rest[support]
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
    def __init__(self, cells: np.ndarray, order: list[int], shortcut: bool, branch_limit: int | None):
        self.cells = cells
        self.order = order
        self.shortcut = shortcut
        self.branch_limit = branch_limit
        self.branch_count = 0
        self.shortcut_hits = 0
        self.events: list[dict] = []

    def run(self, p: PBForm, col_ids: list[int], path: list[tuple[int, int]]):
        """(least violated-clause count, fixed values, trace) below the form `p`.

        `p` is the root-scaled form of the formula left after fixing the
        (column, value) pairs of `path`; `col_ids` are its columns.
        """
        if p.const == 0:
            return 0, {}, []  # every clause adds a positive weight to C
        if not col_ids:
            # only empty clauses can remain; each contributes exactly 1
            return p.const >> p.scale_exp, {}, []
        if self.shortcut:
            verdict = check_coefficient_bound(p)
            if verdict.kind is VerdictKind.UNSAT_CERTIFIED:
                # the grid chained `assign` calls would give: rows no fixed
                # value satisfies, columns in `col_ids` order
                cols, vals = [c for c, _ in path], [v for _, v in path]
                cells = self.cells[~(self.cells[:, cols] == vals).any(axis=1)][:, col_ids]
                self.shortcut_hits += 1
                self.events.append(
                    {
                        "constant": verdict.evidence["constant"],
                        "mass": verdict.evidence["mass"],
                        "scale": 1 << int(np.count_nonzero(cells, axis=1).max()),
                        "vars_left": len(col_ids),
                    }
                )
                _, u_min, min_code, _, _ = kernels.assignment_scan(cells)
                values = kernels.decode_assignment(int(min_code), len(col_ids))
                fixed = {col_ids[j]: values[j] for j in range(len(col_ids))}
                return int(u_min), fixed, [
                    {"case": "shortcut-scan", "vars_left": len(col_ids)}
                ]

        var = self.order[len(self.order) - len(col_ids)]
        local = col_ids.index(var)
        t = _terms_on(p, local)
        s_min, s_max = math.inf, -math.inf
        for vals in _s_blocks(t, _s_support(t)):
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

        best = None
        rest_ids = col_ids[:local] + col_ids[local + 1 :]
        for value in choices:
            child = _fold(p, value, t)
            u_val, fixed, trace = self.run(child, rest_ids, path + [(var, value)])
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

    search = _Search(s.cells, order, shortcut=shortcut, branch_limit=branch_limit)
    u_min, fixed, trace = search.run(pb_coefficients(s, "canonical"), list(range(s.n)), [])
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
