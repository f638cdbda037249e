"""Equivalence-preserving and satisfiability-preserving scheme transformations.

Solution-set preserving: blow_up/shrink, drop_subsumed, row/column
permutation.  Model-count preserving (solutions change coordinates): flip.
Satisfiability preserving: remove_pure_columns, assign, accept_facts, split,
resolve (both Davis-Putnam variable elimination), metavariable elimination
and the READ-3 occurrence reduction.

`_eliminate` is the one Davis-Putnam loop (`resolve`, then `drop_subsumed`);
`metavariable_eliminate` and `checks.check_resolution_chain` both run it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .scheme_core import Scheme, Status, _row_pairs, evaluate, status

__all__ = [
    "SplitResult",
    "flip",
    "permute_rows",
    "permute_columns",
    "blow_up",
    "full_blow_up",
    "shrink",
    "drop_subsumed",
    "remove_pure_columns",
    "assign",
    "accept_facts",
    "resolve",
    "split",
    "metavariable_eliminate",
    "reduce_read3",
    "FULL_BLOW_UP_LIMIT",
    "RESOLUTION_ROW_LIMIT",
]

FULL_BLOW_UP_LIMIT = 20
RESOLUTION_ROW_LIMIT = 20_000


def flip(s: Scheme, mask: Iterable[int]) -> Scheme:
    """Swap positive and negated literals in the masked columns.

    The 2**n masks generate the flip class of the formula; the model count
    is invariant, with solutions negated on the masked coordinates.
    """
    cols = sorted(set(int(c) for c in mask))
    if cols and not (0 <= cols[0] and cols[-1] < s.n):
        raise ValueError(f"flip mask {cols} out of range for n={s.n}")
    cells = s.cells.copy()
    if cols:
        cells[:, cols] *= -1
    return Scheme(cells)


def _check_permutation(perm: Sequence[int], size: int, what: str) -> list[int]:
    p = [int(v) for v in perm]
    if sorted(p) != list(range(size)):
        raise ValueError(f"{what} order must be a permutation of 0..{size - 1}")
    return p


def permute_rows(s: Scheme, order: Sequence[int]) -> Scheme:
    """Reorder clauses; conjunction is commutative so solutions are unchanged."""
    return Scheme(s.cells[_check_permutation(order, s.m, "row")])


def permute_columns(s: Scheme, order: Sequence[int]) -> Scheme:
    """Renumber variables; solutions are permuted the same way."""
    return Scheme(s.cells[:, _check_permutation(order, s.n, "column")])


def blow_up(s: Scheme, row: int, col: int) -> Scheme:
    """Split one clause on an absent variable into its two completions.

    (A) == (A or x) and (A or not-x); the solution set is untouched.
    """
    if not (0 <= row < s.m and 0 <= col < s.n):
        raise IndexError(f"cell ({row}, {col}) out of range")
    if s.cells[row, col] != 0:
        raise ValueError(f"cell ({row}, {col}) is not absent; cannot blow up")
    pos = s.cells[row].copy()
    neg = s.cells[row].copy()
    pos[col] = 1
    neg[col] = -1
    cells = np.vstack([s.cells[:row], pos[None, :], neg[None, :], s.cells[row + 1 :]])
    return Scheme(cells)


def full_blow_up(s: Scheme) -> Scheme:
    """Blow every clause up to primes (rows with no absent fills).

    Materializes up to 2**n rows per clause, hence the hard n cap.
    Duplicate primes are kept; deduplicate downstream when counting.
    """
    if s.n > FULL_BLOW_UP_LIMIT:
        raise ValueError(f"full blow-up refuses n={s.n} > {FULL_BLOW_UP_LIMIT}")
    out_rows = []
    for i in range(s.m):
        zeros = [j for j in range(s.n) if s.cells[i, j] == 0]
        base = s.cells[i]
        for signs in itertools.product((1, -1), repeat=len(zeros)):
            row = base.copy()
            for j, sg in zip(zeros, signs):
                row[j] = sg
            out_rows.append(row)
    if not out_rows:
        return Scheme.empty(s.n)
    return Scheme(np.array(out_rows, dtype=np.int8))


def shrink(s: Scheme) -> Scheme:
    """Merge clause pairs identical up to one complementary literal, to fixpoint.

    (X or A) and (not-X or A) == A.  Each round merges the first pair
    (i < j, in row-major order) whose rows differ in exactly one cell and
    clash there: row i loses that literal and row j is deleted.  Stops early
    when a terminal pattern (confirmation/contradiction/empty clause)
    appears, so those shapes stay visible to the caller.
    """
    cells = s.cells
    while status(Scheme(cells)) is Status.OPEN:
        sizes = np.count_nonzero(cells, axis=1)
        for start, shared, clash in _row_pairs(cells):
            rows = np.arange(start, start + len(shared))
            # cells differing: each lone literal once, each clashing column once
            differ = sizes[rows, None] + sizes[None, :] - 2 * shared - clash
            later = rows[:, None] < np.arange(len(cells))
            pairs = np.argwhere((differ == 1) & (clash == 1) & later)
            if len(pairs):
                break
        else:
            break
        i, j = start + int(pairs[0, 0]), int(pairs[0, 1])
        c = int(np.argmax(cells[i] != cells[j]))
        cells = np.delete(cells, j, axis=0)
        cells[i, c] = 0
    return Scheme(cells)


def drop_subsumed(s: Scheme) -> Scheme:
    """Remove clauses whose literal set contains another clause's.

    R and (R or S) == R.  With sub[i, j] meaning every literal of row j is
    in row i, row i goes when some j != i has sub[i, j] and (not sub[j, i]
    or j < i): strict supersets go, and exact duplicates keep their first
    copy.
    """
    sizes = np.count_nonzero(s.cells, axis=1)
    drop = np.zeros(s.m, dtype=bool)
    for start, shared, _ in _row_pairs(s.cells):
        rows = np.arange(start, start + len(shared))
        sub = shared == sizes[None, :]
        sub_back = shared == sizes[rows, None]
        drop[rows] = (sub & (~sub_back | (np.arange(s.m) < rows[:, None]))).any(axis=1)
    return Scheme(s.cells[~drop])


def remove_pure_columns(s: Scheme) -> tuple[Scheme, list[tuple[int, bool]]]:
    """Delete single-polarity columns and the clauses they satisfy, to fixpoint.

    Returns the reduced scheme plus the forced (original column, value)
    assignments; the reduced scheme is satisfiable iff the input is.  Each
    round removes the lowest pure column, so the trail is in that order.
    Columns with no fills at all are left alone (nothing forces them).
    """
    cells = s.cells
    col_ids = list(range(s.n))
    removed: list[tuple[int, bool]] = []
    while True:
        has_pos = (cells == 1).any(axis=0)
        pure = has_pos ^ (cells == -1).any(axis=0)
        if not pure.any():
            break
        j = int(np.argmax(pure))
        removed.append((col_ids.pop(j), bool(has_pos[j])))
        cells = np.delete(cells[cells[:, j] == 0], j, axis=1)
    return Scheme(cells), removed


def assign(s: Scheme, var: int, value: bool) -> Scheme:
    """Fix one variable: drop its column and every clause it satisfies.

    A clause whose only literal was the falsified one becomes an all-absent
    row (the empty clause), which status() reports as unsatisfiable.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    sign = 1 if value else -1
    keep_rows = np.nonzero(s.cells[:, var] != sign)[0]
    return Scheme(np.delete(s.cells[keep_rows], var, axis=1))


def accept_facts(s: Scheme) -> tuple[Scheme, list[tuple[int, bool]]]:
    """Apply unit clauses as forced assignments until none remain.

    Stops as soon as a terminal pattern appears (so a contradiction between
    unit clauses is reported rather than consumed).  The trail lists the
    accepted (original column, value) pairs in order.
    """
    cur = s
    col_ids = list(range(s.n))
    trail: list[tuple[int, bool]] = []
    while True:
        if status(cur) is not Status.OPEN:
            break
        units = np.flatnonzero(np.count_nonzero(cur.cells, axis=1) == 1)
        if not len(units):
            break
        row = cur.cells[units[0]]
        j = int(np.flatnonzero(row)[0])
        value = bool(row[j] == 1)
        trail.append((col_ids[j], value))
        cur = assign(cur, j, value)
        col_ids.pop(j)
    return cur, trail


def _resolvents(y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Disjunctions of every (y row, z row) pair, row-major, tautologies dropped.

    A pair clashes (holds opposite fills in some column) exactly when the
    product of its rows has a -1 somewhere.
    """
    clash = ((y[:, None] * z[None]) == -1).any(-1)
    merged = np.where(y[:, None] != 0, y[:, None], z[None])
    return merged[~clash]


def resolve(s: Scheme, var: int) -> tuple[Scheme, bool]:
    """Replace all positive/negative clause pairs on `var` by their resolvents.

    The column disappears.  Rows come out as the resolvents in (positive
    row, negative row) row-major order, then the untouched rows.
    Tautological resolvents are dropped.  This is Davis-Putnam variable
    elimination: the result is satisfiable iff the input is.  `conclusive`
    is True when at most one pair was resolved.  If the variable does not
    occur at all the scheme is returned unchanged (conclusive=True).
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    col = s.cells[:, var]
    pos = col == 1
    neg = col == -1
    if not (pos.any() or neg.any()):
        return s, True
    reduced = np.delete(s.cells, var, axis=1)
    rows = np.concatenate([_resolvents(reduced[pos], reduced[neg]), reduced[col == 0]])
    return Scheme(rows), (int(pos.sum()) * int(neg.sum()) <= 1)


@dataclass(frozen=True)
class SplitResult:
    """Cofactors of a split: y/z hold the rows that carried the positive and
    negative fill (column removed), r the untouched rows; `recombined` is the
    CNF of all non-tautological pairwise disjunctions of y and z rows plus r,
    satisfiable iff the input was."""

    y: Scheme
    z: Scheme
    r: Scheme
    recombined: Scheme


def split(s: Scheme, var: int) -> SplitResult:
    """Eliminate a variable by combining its positive and negative cofactors.

    Product rows deriving from orthogonal pairs are tautologies and are
    dropped; duplicate product rows are kept once.
    """
    if not (0 <= var < s.n):
        raise IndexError(f"column {var} out of range (n={s.n})")
    col = s.cells[:, var]
    reduced = np.delete(s.cells, var, axis=1)
    y_rows = reduced[col == 1]
    z_rows = reduced[col == -1]
    r_rows = reduced[col == 0]
    products = _resolvents(y_rows, z_rows)
    _, first = np.unique(products, axis=0, return_index=True)
    recombined = Scheme(np.concatenate([products[np.sort(first)], r_rows]))
    return SplitResult(
        y=Scheme(y_rows), z=Scheme(z_rows), r=Scheme(r_rows), recombined=recombined
    )


def _eliminate(
    s: Scheme, order: Sequence[int] | None = None, row_limit: int = RESOLUTION_ROW_LIMIT
) -> tuple[list[Scheme], tuple[int, ...] | None, bool]:
    """Davis-Putnam variable elimination with subsumption, within a clause budget.

    Each step replaces the clauses on one variable by the non-tautological
    resolvents of its positive and negative clauses (`resolve`), which keeps
    the formula satisfiable iff the input is (Davis & Putnam, JACM 1960),
    then drops subsumed and duplicate clauses (`drop_subsumed`).  The run
    stops at an empty clause or a contradiction (UNSAT), or when the clauses
    run out (SAT): the eliminated variables are then set in reverse order
    so that each one's clauses hold, and the model is re-checked.

    By default the next variable is the one minimising |P|*|N| - |P| - |N|,
    with P and N its positive and negative clauses (the clause-growth rule
    of bounded variable elimination, Een & Biere, SAT 2005; ties go to the
    lowest index), until every variable is gone.  An explicit `order` lists
    distinct original column indices.  Before each step the run stops when
    |P|*|N| + |R|, which bounds the next clause count, exceeds `row_limit`;
    nothing is built then.  Returns (chain, witness, over_budget): the input
    and the scheme after each step, the model or None, and whether the
    budget stopped the run.
    """
    if order is not None:
        order = [int(v) for v in order]
        if len(set(order)) != len(order) or any(not 0 <= v < s.n for v in order):
            raise ValueError("elimination order must be distinct column indices")
    steps = s.n if order is None else len(order)
    chain = [s]
    cur = s
    col_ids = list(range(s.n))
    eliminated = []  # (local column, original columns, clauses on it) per step
    for step in range(steps + 1):
        if status(cur) in (Status.CONTRADICTION, Status.EMPTY_CLAUSE):
            break
        if cur.m == 0:
            witness = _back_substitute(s.n, eliminated)
            if not evaluate(s, witness):
                raise RuntimeError("internal error: back-substituted witness is not a model")
            return chain, witness, False
        if step == steps:
            break
        n_pos = (cur.cells == 1).sum(axis=0)
        n_neg = (cur.cells == -1).sum(axis=0)
        if order is None:
            idx = int(np.argmin(n_pos * n_neg - n_pos - n_neg))
        else:
            idx = col_ids.index(order[step])
        pos, neg = int(n_pos[idx]), int(n_neg[idx])
        if pos * neg + cur.m - pos - neg > row_limit:
            return chain, None, True
        on_var = cur.cells[:, idx] != 0
        eliminated.append((idx, np.array(col_ids), cur.cells[on_var]))
        if on_var.any():
            cur = drop_subsumed(resolve(cur, idx)[0])
        else:
            cur = cur.delete_columns([idx])
        col_ids.pop(idx)
        chain.append(cur)
    return chain, None, False


def _back_substitute(n: int, eliminated) -> tuple[int, ...]:
    """A model from an elimination chain that ran out of clauses.

    Going back through the steps, each variable becomes true exactly when
    one of its positive clauses has no other true literal; the resolvents
    guarantee no negative clause then needs it false.  Variables never
    eliminated are set false.
    """
    x = np.full(n, -1, dtype=np.int8)
    for idx, cols, clauses in reversed(eliminated):
        others = np.delete(clauses, idx, axis=1) == x[np.delete(cols, idx)]
        needy = clauses[~others.any(axis=1), idx]
        x[cols[idx]] = 1 if (needy == 1).any() else -1
    return tuple(x.tolist())


def metavariable_eliminate(
    s: Scheme, order: Sequence[int] | None = None
) -> tuple[bool, list[Scheme]]:
    """Eliminate every variable in turn; conclusive for satisfiability.

    Runs `_eliminate` over a full permutation of the columns, least clause
    growth first by default.  Returns (satisfiable, chain) where the chain
    holds the input and then the scheme after each elimination.  Raises
    ValueError when a step would pass RESOLUTION_ROW_LIMIT clauses.
    """
    if order is not None:
        order = _check_permutation(order, s.n, "elimination")
    chain, witness, over_budget = _eliminate(s, order)
    if over_budget:
        raise ValueError(
            f"metavariable_eliminate refuses a step past the clause budget {RESOLUTION_ROW_LIMIT}"
        )
    return witness is not None, chain


def reduce_read3(s: Scheme) -> Scheme:
    """Rewrite so every variable occurs at most three times (equisatisfiable).

    A variable with t > 3 occurrences becomes t chained copies, one per
    occurrence (the original column keeps the first), linked by the cyclic
    implication clauses (not y_i or y_{i+1}), indices mod t, which force all
    copies equal.  Each copy then occurs exactly three times.
    """
    occ_counts = np.count_nonzero(s.cells, axis=0) if s.m else np.zeros(s.n, dtype=int)
    heavy = [j for j in range(s.n) if occ_counts[j] > 3]
    if not heavy:
        return s
    n_total = s.n
    moves: list[tuple[int, int, int, int]] = []  # (row, old col, new col, fill)
    links: list[tuple[int, int]] = []  # (negated copy, implied copy)
    for v in heavy:
        occ_rows = [i for i in range(s.m) if s.cells[i, v] != 0]
        copies = [v]
        for _ in range(len(occ_rows) - 1):
            copies.append(n_total)
            n_total += 1
        for k in range(1, len(occ_rows)):
            i = occ_rows[k]
            moves.append((i, v, copies[k], int(s.cells[i, v])))
        for k in range(len(copies)):
            links.append((copies[k], copies[(k + 1) % len(copies)]))

    out = np.zeros((s.m + len(links), n_total), dtype=np.int8)
    out[: s.m, : s.n] = s.cells
    for i, old, new, fill in moves:
        out[i, old] = 0
        out[i, new] = fill
    for k, (neg_col, pos_col) in enumerate(links):
        out[s.m + k, neg_col] = -1
        out[s.m + k, pos_col] = 1
    return Scheme(out)
