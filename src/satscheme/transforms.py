"""Equivalence-preserving and satisfiability-preserving scheme transformations.

Solution-set preserving: blow_up/shrink, drop_subsumed, row/column
permutation.  Model-count preserving (solutions change coordinates): flip.
Satisfiability preserving: remove_pure_columns, assign, accept_facts, split,
resolve (both Davis-Putnam variable elimination), metavariable elimination
and the READ-3 occurrence reduction.

`_eliminate` is the one Davis-Putnam loop; `metavariable_eliminate`,
`solve --method split` and `checks.check_resolution_chain` all run it.  Each
of its steps gives the rows of `resolve` followed by `drop_subsumed`,
computed on one Python int per clause, with only the new resolvents tested
for subsumption.  Every job that compares clauses in pairs runs on those
clause masks (`_masks`): the engine's subsumption, `drop_subsumed`, `shrink`
and the compatibility graph of `counting.count_by_cliques`.  `resolve` and
`split` stay on whole-array grids, where one broadcast beats converting to
masks and back.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .scheme_core import Scheme, Status, evaluate, status

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

    Runs on clause masks (see `_masks`): row j is row i's partner on literal
    b when its mask is row i's with b swapped for its complement, so each
    round is one pass over a dict from mask to row positions.
    """
    n = s.n
    rows = _masks(s)
    # while status() is OPEN: no refutation, and not one row of one literal
    while _refutation(rows, n) is None and not (len(rows) == 1 and rows[0].bit_count() == 1):
        at: dict[int, list[int]] = {}
        for k, c in enumerate(rows):
            at.setdefault(c, []).append(k)
        for i, c in enumerate(rows):
            # literal (b + n) mod 2n is the complement of literal b
            swaps = [(b, c ^ (1 << b) ^ (1 << (b + n) % (2 * n))) for b in _literals(c)]
            later = [(j, b) for b, partner in swaps for j in at.get(partner, ()) if j > i]
            if later:
                j, b = min(later)
                break
        else:
            break
        rows[i] ^= 1 << b
        del rows[j]
    return _scheme_of(rows, n, range(n))


def drop_subsumed(s: Scheme) -> Scheme:
    """Remove clauses whose literal set contains another clause's.

    R and (R or S) == R.  Row i goes when another row's literals are a
    strict subset of its own, or equal to them in an earlier row: strict
    supersets go, and exact duplicates keep their first copy.  The distinct
    clause masks go through the engine's `_unsubsumed`.
    """
    first: dict[int, int] = {}
    for i, c in enumerate(_masks(s)):
        first.setdefault(c, i)
    kept = _unsubsumed(list(first), len(first), {c: _literals(c) for c in first}, 2 * s.n)
    return Scheme(s.cells[[first[c] for c in kept]])


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


def _masks(s: Scheme) -> list[int]:
    """One int per clause: bit j is the literal x_{j+1}, bit n + j its negation."""
    packed = np.packbits(np.concatenate([s.cells == 1, s.cells == -1], axis=1), axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(s.m)]


def _scheme_of(clauses: list[int], n: int, cols: list[int]) -> Scheme:
    """The grid of clause masks over `n` variables, restricted to columns `cols`."""
    width = (2 * n + 7) // 8
    data = b"".join([c.to_bytes(width, "little") for c in clauses])
    bits = np.frombuffer(data, dtype=np.uint8).reshape(len(clauses), width)
    bits = np.unpackbits(bits, axis=1, bitorder="little").view(np.int8)
    cols_arr = np.array(cols, dtype=np.intp)
    return Scheme(bits[:, cols_arr] - bits[:, cols_arr + n])


def _refutation(clauses: list[int], n: int) -> Status | None:
    """CONTRADICTION or EMPTY_CLAUSE when `status` reports one on these clause masks."""
    # the distinct unit (and empty) clauses are distinct powers of two, so their sum is their union
    units = sum({c for c in clauses if not c & (c - 1)})
    if units & (units >> n):
        return Status.CONTRADICTION
    if 0 in clauses:
        return Status.EMPTY_CLAUSE
    return None


def _literals(c: int) -> list[int]:
    """Indices of the set bits of a clause mask, lowest first."""
    out = []
    while c:
        low = c & -c
        out.append(low.bit_length() - 1)
        c ^= low
    return out


def _occurrences(rows: list[int], lits: dict[int, list[int]], width: int) -> list[int]:
    """occ[b] for b < width: the bitset of the positions in `rows` of the clause masks holding literal b."""
    occ = [0] * width
    for i, c in enumerate(rows):
        bit = 1 << i
        for b in lits[c]:
            occ[b] |= bit
    return occ


def _unsubsumed(rows: list[int], fresh: int, lits: dict[int, list[int]], width: int) -> list[int]:
    """The distinct clause masks `rows`, in order, less every row another row subsumes.

    Row j goes when some other row i has no literal outside it
    (i & ~j == 0).  The rows from `fresh` on subsume none of each other, so
    they are tested only against the rows before `fresh`.  occ[b] is the
    bitset of rows holding literal b; the rows that contain row i are the AND
    of occ over i's literals.  `lits` maps each row to its literal indices,
    all below `width`.
    """
    occ = _occurrences(rows, lits, width)
    everyone = (1 << len(rows)) - 1
    fresh_rows = (1 << fresh) - 1
    drop = 0
    for i, c in enumerate(rows):
        over = everyone if i < fresh else fresh_rows
        for b in lits[c]:
            over &= occ[b]
        drop |= over & ~(1 << i)
    return [c for i, c in enumerate(rows) if not drop >> i & 1]


def _eliminate(
    s: Scheme, order: Sequence[int] | None = None, row_limit: int = RESOLUTION_ROW_LIMIT
) -> tuple[list[list[int]], list[int], tuple[int, ...] | None, bool]:
    """Davis-Putnam variable elimination with subsumption, within a clause budget.

    Each step replaces the clauses on one variable by the non-tautological
    resolvents of its positive and negative clauses, which keeps the formula
    satisfiable iff the input is (Davis & Putnam, JACM 1960), then drops
    subsumed and duplicate clauses: the rows are those of `drop_subsumed`
    after `resolve`.  The run stops at an empty clause or a contradiction
    (UNSAT), or when the clauses run out (SAT): the eliminated variables are
    then set in reverse order so that each one's clauses hold, and the model
    is re-checked.

    By default the next variable is the one minimising |P|*|N| - |P| - |N|,
    with P and N its positive and negative clauses (the clause-growth rule
    of bounded variable elimination, Een & Biere, SAT 2005; ties go to the
    lowest index), until every variable is gone.  An explicit `order` lists
    distinct original column indices.  Before each step the run stops when
    |P|*|N| + |R|, which bounds the next clause count, exceeds `row_limit`;
    nothing is built then.

    Clauses are ints (see `_masks`).  The first step on a variable that
    occurs reduces the whole formula once; after that only the new
    resolvents are tested against the other clauses (SatELite's incremental
    subsumption, Een & Biere, SAT 2005), so a pure step does no subsumption
    work.  Returns (states, eliminated, witness, over_budget): the clause
    masks of the input and after each step, the original column of each
    step, the model or None, and whether the budget stopped the run.
    """
    n = s.n
    if order is not None:
        order = [int(v) for v in order]
        if len(set(order)) != len(order) or any(not 0 <= v < n for v in order):
            raise ValueError("elimination order must be distinct column indices")
    steps = n if order is None else len(order)
    clauses = _masks(s)
    lits = {c: _literals(c) for c in clauses}  # covers every current clause
    states = [clauses]
    live = list(range(n))
    eliminated: list[int] = []
    on_var: list[list[int]] = []  # the clauses on each eliminated variable
    reduced = False
    for step in range(steps + 1):
        if _refutation(clauses, n) is not None:
            break
        if not clauses:
            return states, eliminated, _back_substitute(s, eliminated, on_var), False
        if step == steps:
            break
        if order is None:
            counts = Counter(itertools.chain.from_iterable(map(lits.__getitem__, clauses)))
            v = min(live, key=lambda j: counts[j] * counts[n + j] - counts[j] - counts[n + j])
        else:
            v = order[step]
        pos_bit, neg_bit = 1 << v, 1 << (n + v)
        pos = [c for c in clauses if c & pos_bit]
        neg = [c for c in clauses if c & neg_bit]
        if len(pos) * len(neg) + len(clauses) - len(pos) - len(neg) > row_limit:
            return states, eliminated, None, True
        live.remove(v)
        eliminated.append(v)
        on_var.append(pos + neg)
        if pos or neg:
            rest = [c for c in clauses if not c & (pos_bit | neg_bit)]
            neg_rest = [q ^ neg_bit for q in neg]
            # first copies, in (P row, N row) order; r & (r >> n) marks a tautology
            resolvents = dict.fromkeys(
                r for p in pos for r in map((p ^ pos_bit).__or__, neg_rest) if not r & (r >> n)
            )
            for r in resolvents:
                if r not in lits:
                    lits[r] = _literals(r)
            if not reduced:
                rows = list(dict.fromkeys([*resolvents, *rest]))
                clauses = _unsubsumed(rows, len(rows), lits, 2 * n)
                reduced = True
            elif resolvents:
                rows = [*resolvents, *(c for c in rest if c not in resolvents)]
                clauses = _unsubsumed(rows, len(resolvents), lits, 2 * n)
            else:
                clauses = rest
            lits = {c: lits[c] for c in clauses}
        states.append(clauses)
    return states, eliminated, None, False


def _back_substitute(s: Scheme, eliminated: list[int], on_var: list[list[int]]) -> tuple[int, ...]:
    """A model from an elimination run that ran out of clauses, re-checked on `s`.

    Going back through the steps, each variable becomes true exactly when
    one of its positive clauses has no other true literal; the resolvents
    guarantee no negative clause then needs it false.  Variables never
    eliminated are set false.  `true` holds the true literals.
    """
    n = s.n
    true = ((1 << n) - 1) << n
    for v, clauses in zip(reversed(eliminated), reversed(on_var)):
        pos_bit, both = 1 << v, (1 << v) | (1 << (n + v))
        if any(c & pos_bit and not c & true & ~both for c in clauses):
            true ^= both
    witness = tuple(1 if true >> j & 1 else -1 for j in range(n))
    if not evaluate(s, witness):
        raise RuntimeError("internal error: back-substituted witness is not a model")
    return witness


def _eliminate_all(s: Scheme, order: Sequence[int] | None = None) -> tuple[bool, list[list[int]], list[int]]:
    """(satisfiable, states, eliminated) of `_eliminate` over a full permutation of the columns.

    Raises ValueError when a step would pass RESOLUTION_ROW_LIMIT clauses.
    """
    if order is not None:
        order = _check_permutation(order, s.n, "elimination")
    states, eliminated, witness, over_budget = _eliminate(s, order)
    if over_budget:
        raise ValueError(
            f"metavariable_eliminate refuses a step past the clause budget {RESOLUTION_ROW_LIMIT}"
        )
    return witness is not None, states, eliminated


def metavariable_eliminate(
    s: Scheme, order: Sequence[int] | None = None
) -> tuple[bool, list[Scheme]]:
    """Eliminate every variable in turn; conclusive for satisfiability.

    Runs `_eliminate` over a full permutation of the columns, least clause
    growth first by default.  Returns (satisfiable, chain) where the chain
    holds the input and then the scheme after each elimination.  Raises
    ValueError when a step would pass RESOLUTION_ROW_LIMIT clauses.
    """
    sat, states, eliminated = _eliminate_all(s, order)
    cols = list(range(s.n))
    chain = [s]
    for clauses, v in zip(states[1:], eliminated):
        cols.remove(v)
        chain.append(_scheme_of(clauses, s.n, cols))
    return sat, chain


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
