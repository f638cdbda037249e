"""Complete polynomial-time solvers for the easy clause classes.

2-SAT (at most two literals per clause) is decided by pure-column removal,
fact propagation, and a single try-true-then-false probe per remaining
variable; a probe whose propagation completes without contradiction may be
committed outright, because the untouched residue shares no variables with
it.  Horn formulas (at most one positive literal per clause) are decided by
forward chaining on the positive unit facts; with none left, all-false
satisfies the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheme_core import Scheme, Status, evaluate, status
from .transforms import accept_facts, assign, remove_pure_columns

__all__ = ["SolveResult", "is_2sat", "is_horn", "solve_2sat", "solve_horn"]


@dataclass(frozen=True)
class SolveResult:
    """Verdict plus witness (present iff satisfiable) and propagation count."""

    satisfiable: bool
    witness: tuple[int, ...] | None
    steps: int


def is_2sat(s: Scheme) -> bool:
    """Every clause has at most two literals."""
    return s.max_clause_size() <= 2


def is_horn(s: Scheme) -> bool:
    """Every clause has at most one positive literal."""
    if s.m == 0:
        return True
    return int((s.cells == 1).sum(axis=1).max()) <= 1


class _Reduction:
    """Working scheme plus the original ids of surviving columns.

    Wraps the column-deleting transforms and keeps the forced-assignment
    map in original variable numbering.
    """

    def __init__(self, scheme: Scheme):
        self.scheme = scheme
        self.col_ids = list(range(scheme.n))
        self.forced: dict[int, bool] = {}
        self.steps = 0

    def snapshot(self) -> tuple[Scheme, list[int], dict[int, bool], int]:
        return self.scheme, list(self.col_ids), dict(self.forced), self.steps

    def restore(self, snap) -> None:
        self.scheme, self.col_ids, self.forced, self.steps = (
            snap[0],
            list(snap[1]),
            dict(snap[2]),
            snap[3],
        )

    def _apply_trail(self, trail: list[tuple[int, bool]]) -> None:
        # trail entries are input-relative column indices
        drop = set()
        for local, value in trail:
            self.forced[self.col_ids[local]] = value
            drop.add(local)
            self.steps += 1
        self.col_ids = [c for i, c in enumerate(self.col_ids) if i not in drop]

    def remove_pure(self) -> bool:
        self.scheme, removed = remove_pure_columns(self.scheme)
        self._apply_trail(removed)
        return bool(removed)

    def accept_facts(self) -> bool:
        self.scheme, trail = accept_facts(self.scheme)
        self._apply_trail(trail)
        return bool(trail)

    def assign(self, local: int, value: bool) -> None:
        self.forced[self.col_ids[local]] = value
        self.steps += 1
        self.scheme = assign(self.scheme, local, value)
        self.col_ids.pop(local)

    def conclusive(self) -> bool | None:
        """True = satisfied, False = unsatisfiable, None = keep going."""
        if self.scheme.m == 0:
            return True
        st = status(self.scheme)
        if st in (Status.CONTRADICTION, Status.EMPTY_CLAUSE):
            return False
        if st is Status.CONFIRMATION:
            sup = self.scheme.row_support(0)
            self.assign(sup[0], int(self.scheme.cells[0, sup[0]]) == 1)
            return True
        return None

    def witness(self, n: int) -> tuple[int, ...]:
        """Forced values, everything unconstrained defaulting to false."""
        return tuple(1 if self.forced.get(j, False) else -1 for j in range(n))


def _propagate_to_fixpoint(red: _Reduction) -> bool | None:
    """Accept facts until stable; same conclusive() convention."""
    while True:
        done = red.conclusive()
        if done is not None:
            return done
        if not red.accept_facts():
            return None


def solve_2sat(s: Scheme) -> SolveResult:
    """Decide a 2-SAT scheme, with model on success.

    Loop: clear single-polarity columns and facts; then probe the lowest
    remaining variable with true, falling back to false.  A probe whose
    propagation runs to a quiet fixpoint is committed (sound for 2-SAT: the
    leftover clauses mention none of the propagated variables); both probes
    failing certifies UNSAT.
    """
    if not is_2sat(s):
        raise ValueError("solve_2sat requires at most 2 literals per clause")
    red = _Reduction(s)
    while True:
        progress = True
        while progress:
            done = red.conclusive()
            if done is not None:
                return _finish(s, red, done)
            progress = red.remove_pure() or red.accept_facts()
        # quiet formula: no pure columns, no facts; probe the lowest variable
        snap = red.snapshot()
        red.assign(0, True)
        done = _propagate_to_fixpoint(red)
        if done is False:
            red.restore(snap)
            red.assign(0, False)
            done = _propagate_to_fixpoint(red)
            if done is False:
                return SolveResult(satisfiable=False, witness=None, steps=red.steps)
        if done is True:
            return _finish(s, red, True)
        # fixpoint without verdict: commit and continue on the residue


def _finish(original: Scheme, red: _Reduction, satisfiable: bool) -> SolveResult:
    if not satisfiable:
        return SolveResult(satisfiable=False, witness=None, steps=red.steps)
    witness = red.witness(original.n)
    if not evaluate(original, witness):
        raise RuntimeError("internal error: solver produced a non-model witness")
    return SolveResult(satisfiable=True, witness=witness, steps=red.steps)


def solve_horn(s: Scheme) -> SolveResult:
    """Decide a Horn scheme by forward chaining on positive unit facts.

    No positive facts means all-false satisfies every remaining clause
    (each holds a negated literal).  Accepting a fact preserves the Horn
    shape, asserted on every step; an empty clause on the way means UNSAT.
    """
    if not is_horn(s):
        raise ValueError("solve_horn requires at most one positive literal per clause")
    red = _Reduction(s)
    while True:
        if red.scheme.has_empty_row():
            return SolveResult(satisfiable=False, witness=None, steps=red.steps)
        cells = red.scheme.cells
        facts = np.flatnonzero((np.count_nonzero(cells, axis=1) == 1) & (cells == 1).any(axis=1))
        if not len(facts):
            return _finish(s, red, True)
        red.assign(int(np.argmax(cells[facts[0]])), True)
        assert is_horn(red.scheme), "Horn shape must survive fact acceptance"
