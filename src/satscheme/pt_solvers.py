"""Complete polynomial-time solvers for the easy clause classes.

2-SAT (at most two literals per clause) is decided by pure-column removal,
fact propagation, and a single try-true-then-false probe per remaining
variable; a probe whose propagation completes without contradiction may be
committed outright, because the untouched residue shares no variables with
it.  Horn formulas (at most one positive literal per clause) are decided by
forward chaining on the positive unit facts (Dowling & Gallier, J. Logic
Programming 1984); with none left, all-false satisfies the rest.

Both run on the clause masks of `transforms._masks`, with the propagation
helpers `_set`, `_pure` and `_facts` that `remove_pure_columns` and
`accept_facts` also run, and one (column, value) trail; `steps` is its
length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheme_core import Scheme, evaluate
from .transforms import _facts, _masks, _pure, _refutation, _set
from .transforms import accept_facts, assign, remove_pure_columns  # noqa: F401  unused; the benchmark tracer wraps them

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


def _verdict(clauses: list[int], n: int, trail: list[tuple[int, bool]]) -> bool | None:
    """True = satisfied, False = refuted, None = keep going.

    A lone unit clause is satisfied by setting its literal, which goes on
    `trail`.
    """
    if not clauses:
        return True
    if _refutation(clauses, n) is not None:
        return False
    if len(clauses) > 1 or clauses[0].bit_count() > 1:
        return None
    b = clauses[0].bit_length() - 1
    trail.append((b % n, b < n))
    return True


def solve_2sat(s: Scheme) -> SolveResult:
    """Decide a 2-SAT scheme, with model on success.

    Loop: clear single-polarity columns and facts; then probe the lowest
    unset variable with true, falling back to false.  A probe whose
    propagation runs to a quiet fixpoint is committed (sound for 2-SAT: the
    leftover clauses mention none of the propagated variables); both probes
    failing certifies UNSAT.  A variable no clause holds is set true when
    the probe reaches it.  `_facts` does nothing where `_verdict` is not
    None, so a verdict is taken only before pure-column removal and after
    fact propagation.
    """
    if not is_2sat(s):
        raise ValueError("solve_2sat requires at most 2 literals per clause")
    n = s.n
    clauses, trail = _masks(s), []
    done = _verdict(clauses, n, trail)
    while done is None:
        k = len(trail)
        clauses = _facts(_pure(clauses, n, trail), n, trail)
        done = _verdict(clauses, n, trail)
        if len(trail) == k:
            # quiet formula: no pure columns, no facts; probe the lowest unset variable
            v = min(set(range(n)) - dict(trail).keys())
            for lit in (v, v + n):
                del trail[k:]
                trail.append((v, lit == v))
                probe = _facts(_set(clauses, n, lit), n, trail)
                done = _verdict(probe, n, trail)
                if done is not False:
                    break
            # a quiet probe (done None) is committed: go on from its residue
            clauses = probe
    return _finish(s, trail, done)


def _finish(original: Scheme, trail: list[tuple[int, bool]], satisfiable: bool) -> SolveResult:
    """The result of a run that set `trail`; the witness sets every other variable false."""
    if not satisfiable:
        return SolveResult(satisfiable=False, witness=None, steps=len(trail))
    true = {j for j, value in trail if value}
    witness = tuple(1 if j in true else -1 for j in range(original.n))
    if not evaluate(original, witness):
        raise RuntimeError("internal error: solver produced a non-model witness")
    return SolveResult(satisfiable=True, witness=witness, steps=len(trail))


def solve_horn(s: Scheme) -> SolveResult:
    """Decide a Horn scheme by forward chaining on positive unit facts.

    No positive facts means all-false satisfies every remaining clause
    (each holds a negated literal).  Setting a fact true keeps the Horn
    shape, since it adds no positive literal; an empty clause on the way
    means UNSAT.
    """
    if not is_horn(s):
        raise ValueError("solve_horn requires at most one positive literal per clause")
    n = s.n
    clauses, trail = _masks(s), []
    while 0 not in clauses:
        # a positive fact is one bit below n
        fact = next((c for c in clauses if c < 1 << n and not c & (c - 1)), None)
        if fact is None:
            return _finish(s, trail, True)
        v = fact.bit_length() - 1
        trail.append((v, True))
        clauses = _set(clauses, n, v)
    return _finish(s, trail, False)
