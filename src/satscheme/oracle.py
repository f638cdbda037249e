"""Brute-force ground truth: enumerate every assignment.

The oracle is the reference every other module is validated against.  It
covers all 2**n assignments (the split-and-multiply scan in `kernels`),
recording the exact model count, the minimum number of violated clauses, and
the full histogram of violation counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .scheme_core import Scheme

__all__ = ["OracleReport", "oracle_scan", "DEFAULT_LIMIT"]

DEFAULT_LIMIT = 30
SOLUTION_LIST_LIMIT = 16


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-scan result.

    `solutions` lists every satisfying assignment (as +-1 tuples, ascending
    code order) when n <= 16, else None.  `u_min` is the least number of
    violated clauses over all assignments; `u_histogram` maps each violation
    count to the number of assignments attaining it.  `witness` attains
    u_min (so it is a model whenever one exists, at any n).
    """

    count: int
    solutions: tuple[tuple[int, ...], ...] | None
    u_min: int
    u_histogram: dict[int, int]
    witness: tuple[int, ...]


def oracle_scan(s: Scheme, limit: int | None = None) -> OracleReport:
    """Scan all assignments of `s`; raises ValueError when n > `limit` (default DEFAULT_LIMIT)."""
    cap = DEFAULT_LIMIT if limit is None else limit
    if s.n > cap:
        raise ValueError(f"oracle refuses n={s.n} > limit {cap}; raise the limit explicitly")
    collect = s.n <= SOLUTION_LIST_LIMIT
    count, u_min, min_code, hist, sol_codes = kernels.assignment_scan(s.cells, collect=collect)
    solutions = None
    if collect:
        solutions = tuple(kernels.decode_assignment(int(c), s.n) for c in sol_codes)
    histogram = {int(v): int(c) for v, c in enumerate(hist) if c}
    return OracleReport(
        count=int(count),
        solutions=solutions,
        u_min=int(u_min),
        u_histogram=histogram,
        witness=kernels.decode_assignment(int(min_code), s.n),
    )
