"""Polynomial-time satisfiability checks and their sound aggregation.

Each check returns a Verdict: a certified SAT/UNSAT conclusion with
evidence, or Inconclusive.  Certifications must never contradict the
brute-force oracle; anything resting on floating point keeps a safety
margin and SAT is only ever certified on an explicitly re-checked witness.
The resolution chain is the verdict of `transforms._eliminate`, the
Davis-Putnam loop that `solve --method split` also runs, read from the clause
masks it returns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels, pt_solvers
from .dyadic import Dyadic
from .pseudo_boolean import PBForm, clause_mass, pb_coefficients, unsat_count_direct
from .scheme_core import Scheme
from .transforms import RESOLUTION_ROW_LIMIT, _eliminate, _refutation
from .transforms import resolve  # noqa: F401  unused; the benchmark tracer wraps checks.resolve

__all__ = [
    "VerdictKind",
    "Verdict",
    "CheckReport",
    "check_all_rows_polarity",
    "check_clause_mass",
    "check_coefficient_bound",
    "check_parity",
    "check_eigen_bounds",
    "check_resolution_chain",
    "run_all",
    "jacobi_eigenvalues",
    "EPS",
]

EPS = 1e-8
_JACOBI_TOL = 1e-12
EXACT_EIGEN_LIMIT = 24


class VerdictKind(enum.Enum):
    SAT_CERTIFIED = "sat_certified"
    UNSAT_CERTIFIED = "unsat_certified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    evidence: dict

    @classmethod
    def sat(cls, **evidence) -> "Verdict":
        return cls(VerdictKind.SAT_CERTIFIED, evidence)

    @classmethod
    def unsat(cls, **evidence) -> "Verdict":
        return cls(VerdictKind.UNSAT_CERTIFIED, evidence)

    @classmethod
    def inconclusive(cls, **evidence) -> "Verdict":
        return cls(VerdictKind.INCONCLUSIVE, evidence)


@dataclass(frozen=True)
class CheckReport:
    """Named verdicts plus the strongest sound overall conclusion."""

    checks: dict[str, Verdict]
    overall: VerdictKind


def check_all_rows_polarity(s: Scheme) -> Verdict:
    """Certify SAT when one polarity covers every clause.

    All clauses holding a positive literal are satisfied by all-true;
    all holding a negated one by all-false.  Vacuously true for the empty
    conjunction.
    """
    if s.m == 0:
        return Verdict.sat(witness=(1,) * s.n, polarity="positive")
    has_pos = ((s.cells == 1).any(axis=1)).all()
    if has_pos:
        return Verdict.sat(witness=(1,) * s.n, polarity="positive")
    has_neg = ((s.cells == -1).any(axis=1)).all()
    if has_neg:
        return Verdict.sat(witness=(-1,) * s.n, polarity="negative")
    return Verdict.inconclusive()


def check_clause_mass(s: Scheme) -> Verdict:
    """Certify SAT when sum over clauses of 2**-k_i stays below 1.

    Each k-literal clause excludes a 2**-k fraction of assignments, so a
    total mass under 1 leaves room for a model.  An empty clause is itself
    unsatisfiable and certifies UNSAT outright.
    """
    if s.has_empty_row():
        return Verdict.unsat(reason="empty clause present")
    mass = clause_mass(s)
    if mass < Dyadic(1):
        return Verdict.sat(mass=mass)
    return Verdict.inconclusive(mass=mass)


def check_coefficient_bound(p: PBForm) -> Verdict:
    """Certify UNSAT when the swing of u cannot reach down to zero.

    u(x) = C - (terms); the terms are bounded by the sum of absolute
    coefficient values, so if that mass is strictly below C then u stays
    positive everywhere.  Exact integer comparison at the form's scale.
    """
    mass = p.coefficient_mass()
    evidence = {"constant": Dyadic(p.const, p.scale_exp), "mass": Dyadic(mass, p.scale_exp)}
    if mass < p.const:
        return Verdict.unsat(**evidence)
    return Verdict.inconclusive(**evidence)


def check_parity(s: Scheme) -> Verdict:
    """Certify UNSAT when the unit-weight u at all-true is odd.

    With all clause weights set to 1 a violated k-literal clause adds 2**k
    to u, and u changes by an even amount under any single flip, so an odd
    value at all-true propagates to every assignment.  The value at
    all-true sums 2**k_i over the clauses with no positive fill; it is odd
    exactly when an odd number of empty clauses is present.
    """
    sizes = np.count_nonzero(s.cells, axis=1)
    violated = ~(s.cells == 1).any(axis=1)
    counts = np.bincount(sizes[violated], minlength=1).tolist()
    u_all_true = sum(c << k for k, c in enumerate(counts))
    if u_all_true % 2 == 1:
        return Verdict.unsat(u_all_true=u_all_true)
    return Verdict.inconclusive(u_all_true=u_all_true)


def jacobi_eigenvalues(mat: np.ndarray, tol: float = _JACOBI_TOL, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps stop once every off-diagonal magnitude is below `tol`.  A
    reference for `np.linalg.eigvalsh`, which `check_eigen_bounds` uses.
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if n <= 1:
        return a.diagonal().copy()
    for _ in range(max_sweeps):
        off = np.abs(a - np.diag(a.diagonal()))
        if off.max() < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < tol * 1e-3:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - sn * rq
                a[q, :] = sn * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - sn * cq
                a[:, q] = sn * cp + c * cq
    return np.sort(a.diagonal())


def _rayleigh_matrix(p: PBForm) -> np.ndarray:
    return np.eye(p.n) * ((p.const / p.scale) / p.n) + 0.5 * (p.mu / p.scale)


def check_eigen_bounds(s: Scheme, mode: str = "auto") -> Verdict:
    """Rayleigh bounds on u via the extreme eigenvalues of C/n*I + mu/2.

    For every sign vector, n*e_min - A(x) <= u(x) <= n*e_max - A(x) with
    A(x) the linear-plus-cubic part.  'exact' mode (n <= 24) scans all
    assignments for the extremum of A: the lower bound everywhere positive
    certifies UNSAT; an upper bound below 1 yields a witness candidate that
    is certified only after a direct violation recount.  'relaxed' mode
    replaces the scan by the absolute-coefficient bound and a greedy
    descent for the witness.  All float comparisons keep an EPS margin.
    """
    return _eigen_verdict(s, pb_coefficients(s, "canonical"), mode)


def _eigen_verdict(s: Scheme, p: PBForm, mode: str) -> Verdict:
    """`check_eigen_bounds` reading the canonical form `p`; inconclusive
    with reason "no variables" when n = 0, before `mode` is read."""
    if s.n < 1:
        return Verdict.inconclusive(reason="no variables")
    if mode == "auto":
        mode = "exact" if s.n <= EXACT_EIGEN_LIMIT else "relaxed"
    if mode not in ("exact", "relaxed"):
        raise ValueError(f"unknown eigen mode {mode!r}")
    if mode == "exact" and s.n > EXACT_EIGEN_LIMIT:
        raise ValueError(f"exact eigen mode is capped at n <= {EXACT_EIGEN_LIMIT}")

    eigs = np.linalg.eigvalsh(_rayleigh_matrix(p))
    e_min, e_max = float(eigs[0]), float(eigs[-1])
    lam, nu_val = p.lam / p.scale, p.nu_val / p.scale

    if mode == "exact":
        _, _, max_a, max_code = kernels.cubic_form_scan(s.n, lam, p.nu_idx, nu_val)
        if s.n * e_min - max_a > EPS:
            return Verdict.unsat(e_min=e_min, e_max=e_max, max_form=max_a)
        if s.n * e_max - max_a < 1.0 - EPS:
            witness = kernels.decode_assignment(int(max_code), s.n)
            if unsat_count_direct(s, witness) == 0:
                return Verdict.sat(e_min=e_min, e_max=e_max, witness=witness)
        return Verdict.inconclusive(e_min=e_min, e_max=e_max, max_form=max_a)

    abs_mass = float(np.abs(lam).sum() + np.abs(nu_val).sum())
    if s.n * e_min - abs_mass > EPS:
        return Verdict.unsat(e_min=e_min, e_max=e_max, abs_mass=abs_mass)
    witness = _greedy_descent(s, p)
    if witness is not None:
        return Verdict.sat(e_min=e_min, e_max=e_max, witness=witness)
    return Verdict.inconclusive(e_min=e_min, e_max=e_max, abs_mass=abs_mass)


def _greedy_descent(s: Scheme, p: PBForm, max_passes: int = 4) -> tuple[int, ...] | None:
    """Coordinate descent on the violated-clause count from the signs of lam; a model or None."""
    x = [1 if v >= 0 else -1 for v in p.lam.tolist()]
    best = unsat_count_direct(s, x)
    for _ in range(max_passes):
        improved = False
        for j in range(s.n):
            if best == 0:
                break
            x[j] = -x[j]
            cand = unsat_count_direct(s, x)
            if cand < best:
                best = cand
                improved = True
            else:
                x[j] = -x[j]
        if best == 0 or not improved:
            break
    return tuple(x) if best == 0 else None


def check_resolution_chain(
    s: Scheme,
    order: Sequence[int] | None = None,
    row_limit: int = RESOLUTION_ROW_LIMIT,
) -> Verdict:
    """Davis-Putnam variable elimination, complete within a clause budget.

    The verdict of one `transforms._eliminate` run (least clause growth
    first by default): UNSAT at an empty clause or contradiction, SAT with
    the re-checked back-substituted witness.  An explicit `order` lists
    original column indices (any prefix of a permutation); clauses left
    over the variables it does not name are inconclusive, and so is a step
    that would pass `row_limit` clauses.
    """
    states, _, witness, over_budget = _eliminate(s, order, row_limit)
    step, last = len(states) - 1, states[-1]
    if witness is not None:
        return Verdict.sat(step=step, witness=witness)
    pattern = _refutation(last, s.n)
    if pattern is not None:
        return Verdict.unsat(step=step, pattern=pattern.value)
    if over_budget:
        return Verdict.inconclusive(reason=f"clause growth beyond {row_limit}", final_rows=len(last))
    return Verdict.inconclusive(final_rows=len(last))


def run_all(s: Scheme) -> CheckReport:
    """Run the whole battery and aggregate soundly.

    The expansion-based checks need at most three literals per clause and
    report inconclusive (with a note) otherwise; the complete 2-SAT/Horn
    solvers join in when the formula is in their class.  A SAT and an UNSAT
    certification together indicate an implementation bug and raise.
    """
    checks: dict[str, Verdict] = {}
    checks["polarity"] = check_all_rows_polarity(s)
    checks["clause_mass"] = check_clause_mass(s)
    checks["parity"] = check_parity(s)
    if s.max_clause_size() <= 3:
        p = pb_coefficients(s, "canonical")
        checks["coefficient_bound"] = check_coefficient_bound(p)
        checks["eigen_bounds"] = _eigen_verdict(s, p, "auto")
    else:
        note = Verdict.inconclusive(reason="needs at most 3 literals per clause")
        checks["coefficient_bound"] = note
        checks["eigen_bounds"] = note
    checks["resolution_chain"] = check_resolution_chain(s)
    if pt_solvers.is_2sat(s):
        res = pt_solvers.solve_2sat(s)
        checks["two_sat"] = (
            Verdict.sat(witness=res.witness) if res.satisfiable else Verdict.unsat()
        )
    if pt_solvers.is_horn(s):
        res = pt_solvers.solve_horn(s)
        checks["horn"] = (
            Verdict.sat(witness=res.witness) if res.satisfiable else Verdict.unsat()
        )

    kinds = {v.kind for v in checks.values()}
    has_sat = VerdictKind.SAT_CERTIFIED in kinds
    has_unsat = VerdictKind.UNSAT_CERTIFIED in kinds
    if has_sat and has_unsat:
        raise RuntimeError(f"conflicting certifications: {checks}")
    overall = (
        VerdictKind.SAT_CERTIFIED
        if has_sat
        else VerdictKind.UNSAT_CERTIFIED
        if has_unsat
        else VerdictKind.INCONCLUSIVE
    )
    return CheckReport(checks=checks, overall=overall)
