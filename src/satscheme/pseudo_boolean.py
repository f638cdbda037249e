"""Unsatisfied-clause polynomial u(x) over sign vectors x in {-1,+1}^n.

For a clause with fills f_j, g(x) = prod_{support}(1 - f_j x_j) is 2**k when
every literal is falsified and 0 otherwise, so with per-clause weights a_i,
u(x) = sum_i a_i g_i(x) vanishes exactly on the models of the formula.  With
the canonical weights a_i = 2**-k_i each violated clause contributes 1 and
u(x) is the number of violated clauses.

For formulas with at most three literals per clause u expands into a cubic
multilinear polynomial

    u(x) = C - sum_j lam_j x_j + sum_{i<j} mu_ij x_i x_j
             - sum_{i<j<k} nu_ijk x_i x_j x_k

whose coefficients are dyadic rationals.  All weights share one
denominator 2**e, so every coefficient is held here as the exact integer
it becomes at the scale 2**e, and u(x) * 2**e is integer arithmetic.
`Dyadic` appears only where values leave the module (`eval_u`, and the
weights a caller passes in).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .dyadic import Dyadic
from .oracle import DEFAULT_LIMIT
from .scheme_core import Scheme, as_assignment, unsat_count_direct

__all__ = [
    "ExtensionStrategy",
    "PBForm",
    "pb_coefficients",
    "resolve_weights",
    "clause_mass",
    "polarity_damped_weights",
    "eval_u",
    "unsat_count_direct",
    "extend",
    "serialize_polynomial",
]


class ExtensionStrategy(enum.Enum):
    """Which adverse-parity partner clause to add per 3-literal clause."""

    FLIP_FIRST = "first"
    FLIP_SECOND = "second"
    FLIP_THIRD = "third"
    FLIP_ALL = "all"
    EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True, eq=False)
class PBForm:
    """Cubic multilinear expansion of u(x) at the common scale 2**scale_exp.

    Every coefficient is stored as an integer equal to the exact value
    times `scale`, the numbers `serialize_polynomial` prints: `const` is a
    Python int, `lam` an int64 vector (n,), `mu` an int64 (n, n) matrix,
    symmetric with a zero diagonal, and the cubic terms are the rows of
    `nu_idx` (int64 (t, 3), strictly increasing, in lexicographic order)
    with nonzero values `nu_val` (int64 (t,)).
    """

    n: int
    const: int
    lam: np.ndarray
    mu: np.ndarray
    nu_idx: np.ndarray
    nu_val: np.ndarray
    scale_exp: int
    weight_kind: str

    @property
    def scale(self) -> int:
        return 1 << self.scale_exp

    def coefficient_mass(self) -> int:
        """Scaled sum |lam| + sum |mu| + sum |nu| (the largest swing of u - C)."""
        return int(np.abs(self.lam).sum() + np.abs(self.mu).sum() // 2 + np.abs(self.nu_val).sum())

    def values(self, X: np.ndarray) -> np.ndarray:
        """Scaled u at each row of a +-1 matrix, exact int64."""
        X = np.asarray(X, dtype=np.int64)
        vals = self.const - X @ self.lam + ((X @ self.mu) * X).sum(axis=1) // 2
        if len(self.nu_val):
            vals -= X[:, self.nu_idx].prod(axis=2) @ self.nu_val
        return vals


def resolve_weights(
    s: Scheme, weights: str | Sequence[Dyadic] = "canonical"
) -> tuple[np.ndarray, int, str]:
    """Per-clause positive weights as (int64 w, e, kind): weight i is w[i] / 2**e.

    'canonical' gives 2**-k_i, 'unit' gives 1; any sequence of positive
    dyadics (length m) is accepted as custom weights.  The scaled total
    must stay below 2**53: every value and partial sum of u is then below
    16 * sum(w), so int64 cannot overflow and float64 copies are exact.
    """
    if isinstance(weights, str):
        kind = weights.lower()
        if kind == "canonical":
            sizes = np.count_nonzero(s.cells, axis=1).tolist()
            e = max(sizes, default=0)
            scaled = [1 << (e - k) for k in sizes]
        elif kind == "unit":
            e, scaled = 0, [1] * s.m
        else:
            raise ValueError(f"unknown weight scheme {weights!r}")
    else:
        kind = "custom"
        vals = list(weights)
        if len(vals) != s.m:
            raise ValueError(f"need {s.m} weights, got {len(vals)}")
        for i, w in enumerate(vals):
            if not isinstance(w, Dyadic):
                raise TypeError(f"weight {i + 1} is not a Dyadic")
            if not (Dyadic(0) < w):
                raise ValueError(f"weight {i + 1} must be strictly positive, got {w}")
        e = max((w.exp for w in vals), default=0)
        scaled = [w.scaled(e) for w in vals]
    if sum(scaled) >= 1 << 53:
        raise ValueError(
            f"weights scaled by 2**{e} sum to 2**53 or more; the integer "
            f"coefficients would not stay exact"
        )
    return np.array(scaled, dtype=np.int64), e, kind


def clause_mass(s: Scheme) -> Dyadic:
    """Exact sum over clauses of 2**-k_i, the total of the canonical weights.

    Clauses of equal width share one shift, so the sum runs over widths and
    holds for clauses of any width.
    """
    counts = np.bincount(np.count_nonzero(s.cells, axis=1), minlength=1).tolist()
    e = len(counts) - 1
    return Dyadic(sum(c << (e - k) for k, c in enumerate(counts)), e)


def polarity_damped_weights(s: Scheme) -> list[Dyadic]:
    """Preset custom weights 2**-k_i * 2**-|net polarity of clause i|.

    Damps clauses whose literals lean heavily one way; any strictly positive
    weights preserve the u(x)=0-iff-model property.
    """
    cells = s.cells.astype(np.int64)
    exps = np.count_nonzero(cells, axis=1) + np.abs(cells.sum(axis=1))
    return [Dyadic.half_pow(k) for k in exps.tolist()]


def pb_coefficients(s: Scheme, weights: str | Sequence[Dyadic] = "canonical") -> PBForm:
    """Exact expansion coefficients of u(x); requires at most 3 literals per clause.

    With w the scaled weights, lam = F^T w, mu = F^T diag(w) F off the
    diagonal, and each 3-literal clause adds w_i times its product of fills
    to the triple on its support.  Clauses with four or more literals have
    quartic terms the expansion does not carry; convert the formula to
    3-SAT first.
    """
    F = s.cells.astype(np.int64)
    sizes = np.count_nonzero(F, axis=1)
    wide = np.flatnonzero(sizes > 3)
    if len(wide):
        i = int(wide[0])
        raise ValueError(
            f"clause {i + 1} has {sizes[i]} literals; the cubic expansion "
            f"needs 3-SAT input (reduce the formula first)"
        )
    w, e, kind = resolve_weights(s, weights)
    mu = (F.T * w) @ F
    np.fill_diagonal(mu, 0)
    # a triple support (i, j, k) is keyed by its base-n digits, so the keys
    # sort in lexicographic order of the triples
    tri = sizes == 3
    F3 = F[tri]
    rows, cols = np.nonzero(F3)
    digits = np.array([s.n * s.n, s.n, 1])
    keys, inv = np.unique(cols.reshape(-1, 3) @ digits, return_inverse=True)
    nu_val = np.zeros(len(keys), dtype=np.int64)
    np.add.at(nu_val, inv, w[tri] * F3[rows, cols].reshape(-1, 3).prod(axis=1))
    keep = nu_val != 0
    nu_idx = keys[keep, None] // digits % s.n
    return PBForm(
        n=s.n,
        const=int(w.sum()),
        lam=F.T @ w,
        mu=mu,
        nu_idx=nu_idx,
        nu_val=nu_val[keep],
        scale_exp=e,
        weight_kind=kind,
    )


def eval_u(p: PBForm, x: Sequence[int]) -> Dyadic:
    """Exact value of u at a sign vector."""
    xs = as_assignment(x, p.n)
    return Dyadic(int(p.values(np.array([xs], dtype=np.int64))[0]), p.scale_exp)


def _adverse_row(row: np.ndarray, sup: np.ndarray, strategy: ExtensionStrategy) -> np.ndarray:
    out = row.copy()
    if strategy is ExtensionStrategy.FLIP_ALL:
        out[sup] = -out[sup]
    else:
        pos = {"first": 0, "second": 1, "third": 2}[strategy.value]
        j = sup[pos]
        out[j] = -out[j]
    return out


def extend(s: Scheme, strategy: ExtensionStrategy | str = ExtensionStrategy.FLIP_SECOND) -> Scheme:
    """Append one adverse-parity partner per 3-literal clause.

    The partner shares the clause's support with the opposite product of
    literal signs, so the two cubic contributions cancel: the result always
    has nu identically zero.  Any model of the extension satisfies the
    original clauses (they are all still present), so a satisfiable
    extension certifies satisfiability of `s`.

    EXHAUSTIVE enumerates the per-clause choices (first, second, third, all)
    in deterministic product order and returns the first extension that the
    brute-force scan finds satisfiable; it raises ValueError when none is
    (which can only happen when `s` itself is unsatisfiable).  With t
    3-literal clauses it refuses before any scan when 4**t * 2**n >
    2**DEFAULT_LIMIT (oracle), the work of one oracle scan at its cap.
    """
    if isinstance(strategy, str):
        strategy = ExtensionStrategy(strategy.lower())
    triple_rows = np.flatnonzero(np.count_nonzero(s.cells, axis=1) == 3).tolist()
    if not triple_rows:
        return s

    if strategy is ExtensionStrategy.EXHAUSTIVE:
        t = len(triple_rows)
        if 2 * t + s.n > DEFAULT_LIMIT:
            raise ValueError(
                f"exhaustive extension search: 4**{t} * 2**{s.n} exceeds the budget 2**{DEFAULT_LIMIT}"
            )
        choices = (
            ExtensionStrategy.FLIP_FIRST,
            ExtensionStrategy.FLIP_SECOND,
            ExtensionStrategy.FLIP_THIRD,
            ExtensionStrategy.FLIP_ALL,
        )
        for combo in itertools.product(choices, repeat=t):
            rows = list(s.cells)
            for i, choice in zip(triple_rows, combo):
                rows.append(_adverse_row(s.cells[i], np.nonzero(s.cells[i])[0], choice))
            cand = Scheme(np.array(rows, dtype=np.int8))
            sat_count, _, _, _, _ = kernels.assignment_scan(cand.cells)
            if sat_count > 0:
                return cand
        raise ValueError("no satisfiable extension exists (the formula is unsatisfiable)")

    rows = list(s.cells)
    for i in triple_rows:
        rows.append(_adverse_row(s.cells[i], np.nonzero(s.cells[i])[0], strategy))
    return Scheme(np.array(rows, dtype=np.int8))


def _terms(p: PBForm) -> list[tuple[tuple[int, ...], int]]:
    """(1-based variables, stored coefficient) of every nonzero lam, mu, nu term.

    Python ints, in linear, pair, triple order with indices ascending; the
    sign of a term in u is (-1)**degree times the value.
    """
    i, j = np.nonzero(np.triu(p.mu))
    return (
        [((v + 1,), c) for v, c in enumerate(p.lam.tolist()) if c]
        + list(zip(zip((i + 1).tolist(), (j + 1).tolist()), p.mu[i, j].tolist()))
        + list(zip(map(tuple, (p.nu_idx + 1).tolist()), p.nu_val.tolist()))
    )


def serialize_polynomial(p: PBForm) -> str:
    """Paper-style single line with 2**scale_exp-scaled integer coefficients.

    Example: `8u = 12 + x1 - 2x2 + 2x3 - 3x4 - x1x2 + ...` with terms in
    constant, linear, pair, triple order and indices ascending.
    """
    head = f"{p.scale}u = " if p.scale_exp else "u = "
    parts = [head + str(p.const)]
    for idx, value in _terms(p):
        coef = -value if len(idx) % 2 else value
        sign = "+" if coef > 0 else "-"
        mag = abs(coef)
        vars_ = "".join(f"x{v}" for v in idx)
        parts.append(f" {sign} {vars_}" if mag == 1 else f" {sign} {mag}{vars_}")
    return "".join(parts)


def to_json_dict(p: PBForm) -> dict:
    """JSON-ready {scale, C, lambda, mu, nu} with scaled integer coefficients."""
    terms = _terms(p)
    return {
        "scale": p.scale,
        "weights": p.weight_kind,
        "C": p.const,
        "lambda": p.lam.tolist(),
        "mu": {",".join(map(str, idx)): c for idx, c in terms if len(idx) == 2},
        "nu": {",".join(map(str, idx)): c for idx, c in terms if len(idx) == 3},
        "polynomial": serialize_polynomial(p),
    }
