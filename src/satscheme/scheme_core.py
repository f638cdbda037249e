"""Matrix-scheme data model for CNF formulas.

A formula with m clauses over n variables is stored as an m-by-n grid of
fills: +1 for a positive literal, -1 for a negated literal, 0 for a variable
absent from the clause.  Rows are clauses, columns are variables.

Columns are 0-based throughout the Python API; the CLI and all diagnostics
use 1-based indices (the DIMACS convention).
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Fill",
    "Scheme",
    "Status",
    "SchemeParseError",
    "as_assignment",
    "parse_dimacs",
    "parse_scheme_text",
    "emit_dimacs",
    "emit_scheme_text",
    "evaluate",
    "orthogonal",
    "status",
    "unsat_count_direct",
]


class Fill(enum.IntEnum):
    """Cell value of a scheme: a literal's polarity, or absence."""

    POSITIVE = 1
    NEGATIVE = -1
    ABSENT = 0


class Status(enum.Enum):
    """Terminal patterns that end scheme manipulation.

    CONFIRMATION: the scheme is a single row with exactly one fill (trivially
    satisfiable).  CONTRADICTION: two unit rows force opposite values of the
    same variable.  EMPTY_CLAUSE: some row has no fills at all (unsatisfiable
    empty disjunction).  OPEN: none of the above.
    """

    OPEN = "open"
    CONFIRMATION = "confirmation"
    CONTRADICTION = "contradiction"
    EMPTY_CLAUSE = "empty_clause"


class SchemeParseError(ValueError):
    """Raised on malformed DIMACS or scheme-text input."""


class Scheme:
    """Immutable m-by-n grid of fills representing a CNF formula.

    Rows of all zeros are legal and denote the empty (unsatisfiable) clause.
    A cell holds exactly one of {+1, -1, 0}; a clause that would need both
    polarities of one variable (a tautology) is not representable and is
    rejected by the parsers.

    Values other than exactly -1, 0 or +1 are rejected before the int8
    cast.  A C-contiguous int8 array is wrapped without a copy and made
    read-only; a caller that keeps editing it must pass a copy.
    """

    __slots__ = ("_cells", "_hash")

    def __init__(self, cells: np.ndarray):
        raw = np.asarray(cells)
        if raw.dtype == np.int8:
            arr = raw
        else:  # NaN and inf cast with a warning; the equality check below rejects them
            with np.errstate(invalid="ignore"):
                arr = raw.astype(np.int8)
        if arr.ndim != 2:
            raise ValueError(f"scheme cells must be 2-dimensional, got shape {arr.shape}")
        if arr.size and (
            arr.min() < -1 or arr.max() > 1 or (arr is not raw and not np.array_equal(arr, raw))
        ):
            raise ValueError("scheme cells must be -1, 0 or +1")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._cells = arr
        self._hash: int | None = None

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], n: int | None = None) -> "Scheme":
        """Build a scheme from row iterables of {-1, 0, +1}.

        `n` fixes the column count when there are no rows (an empty
        conjunction over n variables).
        """
        mat = [list(r) for r in rows]
        if not mat:
            return cls(np.zeros((0, n or 0), dtype=np.int8))
        widths = {len(r) for r in mat}
        if len(widths) != 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")
        if n is not None and widths != {n}:
            raise ValueError(f"rows have width {widths.pop()}, expected {n}")
        return cls(np.array(mat, dtype=np.int8))

    @classmethod
    def empty(cls, n: int) -> "Scheme":
        """The empty conjunction over n variables (vacuously satisfiable)."""
        return cls(np.zeros((0, n), dtype=np.int8))

    @property
    def cells(self) -> np.ndarray:
        return self._cells

    @property
    def m(self) -> int:
        return self._cells.shape[0]

    @property
    def n(self) -> int:
        return self._cells.shape[1]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self._cells[i])

    def rows(self) -> Iterator[tuple[int, ...]]:
        for i in range(self.m):
            yield self.row(i)

    def row_support(self, i: int) -> tuple[int, ...]:
        """Columns where row i has a fill."""
        return tuple(int(j) for j in np.nonzero(self._cells[i])[0])

    def row_size(self, i: int) -> int:
        """Number of literals in clause i."""
        return int(np.count_nonzero(self._cells[i]))

    def max_clause_size(self) -> int:
        if self.m == 0:
            return 0
        return int(np.count_nonzero(self._cells, axis=1).max())

    def has_empty_row(self) -> bool:
        return self.m > 0 and bool((np.count_nonzero(self._cells, axis=1) == 0).any())

    def delete_columns(self, cols: Sequence[int]) -> "Scheme":
        keep = np.ones(self.n, dtype=bool)
        keep[list(cols)] = False
        return Scheme(self._cells[:, keep])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scheme):
            return NotImplemented
        return self._cells.shape == other._cells.shape and np.array_equal(
            self._cells, other._cells
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._cells.shape, self._cells.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Scheme({self.m}x{self.n})"


# --- assignments -----------------------------------------------------------

def as_assignment(x: Iterable[int | bool], n: int | None = None) -> tuple[int, ...]:
    """Normalize an assignment to a tuple over {-1, +1} (+1 is true).

    Accepts booleans or +-1 integers; rejects anything else.
    """
    out = []
    for v in x:
        if isinstance(v, (bool, np.bool_)):
            out.append(1 if v else -1)
        elif v in (1, -1):
            out.append(int(v))
        else:
            raise ValueError(f"assignment entries must be +-1 or bool, got {v!r}")
    if n is not None and len(out) != n:
        raise ValueError(f"assignment has length {len(out)}, scheme expects {n}")
    return tuple(out)


# --- parsing / serialization ----------------------------------------------

def parse_dimacs(text: str, drop_tautologies: bool = False) -> Scheme:
    """Parse DIMACS CNF into a scheme.

    Duplicate literals inside a clause collapse to one fill.  A clause
    holding both v and -v is a tautology: the scheme cannot express it, so
    the parser rejects it with a diagnostic unless `drop_tautologies` is set,
    in which case the clause is removed (it never constrains anything).
    """
    n = m = None
    literals: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise SchemeParseError(f"line {lineno}: duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise SchemeParseError(f"line {lineno}: malformed header {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise SchemeParseError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or m < 0:
                raise SchemeParseError(f"line {lineno}: negative counts in header")
            continue
        if n is None:
            raise SchemeParseError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                literals.append(int(tok))
            except ValueError:
                raise SchemeParseError(f"line {lineno}: bad literal {tok!r}") from None
    if n is None:
        raise SchemeParseError("missing 'p cnf' header")

    clauses: list[list[int]] = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            clauses.append(current)
            current = []
        else:
            current.append(lit)
    if current:
        raise SchemeParseError(f"clause {len(clauses) + 1}: missing terminating 0")
    if len(clauses) != m:
        raise SchemeParseError(f"header promises {m} clauses, found {len(clauses)}")

    rows = []
    for ci, clause in enumerate(clauses, start=1):
        row = np.zeros(n, dtype=np.int8)
        tautological = False
        for lit in clause:
            var = abs(lit)
            if var > n:
                raise SchemeParseError(f"clause {ci}: literal {lit} out of range (n={n})")
            sign = 1 if lit > 0 else -1
            if row[var - 1] == -sign:
                tautological = True
            else:
                row[var - 1] = sign
        if tautological:
            if drop_tautologies:
                continue
            raise SchemeParseError(
                f"clause {ci} contains a variable and its negation (tautology); "
                f"re-run with tautology dropping to remove it"
            )
        rows.append(row)
    if not rows:
        return Scheme.empty(n)
    return Scheme(np.array(rows, dtype=np.int8))


_TOKEN_TO_FILL = {"+": 1, "-": -1, "0": 0}
_FILL_TO_TOKEN = {1: "+", -1: "-", 0: "0"}


def parse_scheme_text(text: str) -> Scheme:
    """Parse the grid notation: one clause per line, `+ - 0` tokens.

    Blank lines are ignored; empty input yields the 0x0 scheme.
    """
    rows = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks:
            continue
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise SchemeParseError(f"line {lineno}: ragged row ({len(toks)} tokens, expected {width})")
        row = []
        for tok in toks:
            if tok not in _TOKEN_TO_FILL:
                raise SchemeParseError(f"line {lineno}: unknown token {tok!r}")
            row.append(_TOKEN_TO_FILL[tok])
        rows.append(row)
    if not rows:
        return Scheme.empty(0)
    return Scheme(np.array(rows, dtype=np.int8))


def emit_scheme_text(s: Scheme) -> str:
    """Render the grid notation; inverse of parse_scheme_text for m >= 1.

    A scheme with no rows renders as the empty string, which parses back as
    0x0 (the column count is not expressible in bare grid text; use DIMACS
    when that matters).
    """
    return "\n".join(" ".join(_FILL_TO_TOKEN[int(v)] for v in row) for row in s.cells)


def emit_dimacs(s: Scheme) -> str:
    lines = [f"p cnf {s.n} {s.m}"]
    for i in range(s.m):
        lits = [str((j + 1) * int(s.cells[i, j])) for j in range(s.n) if s.cells[i, j] != 0]
        lines.append(" ".join(lits + ["0"]))
    return "\n".join(lines) + "\n"


# --- evaluation ------------------------------------------------------------

def unsat_count_direct(s: Scheme, x: Sequence[int]) -> int:
    """Number of clauses with no satisfied literal, by direct row scan.

    Independent of the polynomial machinery; serves as its oracle.
    """
    xs = as_assignment(x, s.n)
    if s.m == 0:
        return 0
    xv = np.array(xs, dtype=np.int8)
    sat = ((s.cells != 0) & (s.cells == xv[None, :])).any(axis=1)
    return int(s.m - np.count_nonzero(sat))


def evaluate(s: Scheme, x: Sequence[int]) -> bool:
    """True iff every clause has a literal satisfied by x (+1 true, -1 false)."""
    return unsat_count_direct(s, x) == 0


def orthogonal(s: Scheme, i: int, j: int) -> bool:
    """True iff rows i and j hold opposite fills in some column.

    The disjunction of two such rows is a tautology.  A row is never
    orthogonal to itself (by convention).
    """
    if not (0 <= i < s.m and 0 <= j < s.m):
        raise IndexError(f"row index out of range: {i}, {j} (m={s.m})")
    if i == j:
        return False
    a, b = s.cells[i], s.cells[j]
    return bool(((a == 1) & (b == -1)).any() or ((a == -1) & (b == 1)).any())


def status(s: Scheme) -> Status:
    """First matching terminal pattern, else OPEN.

    Checked in order: confirmation, contradiction (some column holds both a
    +1 and a -1 unit row), empty clause.
    """
    if s.m == 0:
        return Status.OPEN
    sizes = np.count_nonzero(s.cells, axis=1)
    if sizes.min() >= 2:
        return Status.OPEN
    if s.m == 1 and sizes[0] == 1:
        return Status.CONFIRMATION
    units = s.cells[sizes == 1]
    if ((units == 1).any(axis=0) & (units == -1).any(axis=0)).any():
        return Status.CONTRADICTION
    if sizes.min() == 0:
        return Status.EMPTY_CLAUSE
    return Status.OPEN
