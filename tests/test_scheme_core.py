import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satscheme.dyadic import Dyadic
from satscheme.scheme_core import (
    Fill,
    Scheme,
    SchemeParseError,
    Status,
    emit_dimacs,
    emit_scheme_text,
    evaluate,
    orthogonal,
    parse_dimacs,
    parse_scheme_text,
    status,
)

from satscheme import scheme_core

from conftest import random_clause_set, random_scheme


# --- parsing ---------------------------------------------------------------

def test_parse_dimacs_basic():
    s = parse_dimacs("p cnf 4 1\n-2 3 -4 0")
    assert (s.m, s.n) == (1, 4)
    assert s.row(0) == (0, -1, 1, -1)


def test_parse_dimacs_empty_formula():
    s = parse_dimacs("p cnf 3 0\n")
    assert (s.m, s.n) == (0, 3)
    assert status(s) is Status.OPEN
    assert evaluate(s, (1, -1, 1))


def test_parse_dimacs_duplicate_literal_collapses():
    s = parse_dimacs("p cnf 2 1\n1 1 0")
    assert s.row(0) == (1, 0)


def test_parse_dimacs_comments_and_multiline_clauses():
    s = parse_dimacs("c hello\np cnf 3 2\n1 -2\n0\nc mid\n3 0\n")
    assert (s.m, s.n) == (2, 3)
    assert s.row(0) == (1, -1, 0)
    assert s.row(1) == (0, 0, 1)


def test_parse_dimacs_empty_clause_accepted():
    s = parse_dimacs("p cnf 2 1\n0")
    assert s.row(0) == (0, 0)
    assert status(s) is Status.EMPTY_CLAUSE


@pytest.mark.parametrize(
    "text",
    [
        "p cnf x 1\n1 0",
        "p cnf 2\n1 0",
        "1 0\np cnf 2 1",
        "p cnf 2 2\n1 0",
        "p cnf 2 1\n1 2",
        "p cnf 2 1\n3 0",
        "",
    ],
)
def test_parse_dimacs_rejects_malformed(text):
    with pytest.raises(SchemeParseError):
        parse_dimacs(text)


def test_parse_dimacs_tautology_diagnostic_names_clause():
    with pytest.raises(SchemeParseError, match="clause 2"):
        parse_dimacs("p cnf 2 2\n1 0\n2 -2 0")


def test_parse_dimacs_drop_tautologies():
    s = parse_dimacs("p cnf 2 2\n1 0\n2 -2 0", drop_tautologies=True)
    assert (s.m, s.n) == (1, 2)


def test_parse_scheme_text_f4(f4):
    assert f4.m == 4 and f4.n == 4
    assert f4.row(0) == (0, -1, 1, -1)
    assert f4.row(3) == (0, 1, 0, 0)


def test_parse_scheme_text_f5(f5, f4):
    assert f5.m == 5
    assert f5.row(4) == (0, 0, 0, 1)
    assert np.array_equal(f5.cells[:4], f4.cells)


def test_parse_scheme_text_empty():
    s = parse_scheme_text("")
    assert (s.m, s.n) == (0, 0)


def test_parse_scheme_text_errors():
    with pytest.raises(SchemeParseError, match="ragged"):
        parse_scheme_text("+ -\n+")
    with pytest.raises(SchemeParseError, match="token"):
        parse_scheme_text("+ x")


def test_scheme_validation():
    with pytest.raises(ValueError):
        Scheme(np.array([[2, 0]], dtype=np.int8))
    with pytest.raises(ValueError):
        Scheme.from_rows([[1, 0], [1]])


@pytest.mark.parametrize(
    "cells",
    [
        np.array([[1, 255, 0]]),
        np.array([[1.7, 0, 0]]),
        [[1, 2, 0]],
        np.array([[-128, 0]], dtype=np.int8),
    ],
)
def test_scheme_rejects_values_before_the_cast(cells):
    # 255 wraps to -1 and 1.7 truncates to 1 in an int8 cast; both must be
    # rejected rather than silently accepted as fills
    with pytest.raises(ValueError, match="-1, 0 or \\+1"):
        Scheme(cells)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_scheme_rejects_non_finite_floats_without_a_cast_warning(value):
    # the int8 cast of NaN or inf warns "invalid value encountered in cast";
    # under warnings-as-errors that warning must not replace the ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="-1, 0 or \\+1"):
            Scheme(np.array([[value, 0.0]]))


def test_scheme_accepts_exact_fills_of_any_dtype():
    for cells in (np.array([[1, -1, 0]], dtype=np.int64), [[True, False, False]]):
        assert Scheme(cells).cells.dtype == np.int8
    assert Scheme(np.array([[1.0, -1.0, 0.0]])).row(0) == (1, -1, 0)


def test_fill_enum_images():
    assert {int(Fill.POSITIVE), int(Fill.NEGATIVE), int(Fill.ABSENT)} == {1, -1, 0}


# --- round trips -------------------------------------------------------------

@st.composite
def scheme_grids(draw, max_n=6, max_m=6, min_m=1):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(min_m, max_m))
    cells = draw(
        st.lists(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return Scheme.from_rows(cells, n=n)


@given(scheme_grids())
@settings(max_examples=80, deadline=None)
def test_scheme_text_round_trip(s):
    assert parse_scheme_text(emit_scheme_text(s)) == s


@given(scheme_grids(min_m=0))
@settings(max_examples=80, deadline=None)
def test_dimacs_round_trip(s):
    # DIMACS carries n in the header, so even row-free schemes survive
    assert parse_dimacs(emit_dimacs(s)) == s


# --- evaluation --------------------------------------------------------------

def test_evaluate_f4_solutions(f4):
    assert evaluate(f4, (-1, 1, -1, -1))
    assert evaluate(f4, (1, 1, -1, -1))
    assert evaluate(f4, (False, True, False, False))


def test_evaluate_f5_all_true_false(f5):
    assert not evaluate(f5, (1, 1, 1, 1))


def test_evaluate_length_mismatch(f4):
    with pytest.raises(ValueError):
        evaluate(f4, (1, 1, 1))
    with pytest.raises(ValueError):
        evaluate(f4, (1, 1, 0, 1))


def _eval_product_formula(s, x):
    """Satisfaction as the exact product prod_i (1 - c_i g_i(x))."""
    total = Dyadic(1)
    for i in range(s.m):
        c = Dyadic.half_pow(s.row_size(i))
        gi = Dyadic(1)
        for j in s.row_support(i):
            gi = gi * (Dyadic(1) - Dyadic(int(s.cells[i, j])) * x[j])
        total = total * (Dyadic(1) - c * gi)
    return total


def test_evaluate_matches_product_formula_exhaustive():
    rng = random.Random(11)
    for _ in range(40):
        s = random_scheme(rng, n_max=5, m_max=6, k_max=5, empty_row_prob=0.1)
        for code in range(1 << s.n):
            x = tuple(1 if (code >> j) & 1 else -1 for j in range(s.n))
            want = _eval_product_formula(s, x) == Dyadic(1)
            assert evaluate(s, x) == want


# --- orthogonality -----------------------------------------------------------

def test_orthogonal_f5_pairs(f5):
    assert orthogonal(f5, 0, 1)
    assert not orthogonal(f5, 3, 4)
    # full table: row 1 orthogonal to all, row 2 to all but the last,
    # rows 3 and 4 only to the first two, row 5 only to the first
    expected_orthogonal = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)}
    for i in range(5):
        for j in range(i + 1, 5):
            assert orthogonal(f5, i, j) == ((i, j) in expected_orthogonal), (i, j)


def test_orthogonal_self_is_false(f4):
    assert not orthogonal(f4, 2, 2)


def test_orthogonal_index_errors(f4):
    with pytest.raises(IndexError):
        orthogonal(f4, 0, 9)


def test_orthogonal_symmetry_and_tautology():
    rng = random.Random(23)
    for _ in range(30):
        s = random_scheme(rng, n_max=6, m_max=8, m_min=2)
        for i in range(s.m):
            for j in range(s.m):
                if i == j:
                    continue
                assert orthogonal(s, i, j) == orthogonal(s, j, i)
                if orthogonal(s, i, j):
                    for code in range(1 << s.n):
                        x = tuple(1 if (code >> b) & 1 else -1 for b in range(s.n))
                        row_sat_i = any(x[c] == s.cells[i, c] for c in s.row_support(i))
                        row_sat_j = any(x[c] == s.cells[j, c] for c in s.row_support(j))
                        assert row_sat_i or row_sat_j


# --- status ------------------------------------------------------------------

def test_status_patterns(f4):
    assert status(Scheme.from_rows([[1, 0], [-1, 0]])) is Status.CONTRADICTION
    assert status(Scheme.from_rows([[1, 0, 0]])) is Status.CONFIRMATION
    assert status(f4) is Status.OPEN
    assert status(Scheme.from_rows([[0, 0], [1, 0]])) is Status.EMPTY_CLAUSE
    assert status(Scheme.empty(3)) is Status.OPEN
    # same-polarity units are not a contradiction
    assert status(Scheme.from_rows([[1, 0], [1, 0]])) is Status.OPEN
    # complementary units in different columns are not a contradiction
    assert status(Scheme.from_rows([[1, 0], [0, -1]])) is Status.OPEN


def _status_reference(s):
    """The row loop status() used to run, kept as the reference."""
    sizes = np.count_nonzero(s.cells, axis=1) if s.m else np.zeros(0, dtype=int)
    if s.m == 1 and sizes[0] == 1:
        return Status.CONFIRMATION
    unit_fills = set()
    for i in range(s.m):
        if sizes[i] == 1:
            j = int(np.nonzero(s.cells[i])[0][0])
            unit_fills.add((j, int(s.cells[i, j])))
    for (j, sign) in unit_fills:
        if (j, -sign) in unit_fills:
            return Status.CONTRADICTION
    if s.m and (sizes == 0).any():
        return Status.EMPTY_CLAUSE
    return Status.OPEN


def test_status_matches_row_loop_reference():
    rng = random.Random(401)
    seen = set()
    for _ in range(600):
        s = random_clause_set(rng)
        got = status(s)
        assert got is _status_reference(s)
        seen.add(got)
    assert seen == set(Status)


def test_status_precedence():
    # contradiction outranks an empty clause; a single unit row is a confirmation
    assert status(Scheme.from_rows([[0, 0], [1, 0], [-1, 0]])) is Status.CONTRADICTION
    assert status(Scheme.from_rows([[0, -1]])) is Status.CONFIRMATION
    assert status(Scheme.from_rows([[0, 0]])) is Status.EMPTY_CLAUSE
    assert status(Scheme.from_rows([[1, 1], [-1, 0], [0, 0]])) is Status.EMPTY_CLAUSE


def test_evaluate_agrees_with_unsat_count():
    rng = random.Random(419)
    for _ in range(100):
        s = random_clause_set(rng, n_max=6)
        for code in range(1 << s.n):
            x = tuple(1 if (code >> j) & 1 else -1 for j in range(s.n))
            assert evaluate(s, x) is (scheme_core.unsat_count_direct(s, x) == 0)
