"""Toolkit for CNF formulas in matrix-scheme form.

Rows are clauses, columns variables, cells one of {positive, negative,
absent}.  On top of that representation the package provides
equivalence-preserving transformations, exact model counting by the
non-orthogonal cluster expansion, the unsatisfied-clause polynomial with a
battery of polynomial-time satisfiability checks, complete 2-SAT/Horn
solvers, an exact minimizer of the violated-clause count, and a brute-force
oracle everything is validated against.
"""

from .counting import CountResult, count_solutions, count_via_primes, solution_lower_bound
from .dyadic import Dyadic
from .fixtures import fixture
from .minimizer import MinimizeOutcome, SFactor, minimize_u, s_factor
from .oracle import OracleReport, oracle_scan
from .pseudo_boolean import (
    ExtensionStrategy,
    PBForm,
    eval_u,
    extend,
    pb_coefficients,
    serialize_polynomial,
)
from .pt_solvers import SolveResult, is_2sat, is_horn, solve_2sat, solve_horn
from .scheme_core import (
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
    unsat_count_direct,
)
from .transforms import (
    SplitResult,
    accept_facts,
    assign,
    blow_up,
    drop_subsumed,
    flip,
    full_blow_up,
    metavariable_eliminate,
    reduce_read3,
    remove_pure_columns,
    resolve,
    shrink,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "CountResult",
    "Dyadic",
    "ExtensionStrategy",
    "Fill",
    "MinimizeOutcome",
    "OracleReport",
    "PBForm",
    "SFactor",
    "Scheme",
    "SchemeParseError",
    "SolveResult",
    "SplitResult",
    "Status",
    "accept_facts",
    "assign",
    "blow_up",
    "count_solutions",
    "count_via_primes",
    "drop_subsumed",
    "emit_dimacs",
    "emit_scheme_text",
    "eval_u",
    "evaluate",
    "extend",
    "fixture",
    "flip",
    "full_blow_up",
    "is_2sat",
    "is_horn",
    "metavariable_eliminate",
    "minimize_u",
    "oracle_scan",
    "orthogonal",
    "parse_dimacs",
    "parse_scheme_text",
    "pb_coefficients",
    "reduce_read3",
    "remove_pure_columns",
    "resolve",
    "s_factor",
    "serialize_polynomial",
    "shrink",
    "solution_lower_bound",
    "solve_2sat",
    "solve_horn",
    "split",
    "status",
    "unsat_count_direct",
]
