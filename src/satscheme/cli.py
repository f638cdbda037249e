"""Command-line front-end.

Reads a formula from a file or stdin (DIMACS, grid text, or the JSON this
tool itself emits; detected automatically), runs one analysis, and prints
JSON unless --text asks for the grid/plain rendering.  All indices in
arguments and output are 1-based.

Exit codes: 10 when satisfiability was certified, 20 when unsatisfiability
was certified, 0 for plain success or an inconclusive check battery, 1 for
input and budget errors, 2 for command-line usage errors (from argparse).
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import sys

from . import checks, counting, minimizer, oracle, pseudo_boolean, pt_solvers, transforms
from .dyadic import Dyadic
from .fixtures import FIXTURE_NAMES, fixture
from .scheme_core import (
    Scheme,
    SchemeParseError,
    emit_dimacs,
    emit_scheme_text,
    parse_dimacs,
    parse_scheme_text,
    status,
)

EXIT_OK = 0
EXIT_SAT = 10
EXIT_UNSAT = 20
EXIT_ERROR = 1


def _jsonify(value):
    if isinstance(value, Dyadic):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(_jsonify(k)): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return {k: _jsonify(getattr(value, k)) for k in value.__dataclass_fields__}
    if isinstance(value, float) and value == float("-inf"):
        return "-inf"
    return value


def _print_json(payload) -> None:
    print(json.dumps(_jsonify(payload), indent=2))


def _witness_json(witness):
    if witness is None:
        return None
    return [v == 1 for v in witness]


def read_scheme(args) -> Scheme:
    """Load the input formula, sniffing JSON / DIMACS / grid text."""
    if getattr(args, "file", None):
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        if "scheme_text" not in payload:
            raise SchemeParseError("JSON input lacks a 'scheme_text' field")
        grid = payload["scheme_text"]
        if not isinstance(grid, str):
            raise SchemeParseError(f"JSON 'scheme_text' must be a string, not {type(grid).__name__}")
        return parse_scheme_text(grid)
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            return parse_dimacs(text, drop_tautologies=args.drop_tautologies)
        break
    return parse_scheme_text(text)


def _scheme_payload(s: Scheme, extra: dict | None = None) -> dict:
    payload = {
        "n": s.n,
        "m": s.m,
        "status": status(s).value,
        "scheme_text": emit_scheme_text(s),
    }
    if extra:
        payload.update(extra)
    return payload


def _emit_scheme(args, s: Scheme, extra: dict | None = None) -> int:
    if args.text:
        print(emit_scheme_text(s))
    else:
        _print_json(_scheme_payload(s, extra))
    return EXIT_OK


def _index(token: str, size: int, what: str, spec: str) -> int:
    """1-based `what` index (a token of `spec`) -> 0-based, range-checked."""
    try:
        value = int(token)
    except ValueError:
        raise SchemeParseError(f"bad {what} {token.strip()!r} in {spec!r}") from None
    if not 1 <= value <= size:
        bound = "m" if what == "row" else "n"
        raise SchemeParseError(f"{what} {value} out of range ({bound}={size})")
    return value - 1


def _parse_order(text: str | None, n: int) -> list[int] | None:
    if text is None:
        return None
    return [_index(tok, n, "variable", text) for tok in text.split(",") if tok.strip()]


# --- transform pipeline ------------------------------------------------------

_TRUTH = {"true": True, "t": True, "1": True, "false": False, "f": False, "0": False}


def _apply_op(s: Scheme, spec: str) -> tuple[Scheme, dict]:
    name, _, argtext = spec.partition(":")
    name = name.strip().lower()
    entry: dict = {"op": name}
    if argtext:
        entry["args"] = argtext

    def var(token: str) -> int:
        return _index(token, s.n, "variable", spec)

    if name == "flip":
        return transforms.flip(s, [var(t) for t in argtext.split(",")]), entry
    if name == "blow_up":
        row_text, _, col_text = argtext.partition(",")
        row, col = _index(row_text, s.m, "row", spec), var(col_text)
        if s.cells[row, col] != 0:
            raise SchemeParseError(f"cell ({row + 1}, {col + 1}) is not absent; cannot blow up")
        return transforms.blow_up(s, row, col), entry
    if name == "shrink":
        return transforms.shrink(s), entry
    if name == "drop_subsumed":
        return transforms.drop_subsumed(s), entry
    if name == "remove_pure":
        out, removed = transforms.remove_pure_columns(s)
        entry["removed"] = [{"var": c + 1, "value": v} for c, v in removed]
        return out, entry
    if name == "accept_facts":
        out, trail = transforms.accept_facts(s)
        entry["facts"] = [{"var": c + 1, "value": v} for c, v in trail]
        return out, entry
    if name == "assign":
        var_text, _, val_text = argtext.partition("=")
        value = _TRUTH.get(val_text.strip().lower())
        if value is None:
            raise SchemeParseError(f"bad value {val_text.strip()!r} in {spec!r}")
        return transforms.assign(s, var(var_text), value), entry
    if name == "resolve":
        out, conclusive = transforms.resolve(s, var(argtext))
        entry["conclusive"] = conclusive
        return out, entry
    if name == "split":
        return transforms.split(s, var(argtext)).recombined, entry
    if name == "read3":
        return transforms.reduce_read3(s), entry
    raise SchemeParseError(f"unknown transform op {spec!r}")


# --- subcommand handlers -----------------------------------------------------

def _cmd_fixture(args) -> int:
    s = fixture(args.name)
    if args.text:
        print(emit_scheme_text(s))
        return EXIT_OK
    _print_json(_scheme_payload(s, {"name": args.name, "dimacs": emit_dimacs(s)}))
    return EXIT_OK


def _cmd_parse(args) -> int:
    s = read_scheme(args)
    return _emit_scheme(args, s, {"max_clause_size": s.max_clause_size()})


def _cmd_emit(args) -> int:
    s = read_scheme(args)
    if args.format == "dimacs":
        sys.stdout.write(emit_dimacs(s))
    else:
        print(emit_scheme_text(s))
    return EXIT_OK


def _cmd_transform(args) -> int:
    s = read_scheme(args)
    trail = []
    for spec in args.ops:
        s, entry = _apply_op(s, spec)
        trail.append(entry)
    extra = {"trail": trail} if args.trail else None
    return _emit_scheme(args, s, extra)


def _cmd_count(args) -> int:
    s = read_scheme(args)
    result = counting.count_solutions(s)
    _print_json(
        {
            "n": s.n,
            "m": s.m,
            "total": result.total,
            "partials": {str(k): v for k, v in sorted(result.partials.items())},
            "clusters": result.cluster_count,
        }
    )
    return EXIT_OK


def _cmd_pbform(args) -> int:
    s = read_scheme(args)
    weights = args.weights
    if weights == "damped":
        weights = pseudo_boolean.polarity_damped_weights(s)
    p = pseudo_boolean.pb_coefficients(s, weights)
    if args.text:
        print(pseudo_boolean.serialize_polynomial(p))
    else:
        _print_json(pseudo_boolean.to_json_dict(p))
    return EXIT_OK


def _cmd_check(args) -> int:
    s = read_scheme(args)
    report = checks.run_all(s)
    _print_json(
        {
            "overall": report.overall.value,
            "checks": {
                name: {"verdict": v.kind.value, "evidence": _jsonify(v.evidence)}
                for name, v in report.checks.items()
            },
        }
    )
    if report.overall is checks.VerdictKind.SAT_CERTIFIED:
        return EXIT_SAT
    if report.overall is checks.VerdictKind.UNSAT_CERTIFIED:
        return EXIT_UNSAT
    return EXIT_OK


def _cmd_solve(args) -> int:
    s = read_scheme(args)
    method = args.method
    if method == "2sat":
        res = pt_solvers.solve_2sat(s)
        sat, witness = res.satisfiable, res.witness
        payload = {"method": method, "satisfiable": sat, "witness": _witness_json(witness), "steps": res.steps}
    elif method == "horn":
        res = pt_solvers.solve_horn(s)
        sat, witness = res.satisfiable, res.witness
        payload = {"method": method, "satisfiable": sat, "witness": _witness_json(witness), "steps": res.steps}
    elif method == "oracle":
        report = oracle.oracle_scan(s, limit=args.limit)
        sat = report.count > 0
        witness = report.witness if sat else None
        payload = {
            "method": method,
            "satisfiable": sat,
            "witness": _witness_json(witness),
            "count": report.count,
        }
    elif method == "split":
        # the clause counts only, so no grid is built per step
        sat, states, _ = transforms._eliminate_all(s, _parse_order(args.order, s.n))
        payload = {
            "method": method,
            "satisfiable": sat,
            "chain_rows": [len(clauses) for clauses in states],
        }
    elif method == "minimize":
        outcome = minimizer.minimize_u(s, order=_parse_order(args.order, s.n), branch_limit=args.branch_limit)
        sat = outcome.satisfiable
        payload = {
            "method": method,
            "satisfiable": sat,
            "witness": _witness_json(outcome.minimizer) if sat else None,
            "u_min": str(outcome.u_min),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise SchemeParseError(f"unknown method {method!r}")
    _print_json(payload)
    return EXIT_SAT if sat else EXIT_UNSAT


def _cmd_minimize(args) -> int:
    s = read_scheme(args)
    outcome = minimizer.minimize_u(
        s,
        order=_parse_order(args.order, s.n),
        shortcut=not args.no_shortcut,
        branch_limit=args.branch_limit,
    )
    _print_json(
        {
            "u_min": str(outcome.u_min),
            "satisfiable": outcome.satisfiable,
            "minimizer": _witness_json(outcome.minimizer),
            "branch_count": outcome.branch_count,
            "shortcut_hits": outcome.shortcut_hits,
            "trace": [{**e, "var": e["var"] + 1} for e in outcome.trace],
        }
    )
    return EXIT_SAT if outcome.satisfiable else EXIT_UNSAT


def _cmd_extend(args) -> int:
    s = read_scheme(args)
    return _emit_scheme(args, pseudo_boolean.extend(s, args.strategy))


def _cmd_read3(args) -> int:
    s = read_scheme(args)
    return _emit_scheme(args, transforms.reduce_read3(s))


def _cmd_oracle(args) -> int:
    s = read_scheme(args)
    report = oracle.oracle_scan(s, limit=args.limit)
    _print_json(
        {
            "count": report.count,
            "u_min": report.u_min,
            "u_histogram": {str(k): v for k, v in sorted(report.u_histogram.items())},
            "solutions": [ _witness_json(sol) for sol in report.solutions ]
            if report.solutions is not None
            else None,
        }
    )
    return EXIT_SAT if report.count > 0 else EXIT_UNSAT


# --- argument parsing --------------------------------------------------------

def _add_input_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("-f", "--file", help="input file (default: stdin)")
    p.add_argument(
        "--drop-tautologies",
        action="store_true",
        help="drop tautological DIMACS clauses instead of rejecting them",
    )


def _add_text_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument("--text", action="store_true", help="grid/plain output instead of JSON")


def _add_branch_limit_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--branch-limit",
        type=int,
        default=minimizer.BRANCH_LIMIT,
        help=f"minimizer branch budget (default {minimizer.BRANCH_LIMIT})",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every `main` call
    (so callers must not modify it)."""
    parser = argparse.ArgumentParser(
        prog="satscheme",
        description="Analyze CNF formulas in matrix-scheme form (1-based indices everywhere).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixture", help="emit a built-in formula")
    p.add_argument("name", choices=FIXTURE_NAMES)
    _add_text_opt(p)
    p.set_defaults(func=_cmd_fixture)

    p = sub.add_parser("parse", help="parse input and describe it")
    _add_input_opts(p)
    _add_text_opt(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("emit", help="re-serialize input")
    _add_input_opts(p)
    p.add_argument("--format", choices=("scheme", "dimacs"), default="scheme")
    p.set_defaults(func=_cmd_emit)

    p = sub.add_parser("transform", help="apply a transformation pipeline")
    _add_input_opts(p)
    _add_text_opt(p)
    p.add_argument(
        "--ops",
        nargs="+",
        required=True,
        metavar="OP",
        help="ops like flip:1,3,4 assign:2=true resolve:3 split:1 shrink "
        "drop_subsumed remove_pure accept_facts blow_up:ROW,COL read3",
    )
    p.add_argument("--trail", action="store_true", help="include the op trail in JSON output")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("count", help="exact model count (cluster expansion)")
    _add_input_opts(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("pbform", help="unsatisfied-clause polynomial coefficients")
    _add_input_opts(p)
    _add_text_opt(p)
    p.add_argument("--weights", choices=("canonical", "unit", "damped"), default="canonical")
    p.set_defaults(func=_cmd_pbform)

    p = sub.add_parser("check", help="run the satisfiability check battery")
    _add_input_opts(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="decide satisfiability")
    _add_input_opts(p)
    p.add_argument("--method", choices=("2sat", "horn", "oracle", "split", "minimize"), required=True)
    p.add_argument("--order", help="comma-separated 1-based variable order (split/minimize)")
    p.add_argument("--limit", type=int, default=None, help="oracle variable cap override")
    _add_branch_limit_opt(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("minimize", help="exact minimum of the violated-clause count")
    _add_input_opts(p)
    p.add_argument("--order", help="comma-separated 1-based elimination order")
    p.add_argument("--no-shortcut", action="store_true", help="disable the unit-pair lower bound")
    _add_branch_limit_opt(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("extend", help="append adverse-parity partner clauses")
    _add_input_opts(p)
    _add_text_opt(p)
    p.add_argument(
        "--strategy",
        choices=("first", "second", "third", "all", "exhaustive"),
        default="second",
    )
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("read3", help="limit every variable to three occurrences")
    _add_input_opts(p)
    _add_text_opt(p)
    p.set_defaults(func=_cmd_read3)

    p = sub.add_parser("oracle", help="brute-force scan of all assignments")
    _add_input_opts(p)
    p.add_argument("--limit", type=int, default=None, help="variable cap override")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, MemoryError, minimizer.BranchLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
