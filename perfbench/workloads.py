"""Seeded workload generators and the correctness gate of the repo benchmark.

Every workload is a fixed list of operations built from the seed alone.  The
program under test receives only what a user would hand it: DIMACS text for
CLI requests, `Scheme` values for API calls.  The expected answer of every
operation comes from an independent path in the package (the brute-force
oracle, or prime counting for the oracle itself) and is checked outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field

from satscheme import checks, cli, counting, minimizer, oracle
from satscheme.counting import count_via_primes
from satscheme.dyadic import Dyadic
from satscheme.pseudo_boolean import unsat_count_direct
from satscheme.scheme_core import Scheme, parse_scheme_text

WORKLOADS = ("cli_mix", "analyse_medium", "scan_large")

# Kinds whose per-kind median latency the traced run reports.
KINDS = (
    "check", "count", "minimize", "solve-2sat", "solve-horn", "solve-split",
    "pbform", "oracle", "transform", "parse", "eigen",
)

@dataclass(frozen=True)
class Op:
    """One request or call: what runs, on which formula, and its family."""

    kind: str
    family: str
    n: int
    rows: tuple[tuple[int, ...], ...]
    argv: tuple[str, ...] = ()
    scheme: Scheme = field(init=False, repr=False, compare=False)
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme.from_rows(self.rows, n=self.n))
        object.__setattr__(self, "text", dimacs_text(self.n, self.rows))


def dimacs_text(n: int, rows) -> str:
    """DIMACS written here rather than by the package, so parsing is tested too."""
    lines = [f"p cnf {n} {len(rows)}"]
    for row in rows:
        lines.append(" ".join([str((j + 1) * f) for j, f in enumerate(row) if f] + ["0"]))
    return "\n".join(lines) + "\n"


def grid_text(rows) -> str:
    return "\n".join(" ".join({1: "+", -1: "-", 0: "0"}[f] for f in row) for row in rows)


# --- formula families --------------------------------------------------------

def _clause(rng: random.Random, n: int, k: int, positives: int | None = None):
    cols = rng.sample(range(n), k)
    row = [0] * n
    if positives is None:
        for c in cols:
            row[c] = rng.choice((1, -1))
    else:
        for i, c in enumerate(cols):
            row[c] = 1 if i < positives else -1
    return tuple(row)


def family_rows(rng: random.Random, family: str, n: int, ratio: float):
    m = max(1, round(ratio * n))
    if family == "3sat":
        return tuple(_clause(rng, n, 3) for _ in range(m))
    if family == "2sat":
        return tuple(_clause(rng, n, 2) for _ in range(m))
    if family == "horn":
        # widths 1-3, at most one positive literal per clause
        return tuple(
            _clause(rng, n, rng.randint(1, 3), positives=int(rng.random() < 0.5))
            for _ in range(m)
        )
    if family == "mixed":
        return tuple(_clause(rng, n, rng.choice((2, 3, 4))) for _ in range(m))
    raise ValueError(f"unknown family {family!r}")


# --- workload definitions ----------------------------------------------------
#
# Each workload is a cycle of slots (kind, argv, family, n range, ratios).
# Each slot steps through every pairing of a ratio from its list and an n
# from its range, in a fixed order; the seed picks only the clauses.  So
# from seed to seed only the formulas change, never the mix of sizes.

# cli_mix: many small requests; per-request overhead (argparse, parsing,
# Scheme construction, Dyadic arithmetic, JSON rendering) dominates.
# `check`, `count` and `minimize` on 3-SAT stop at n=9: at n=10, ratio 4.3,
# single requests took up to 1.2 s, and the few such formulas a seed drew
# moved a run's throughput by up to 25 %.
_CLI_SLOTS = (
    ("check", ("check",), "3sat", (6, 9), (2.0, 3.0, 4.3)),
    ("count", ("count",), "3sat", (6, 9), (2.0, 3.0, 4.3)),
    ("minimize", ("minimize",), "3sat", (6, 9), (2.0, 3.0, 4.3)),
    ("solve-2sat", ("solve", "--method", "2sat"), "2sat", (6, 10), (1.0, 2.0)),
    ("solve-horn", ("solve", "--method", "horn"), "horn", (6, 10), (2.0, 3.0)),
    ("solve-split", ("solve", "--method", "split"), "3sat", (6, 10), (2.0, 3.0, 4.3)),
    ("pbform", ("pbform",), "3sat", (6, 10), (2.0, 3.0, 4.3)),
    ("oracle", ("oracle",), "mixed", (6, 10), (2.0, 3.0)),
    ("transform", ("transform", "--ops", "flip:1,2", "drop_subsumed", "shrink"), "mixed", (6, 10), (2.0, 3.0)),
    ("parse", ("parse",), "mixed", (6, 10), (2.0, 3.0)),
    ("check", ("check",), "horn", (6, 10), (2.0, 3.0)),
    ("count", ("count",), "2sat", (6, 10), (1.0, 2.0)),
)

# analyse_medium: API calls of roughly 0.02-0.3 s; the combinatorial Python
# layers (resolution chain, clique enumeration, minimizer recursion with its
# small shortcut scans) do the work.  The cost of a single random formula
# varies several-fold, so the sizes are kept small enough for a run to hold
# about 500 formulas, whose total then varies little from seed to seed.
# The three kinds have similar median costs (about 45-60 ms), so the
# median latency falls where all three are dense, not in the gap between
# a cheap and a costly kind, where a few formulas more or less move it.
# `check` formulas are mostly unsatisfiable, so the resolution chain
# usually certifies them.
_ANALYSE_SLOTS = (
    ("check", (), "3sat", (8, 8), (5.5,)),
    ("count", (), "3sat", (11, 11), (3.5,)),
    ("minimize", (), "3sat", (10, 10), (4.26,)),
)

# scan_large: one large 2**n kernel scan per call; no combinatorial layer
# runs.  The cost depends on n and m only.  The levels are arranged so the
# median falls in the middle of the n=19 oracle level and the 90th
# percentile inside the n=20 level, never on a boundary between levels.
_SCAN_SLOTS = (
    ("oracle", (), "3sat", (17, 17), (4.26,)),
    ("eigen", (), "3sat", (17, 17), (4.26,)),
    ("oracle", (), "3sat", (19, 19), (4.26,)),
    ("oracle", (), "3sat", (19, 19), (4.26,)),
    ("eigen", (), "3sat", (18, 18), (4.26,)),
    ("oracle", (), "3sat", (20, 20), (4.26,)),
)

SPECS = {
    # name: (slots, distinct ops in the list, minimum ops per pass, traced ops)
    "cli_mix": (_CLI_SLOTS, 4800, 100, 1200),
    "analyse_medium": (_ANALYSE_SLOTS, 1200, 100, 90),
    "scan_large": (_SCAN_SLOTS, 12, 100, 48),
}

# Tiny sizes for the self-test: same slots, n shrunk to 4-9.
_SMOKE_N = {"cli_mix": (4, 6), "analyse_medium": (6, 8), "scan_large": (8, 9)}


def generate(workload: str, seed: int, smoke: bool = False, warmup: bool = False) -> list[Op]:
    """The workload's operation list; a pure function of its arguments.

    With `warmup`, one cycle of slots drawn apart from the measured list.
    """
    slots, count, _, _ = SPECS[workload]
    if smoke:
        count = 2 * len(slots)
    if warmup:
        count = len(slots)
    rng = random.Random(f"{workload}:{seed}:{int(smoke)}" + (":warmup" if warmup else ""))
    ops = []
    for i in range(count):
        kind, argv, family, (n_lo, n_hi), ratios = slots[i % len(slots)]
        if smoke:
            n_lo, n_hi = _SMOKE_N[workload]
        turn = i // len(slots)
        ratio = ratios[turn % len(ratios)]
        n = n_lo + (turn // len(ratios)) % (n_hi - n_lo + 1)
        ops.append(Op(kind, family, n, family_rows(rng, family, n, ratio), tuple(argv)))
    return ops


def digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.kind, op.family, list(op.argv)]).encode())
        h.update(op.text.encode())
    return "sha256:" + h.hexdigest()


# --- running one operation ---------------------------------------------------

def run_cli(op: Op) -> tuple[int, str]:
    """Send one request through `satscheme.cli.main` with stdin/stdout redirected."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejects the request
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def run_api(op: Op):
    # Attributes are looked up at call time so that traced wrappers apply.
    if op.kind == "check":
        return checks.run_all(op.scheme)
    if op.kind == "count":
        return counting.count_solutions(op.scheme)
    if op.kind == "minimize":
        return minimizer.minimize_u(op.scheme)
    if op.kind == "oracle":
        return oracle.oracle_scan(op.scheme)
    if op.kind == "eigen":
        return checks.check_eigen_bounds(op.scheme, mode="exact")
    raise ValueError(f"unknown API kind {op.kind!r}")


def runner(workload: str):
    return run_cli if workload == "cli_mix" else run_api


# --- the correctness gate ----------------------------------------------------

@dataclass(frozen=True)
class Expected:
    """Ground truth of one formula; a field is None when no check needs it."""

    count: int
    u_min: int | None = None

    @property
    def satisfiable(self) -> bool:
        return self.count > 0


def expected_for(op: Op) -> Expected:
    """Oracle requests are checked against prime counting, everything else
    against the brute-force oracle."""
    if op.kind == "oracle":
        return Expected(count=count_via_primes(op.scheme))
    report = oracle.oracle_scan(op.scheme)
    return Expected(count=report.count, u_min=report.u_min)


def _verdict_error(kind, exp: Expected) -> str | None:
    if kind is checks.VerdictKind.SAT_CERTIFIED and not exp.satisfiable:
        return "certified SAT but the oracle finds no model"
    if kind is checks.VerdictKind.UNSAT_CERTIFIED and exp.satisfiable:
        return f"certified UNSAT but the oracle counts {exp.count} models"
    return None


def verify_api(op: Op, out, exp: Expected) -> str | None:
    """None when the call's output agrees with the ground truth, else why not."""
    s = op.scheme
    if op.kind == "check":
        return _verdict_error(out.overall, exp)
    if op.kind == "eigen":
        return _verdict_error(out.kind, exp)
    if op.kind == "count":
        return None if out.total == exp.count else f"count {out.total} != oracle {exp.count}"
    if op.kind == "minimize":
        if out.u_min != Dyadic(exp.u_min):
            return f"u_min {out.u_min} != oracle {exp.u_min}"
        got = unsat_count_direct(s, out.minimizer)
        return None if got == exp.u_min else f"minimizer violates {got} clauses, not {exp.u_min}"
    if op.kind == "oracle":
        if sum(out.u_histogram.values()) != 1 << s.n:
            return "oracle histogram does not sum to 2**n"
        if out.count != exp.count:
            return f"oracle count {out.count} != prime count {exp.count}"
        if unsat_count_direct(s, out.witness) != out.u_min:
            return "oracle witness does not attain u_min"
        return None
    return f"unknown API kind {op.kind!r}"


def _poly_value(payload: dict, x) -> int:
    """Scaled u(x) evaluated from the `pbform` JSON coefficients."""
    total = payload["C"]
    total -= sum(v * x[j] for j, v in enumerate(payload["lambda"]))
    for key, v in payload["mu"].items():
        i, j = (int(t) - 1 for t in key.split(","))
        total += v * x[i] * x[j]
    for key, v in payload["nu"].items():
        i, j, k = (int(t) - 1 for t in key.split(","))
        total -= v * x[i] * x[j] * x[k]
    return total


def verify_cli(op: Op, out: tuple[int, str], exp: Expected) -> str | None:
    code, text = out
    if code not in (0, 10, 20):
        return f"exit code {code}"
    if code == 10 and not exp.satisfiable:
        return "exit 10 (SAT) but the oracle finds no model"
    if code == 20 and exp.satisfiable:
        return "exit 20 (UNSAT) but the oracle finds a model"
    payload = json.loads(text)
    sub = op.kind
    if sub == "check":
        return None
    if sub == "count":
        ok = payload["total"] == exp.count
        return None if ok else f"count {payload['total']} != oracle {exp.count}"
    if sub == "oracle":
        ok = payload["count"] == exp.count
        return None if ok else f"oracle count {payload['count']} != prime count {exp.count}"
    if sub == "minimize":
        ok = payload["u_min"] == str(exp.u_min) and code == (10 if exp.u_min == 0 else 20)
        return None if ok else f"minimize reports {payload['u_min']}, oracle {exp.u_min}"
    if sub.startswith("solve-"):
        if payload["satisfiable"] != exp.satisfiable or code != (10 if exp.satisfiable else 20):
            return "solve disagrees with the oracle"
        witness = payload.get("witness")
        if witness is not None and unsat_count_direct(op.scheme, witness) != 0:
            return "solve witness is not a model"
        return None
    if sub == "pbform":
        n = op.n
        points = [(1,) * n, (-1,) * n, tuple(1 if j % 2 else -1 for j in range(n))]
        for x in points:
            want = unsat_count_direct(op.scheme, x) * payload["scale"]
            if _poly_value(payload, x) != want:
                return f"pbform polynomial is wrong at {x}"
        return None
    if sub == "transform":
        # flip, subsumption dropping and shrinking all keep the model count
        if payload["n"] != op.n:
            return "transform changed the variable count"
        if payload["m"] == 0:
            got = 1 << op.n
        else:
            got = oracle.oracle_scan(parse_scheme_text(payload["scheme_text"])).count
        return None if got == exp.count else f"transform changed the model count to {got}"
    if sub == "parse":
        ok = (payload["n"], payload["m"], payload["scheme_text"]) == (
            op.n, len(op.rows), grid_text(op.rows)
        )
        return None if ok else "parse output differs from the generated formula"
    return f"unknown subcommand {sub!r}"


def verifier(workload: str):
    return verify_cli if workload == "cli_mix" else verify_api
