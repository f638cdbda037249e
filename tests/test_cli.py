import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import satscheme
from satscheme.cli import build_parser, main
from satscheme.fixtures import fixture
from satscheme.scheme_core import emit_dimacs, parse_dimacs, parse_scheme_text, unsat_count_direct
from satscheme.transforms import metavariable_eliminate


def run_cli(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_fixture_json(capsys):
    code = main(["fixture", "F5"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["n"] == 4 and payload["m"] == 5
    assert parse_scheme_text(payload["scheme_text"]).m == 5
    assert payload["dimacs"].startswith("p cnf 4 5")


def test_fixture_text(capsys):
    code = main(["fixture", "F4", "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "0 - + -"


def test_check_exit_codes(capsys, monkeypatch, tmp_path):
    f = tmp_path / "f5.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0\n0 0 0 +")
    code = main(["check", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 20
    assert payload["overall"] == "unsat_certified"

    f4 = tmp_path / "f4.txt"
    f4.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0")
    code = main(["check", "-f", str(f4)])
    assert code == 10


def test_count_json(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("+ + + 0 0\n0 - - - 0\n0 0 + + -\n+ 0 0 + +\n- + 0 0 +")
    code = main(["count", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["total"] == 14


def test_solve_oracle_witness(capsys, tmp_path):
    f = tmp_path / "f4.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0")
    code = main(["solve", "--method", "oracle", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 10
    assert payload["witness"] == [False, True, False, False]


def test_solve_split_chain(capsys, tmp_path):
    f = tmp_path / "f5.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0\n0 0 0 +")
    code = main(["solve", "--method", "split", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 20
    assert payload["chain_rows"] == [5, 4, 3, 2]


def test_solve_split_rows_match_the_chain_without_grids(capsys, monkeypatch):
    rng = random.Random(37)
    cases = []
    for _ in range(60):
        n = rng.randint(3, 10)
        text = _random_3sat_dimacs(rng, n, rng.randint(1, 40))
        order = rng.sample(range(1, n + 1), n) if rng.random() < 0.5 else None
        s = parse_dimacs(text)
        cases.append((text, order, [c.m for c in metavariable_eliminate(s, order and [v - 1 for v in order])[1]]))

    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(satscheme.transforms, "_scheme_of", no_grid)
    for text, order, rows in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv = ["solve", "--method", "split"] + (["--order", ",".join(map(str, order))] if order else [])
        main(argv)
        assert json.loads(capsys.readouterr().out)["chain_rows"] == rows


SPLIT_BUDGET_DIMACS = "p cnf 3 900\n" + "1 2 0\n" * 450 + "-1 3 0\n" * 450


def test_solve_split_budget_refuses_before_resolving(capsys, monkeypatch):
    # eliminating x1 first would build 450 * 450 resolvents
    def no_resolvents(*args):
        raise AssertionError("resolvents built past the budget")

    monkeypatch.setattr(satscheme.transforms, "_unsubsumed", no_resolvents)
    monkeypatch.setattr("sys.stdin", io.StringIO(SPLIT_BUDGET_DIMACS))
    code = main(["solve", "--method", "split", "--order", "1,2,3"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and str(satscheme.transforms.RESOLUTION_ROW_LIMIT) in err


def test_solve_split_default_order_within_budget(capsys, monkeypatch):
    # least growth takes the pure x2 and x3 first
    monkeypatch.setattr("sys.stdin", io.StringIO(SPLIT_BUDGET_DIMACS))
    code = main(["solve", "--method", "split"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 10 and payload["satisfiable"] is True


def test_pbform_text(capsys, tmp_path):
    f = tmp_path / "f5.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0\n0 0 0 +")
    code = main(["pbform", "--text", "-f", str(f)])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "8u = 12 + x1 - 2x2 + 2x3 - 3x4 - x1x2 + x1x3 + x2x4 - x3x4 - x1x2x3 - x2x3x4"


def test_transform_pipeline(capsys, tmp_path):
    f = tmp_path / "f4.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0")
    code = main(
        ["transform", "--ops", "flip:1,3,4", "accept_facts", "--trail", "-f", str(f)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [e["op"] for e in payload["trail"]] == ["flip", "accept_facts"]


def test_minimize_json(capsys, tmp_path):
    f = tmp_path / "f5.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0\n0 0 0 +")
    code = main(["minimize", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 20
    assert payload["u_min"] == "1"
    assert payload["trace"][0] == {"var": 2, "case": "branch", "value": -1}
    assert (payload["branch_count"], payload["shortcut_hits"]) == (3, 1)
    assert "shortcut_events" not in payload
    # the minimizer, 1-based booleans, violates exactly u_min clauses
    minimizer = [1 if v else -1 for v in payload["minimizer"]]
    assert unsat_count_direct(parse_scheme_text(f.read_text()), minimizer) == 1


def test_read3_and_extend(capsys, tmp_path):
    f = tmp_path / "wide.txt"
    f.write_text("+ + 0\n+ 0 +\n- + 0\n+ 0 -")
    code = main(["read3", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["n"] == 6 and payload["m"] == 8

    g = tmp_path / "g.txt"
    g.write_text("+ + + 0 0\n0 - - - 0\n0 0 + + -\n+ 0 0 + +\n- + 0 0 +")
    code = main(["extend", "--strategy", "first", "--text", "-f", str(g)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_extend_exhaustive_over_budget_is_an_error(capsys, tmp_path):
    supports = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    clauses = [supports[k % 4] for k in range(14)]
    f = tmp_path / "t14.cnf"
    f.write_text("p cnf 4 14\n" + "".join(f"{a} {b} {c} 0\n" for a, b, c in clauses))
    code = main(["extend", "--strategy", "exhaustive", "-f", str(f)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: exhaustive extension search: 4**14 * 2**4 exceeds the budget 2**30\n"


def test_oracle_json(capsys, tmp_path):
    f = tmp_path / "f5.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0\n0 0 0 +")
    code = main(["oracle", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 20
    assert payload["count"] == 0 and payload["u_min"] == 1
    assert payload["u_histogram"]["1"] > 0


def test_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("p cnf 2 1\n1 -1 0")
    code = main(["parse", "-f", str(f)])
    assert code == 1
    assert "tautology" in capsys.readouterr().err


@pytest.mark.parametrize(
    "op, message",
    [
        ("resolve:9", "variable 9 out of range (n=4)"),
        ("resolve:0", "variable 0 out of range (n=4)"),
        ("split:5", "variable 5 out of range (n=4)"),
        ("assign:9=true", "variable 9 out of range (n=4)"),
        ("assign:-1=false", "variable -1 out of range (n=4)"),
        ("flip:1,5", "variable 5 out of range (n=4)"),
        ("blow_up:3,1", "row 3 out of range (m=2)"),
        ("blow_up:1,9", "variable 9 out of range (n=4)"),
        ("resolve:x", "bad variable 'x' in 'resolve:x'"),
        ("blow_up:1", "bad variable '' in 'blow_up:1'"),
        ("blow_up:1,1", "cell (1, 1) is not absent; cannot blow up"),
        ("assign:2=maybe", "bad value 'maybe' in 'assign:2=maybe'"),
        ("assign:2", "bad value '' in 'assign:2'"),
    ],
)
def test_transform_index_out_of_range(capsys, tmp_path, op, message):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 4 2\n1 -2 0\n3 4 0\n")
    code = main(["transform", "--ops", op, "-f", str(f)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_drop_tautologies_flag(capsys, tmp_path):
    f = tmp_path / "taut.txt"
    f.write_text("p cnf 2 2\n1 -1 0\n2 0")
    code = main(["parse", "--drop-tautologies", "-f", str(f)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["m"] == 1


def test_emit_dimacs_round_trip(capsys, tmp_path):
    f = tmp_path / "f4.txt"
    f.write_text("0 - + -\n+ - - 0\n- 0 - 0\n0 + 0 0")
    code = main(["emit", "--format", "dimacs", "-f", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "p cnf 4 4"
    assert out.splitlines()[1] == "-2 3 -4 0"


def test_subprocess_pipe_fixture_to_check():
    fixture_out = subprocess.run(
        [sys.executable, "-m", "satscheme.cli", "fixture", "F5"],
        capture_output=True,
        text=True,
    )
    assert fixture_out.returncode == 0
    check = subprocess.run(
        [sys.executable, "-m", "satscheme.cli", "check"],
        input=fixture_out.stdout,
        capture_output=True,
        text=True,
    )
    assert check.returncode == 20
    report = json.loads(check.stdout)
    certifying = [
        name
        for name, entry in report["checks"].items()
        if entry["verdict"] == "unsat_certified"
    ]
    assert certifying  # the report names the certifying checks


def test_stdin_scheme_text(capsys, monkeypatch):
    code, out = run_cli(
        capsys, ["parse"], stdin_text="+ -\n- +", monkeypatch=monkeypatch
    )
    assert code == 0
    assert json.loads(out)["m"] == 2


@pytest.mark.parametrize(
    "dimacs, first, total",
    [
        ("p cnf 5 0\n", ["parse"], 32),
        ("p cnf 3 2\n1 0\n1 2 0\n", ["transform", "--ops", "assign:1=true"], 4),
    ],
    ids=["parse-no-clauses", "transform-to-no-clauses"],
)
def test_json_pipe_keeps_the_column_count_of_no_clauses(capsys, monkeypatch, dimacs, first, total):
    # grid text with no rows is "", so the count must come from the payload's n
    monkeypatch.setattr("sys.stdin", io.StringIO(dimacs))
    assert main(first) == 0
    payload = capsys.readouterr().out
    assert json.loads(payload)["scheme_text"] == ""
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["count"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == total


# --- byte-exact output on the fixtures -----------------------------------------

_FIXTURE_OUTPUTS = Path(__file__).with_name("cli_fixture_outputs.txt")


def _fixture_output_cases():
    """One case per `### FIXTURE: COMMAND` section of the outputs file.

    A section holds `exit CODE`, then the `error: …` line when there is one,
    then stdout exactly.  The command reads the fixture as DIMACS on stdin.
    """
    cases = []
    for section in re.split(r"^### ", _FIXTURE_OUTPUTS.read_text(encoding="utf-8"), flags=re.M)[1:]:
        header, code_line, body = section.split("\n", 2)
        name, command = header.split(": ", 1)
        err = ""
        if body.startswith("error: "):
            err, _, body = body.partition("\n")
            err += "\n"
        cases.append(pytest.param(name, command.split(), int(code_line.removeprefix("exit ")), err, body, id=header))
    return cases


@pytest.mark.parametrize("name, argv, code, err, out", _fixture_output_cases())
def test_cli_output_on_fixtures_is_byte_exact(capsys, monkeypatch, name, argv, code, err, out):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_dimacs(fixture(name))))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, out)


# --- one parser for every request ---------------------------------------------

_F5_DIMACS = emit_dimacs(fixture("F5"))

# Pairs where the first call sets an option the second leaves at its default,
# so a value that stuck to the shared parser would change the second answer.
_REUSE_SEQUENCE = [
    ["parse", "--text"],
    ["parse"],
    ["transform", "--ops", "flip:1", "--trail"],
    ["transform", "--ops", "shrink"],
    ["solve", "--method", "oracle", "--limit", "2"],
    ["solve", "--method", "oracle"],
    ["minimize", "--order", "2,1"],
    ["minimize"],
]


def test_reused_parser_answers_like_fresh_processes(capsys, monkeypatch):
    env = {**os.environ, "PYTHONPATH": str(Path(satscheme.__file__).parents[1])}
    for argv in _REUSE_SEQUENCE:
        monkeypatch.setattr("sys.stdin", io.StringIO(_F5_DIMACS))
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "satscheme.cli", *argv],
            input=_F5_DIMACS,
            capture_output=True,
            text=True,
            env=env,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is build_parser()


def test_usage_error_on_the_reused_parser_exits_2(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].endswith("satscheme: error: unrecognized arguments: --bogus\n")


def test_no_shortcut_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--no-shortcut"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("satscheme: error: unrecognized arguments: --no-shortcut\n")


# --- input and budget errors: exit 1, `error: …`, nothing on stdout -------------

def _random_3sat_dimacs(rng: random.Random, n: int, m: int) -> str:
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        lits = [rng.choice((1, -1)) * (c + 1) for c in rng.sample(range(n), 3)]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


_TWO_VARS = "p cnf 2 1\n1 2 0\n"


@pytest.mark.parametrize(
    "argv, stdin_text, message",
    [
        (["oracle", "--limit", "2"], _F5_DIMACS, "oracle refuses n=4 > limit 2; raise the limit explicitly"),
        (
            ["solve", "--method", "oracle", "--limit", "2"],
            _F5_DIMACS,
            "oracle refuses n=4 > limit 2; raise the limit explicitly",
        ),
        (["count"], "p cnf 64 1\n1 64 0\n", "count_solutions refuses n=64 > limit 63"),
        (  # this formula needs more than one branch
            ["minimize", "--branch-limit", "1"],
            _random_3sat_dimacs(random.Random(3), 8, 34),
            "exceeded branch limit 1; no answer returned",
        ),
        (
            ["solve", "--method", "minimize", "--branch-limit", "1"],
            _random_3sat_dimacs(random.Random(3), 8, 34),
            "exceeded branch limit 1; no answer returned",
        ),
        (["parse"], '{"scheme_text": 5}', "JSON 'scheme_text' must be a string, not int"),
        (["parse"], '{"scheme_text": ["+ -"]}', "JSON 'scheme_text' must be a string, not list"),
        (["count"], '{"n": -1, "scheme_text": ""}', "JSON 'n' must be a non-negative int, not -1"),
        (["count"], '{"n": true, "scheme_text": ""}', "JSON 'n' must be a non-negative int, not true"),
        (["count"], '{"n": "5", "scheme_text": ""}', 'JSON \'n\' must be a non-negative int, not "5"'),
        (["parse"], '{"n": 3, "scheme_text": "+ -"}', "JSON 'n' is 3 but 'scheme_text' has 2 columns"),
        (["minimize", "--order", "1"], _TWO_VARS, "order '1' must name each variable 1..2 exactly once"),
        (["minimize", "--order", "2,2"], _TWO_VARS, "order '2,2' must name each variable 1..2 exactly once"),
        (["minimize", "--order", "1,,2"], _TWO_VARS, "bad variable '' in '1,,2'"),
        (["minimize", "--order", "2,3"], _TWO_VARS, "variable 3 out of range (n=2)"),
        (
            ["solve", "--method", "split", "--order", ""],
            _TWO_VARS,
            "order '' must name each variable 1..2 exactly once",
        ),
        (
            ["solve", "--method", "minimize", "--order", "1,2,1"],
            _TWO_VARS,
            "order '1,2,1' must name each variable 1..2 exactly once",
        ),
        (  # the chain (x_i or not x_{i+1}) fixes one variable per level of the search
            ["minimize"],
            "p cnf 1200 1199\n" + "".join(f"{i} -{i + 1} 0\n" for i in range(1, 1200)),
            "search depth on 1200 variables exceeds Python's recursion limit; no answer returned",
        ),
    ],
    ids=[
        "oracle", "solve-oracle", "count", "minimize", "solve-minimize", "scheme-text-int", "scheme-text-list",
        "json-n-negative", "json-n-bool", "json-n-string", "json-n-width", "order-short", "order-repeat",
        "order-empty-token", "order-out-of-range", "solve-split-order-empty", "solve-minimize-order-long",
        "minimize-deep-chain",
    ],
)
def test_budget_and_input_errors_exit_1(capsys, monkeypatch, argv, stdin_text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == f"error: {message}\n"


def test_grid_too_large_to_allocate_is_an_error(capsys, monkeypatch):
    # 10**15 int8 cells is 1 PB, beyond the 128 TB x86-64 address space, so
    # the allocation fails at once whatever the overcommit setting
    monkeypatch.setattr("sys.stdin", io.StringIO("p cnf 1000000000000000 1\n1 0\n"))
    code = main(["parse"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_minimize_two_units_over_40_columns_answers_at_once():
    import time

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "satscheme.cli", "minimize"],
        input="p cnf 40 2\n1 0\n-1 0\n",
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 20, proc.stderr
    assert json.loads(proc.stdout)["u_min"] == "1"
