"""Self-test of the repo benchmark.  Run with: python3 -m pytest perfbench"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _main(capsys, *argv):
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_end_to_end(workload, trace, tmp_path, capsys):
    code, lines = _main(
        capsys, "--workload", workload, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--smoke", "--out", str(tmp_path),
    )
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert report["env"]["kernel_backend"] in ("numba", "numpy")
    assert report["end_to_end"]["ops_failed_ratio"] == 0
    if trace:
        assert list(tmp_path.glob("*.spans.jsonl"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    first = workloads.digest(workloads.generate(workload, 7))
    assert first == workloads.digest(workloads.generate(workload, 7))
    assert first != workloads.digest(workloads.generate(workload, 8))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_formulas_not_the_mix(workload):
    def mix(seed):
        return [(op.kind, op.family, op.n, len(op.rows)) for op in workloads.generate(workload, seed)]

    assert mix(7) == mix(8)


def _wrong(expected):
    u_min = None if expected.u_min is None else expected.u_min + 1
    return dataclasses.replace(expected, count=expected.count + 1, u_min=u_min)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_rejects_a_wrong_expected_answer(workload):
    run_op, verify = workloads.runner(workload), workloads.verifier(workload)
    fired = 0
    for op in workloads.generate(workload, 3, smoke=True):
        exp = workloads.expected_for(op)
        out = run_op(op)
        assert verify(op, out, exp) is None
        if op.kind in ("count", "minimize", "oracle"):
            assert verify(op, out, _wrong(exp)) is not None
            fired += 1
    assert fired > 0


def test_wrong_answers_fail_the_run(tmp_path, capsys, monkeypatch):
    real = workloads.expected_for
    monkeypatch.setattr(workloads, "expected_for", lambda op: _wrong(real(op)))
    code, lines = _main(
        capsys, "--workload", "analyse_medium", "--seed", "5", "--seconds", "0.2",
        "--trace", "0", "--smoke", "--out", str(tmp_path),
    )
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_missing_package_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code, lines = _main(capsys, "--workload", "cli_mix", "--out", str(tmp_path))
    assert code == 2 and lines == []


def test_compare_refuses_different_backends(tmp_path, capsys):
    base = {"workload": "scan_large", "input_digest": "sha256:x",
            "metrics": {"ops_per_s": {"value": 2.0, "unit": "1/s"}}}
    paths = []
    for backend in ("numpy", "numba"):
        path = tmp_path / f"{backend}.json"
        path.write_text(json.dumps(dict(base, env={"kernel_backend": backend})))
        paths.append(str(path))
    assert run.main(["--compare", *paths]) == 2
    assert run.main(["--compare", paths[0], paths[0]]) == 0
