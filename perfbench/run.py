#!/usr/bin/env python3
"""The repo benchmark: three seeded workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare perfbench/out/A.json perfbench/out/B.json

One closed-loop client in one process calls the package with its defaults
(jobs=1).  A pass runs the workload's operation list in order until the
operations have been busy for `--seconds` and at least MIN_OPS have run;
every output is checked against an independent path outside the timed
region.  `--trace 0` prints the end-to-end metrics; `--trace 1` also replays
the first operations with spans around each layer and prints the per-layer
metrics.  A full report (and with `--trace 1` the raw span file) goes to
`--out`; the last line of standard output is the JSON result.  Exits 1 when
any operation failed or answered wrong, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Inherited settings that would change what is measured; the program runs
# with its defaults.
PINNED_ENV = ("SATSCHEME_KERNEL", "SATSCHEME_ORACLE_LIMIT", "SATSCHEME_BRANCH_LIMIT")

SETUP_RUNS = 11
# A pass stops growing past MIN_OPS once the operations were busy this many
# times `--seconds`, so a slow build still finishes in time.
BUSY_CAP = 2.5
# Outputs wait for their check in batches of this many operations.
CHECK_BATCH = 32

# The warm-up the test suite makes before any timed assertion (see
# tests/conftest.py::warm_kernels), timed in a fresh interpreter.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import numpy as np
import satscheme
from satscheme import kernels
tiny = np.array([[1, -1], [0, 1]], dtype=np.int8)
kernels.assignment_scan(tiny, collect=True)
kernels.cubic_form_scan(2, np.array([0.5, -0.25]), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def clean_env() -> dict:
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", SETUP_CODE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Gate:
    """Expected answers per list index, computed once and outside any timing."""

    def __init__(self, ops, expected_for):
        self.ops = ops
        self.expected_for = expected_for
        self.cache: dict[int, object] = {}

    def expected(self, index: int):
        if index not in self.cache:
            self.cache[index] = self.expected_for(self.ops[index])
        return self.cache[index]


def run_pass(ops, run_op, verify, gate, *, seconds=0.0, min_ops=0, count=None, tracer=None):
    """Closed loop over `ops`; returns (latencies_s, kinds, failures).

    Runs exactly `count` operations when given; otherwise until the
    operations were busy for `seconds` and at least `min_ops` ran, but never
    past BUSY_CAP times `seconds` of busy time.  Outputs are checked in
    batches of CHECK_BATCH, so the checks run between batches, not between
    two timed operations.
    """
    latencies: list[float] = []
    kinds: list[str] = []
    failures: list[tuple[int, str]] = []
    pending: list[tuple[int, int, object, object, str | None]] = []

    def check_pending():
        for i, index, op, out, error in pending:
            if error is None:
                try:
                    error = verify(op, out, gate.expected(index))
                except Exception as exc:
                    error = f"output could not be checked: {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append((i, f"{op.kind} (list index {index}): {error}"))
        pending.clear()

    busy = 0.0
    i = 0
    # The benchmark's own inputs live for the whole run; keep them out of the
    # collector's way so its pauses reflect only what the program allocates.
    gc.collect()
    gc.freeze()
    while (
        i < count if count is not None
        else (i < min_ops or busy < seconds) and busy < BUSY_CAP * seconds
    ):
        index = i % len(ops)
        op = ops[index]
        if tracer is not None:
            tracer.op_id = i
            if op.argv:
                tracer.counters["scheme_core.input_bytes"] += len(op.text.encode())
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = run_op(op)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        latencies.append(dt)
        kinds.append(op.kind)
        pending.append((i, index, op, out, error))
        if len(pending) >= CHECK_BATCH:
            check_pending()
        busy += dt
        i += 1
    check_pending()
    return latencies, kinds, failures


def percentile_ms(latencies: list[float], q: int) -> float:
    """q-th percentile (inclusive method) in milliseconds."""
    if len(latencies) == 1:
        return latencies[0] * 1e3
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def end_to_end(latencies, failures) -> dict:
    p90 = percentile_ms(latencies, 90)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": p90,
        "samples_beyond_p90": sum(dt * 1e3 > p90 for dt in latencies),
        "ops_failed_ratio": len(failures) / len(latencies),
        "samples": len(latencies),
        "busy_s": sum(latencies),
    }


def layer_metrics(tracer, kinds_lat, overhead: float, kinds) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    from spans import LAYERS

    busy, calls, counters = tracer.busy_s, tracer.calls, tracer.counters
    out = {f"{layer}.self_s": (tracer.layer_self_s.get(layer, 0.0), "s") for layer in LAYERS}

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    for name in (
        "kernels.assignment_scan", "kernels.cubic_form_scan", "transforms.resolve",
        "pseudo_boolean.pb_coefficients", "transforms.assign",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for name in (
        "checks.jacobi_eigenvalues", "checks.run_all", "checks.check_resolution_chain",
        "counting.count_solutions", "minimizer.minimize_u", "scheme_core.parse_dimacs",
        "scheme_core.emit", "pt_solvers.solve",
    ):
        out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    for key in (
        "kernels.assignments_scanned", "checks.resolution_rows_max", "counting.clusters",
        "minimizer.branches", "minimizer.shortcut_hits", "pt_solvers.steps",
    ):
        out[key] = (counters.get(key, 0), "count")
    scan_busy = busy.get("kernels.assignment_scan", 0.0) + busy.get("kernels.cubic_form_scan", 0.0)
    reports = counters.get("checks.run_all.reports", 0)
    out["kernels.assignments_per_s"] = (per_s(counters.get("kernels.assignments_scanned", 0), scan_busy), "1/s")
    out["counting.clusters_per_s"] = (
        per_s(counters.get("counting.clusters", 0), busy.get("counting.count_solutions", 0.0)), "1/s"
    )
    out["oracle.oracle_scan.self_s"] = (tracer.self_s.get("oracle.oracle_scan", 0.0), "s")
    out["checks.conclusive_ratio"] = (
        counters.get("checks.run_all.conclusive", 0) / reports if reports else 0.0, "ratio"
    )
    out["scheme_core.input_bytes"] = (counters.get("scheme_core.input_bytes", 0), "bytes")
    for kind in kinds:
        lat = kinds_lat.get(kind)
        out[f"request.{kind}.p50_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


def environment() -> dict:
    import numpy
    from satscheme import kernels

    return {
        "kernel_backend": kernels.backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run(args) -> int:
    if not (SRC / "satscheme" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC / 'satscheme'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    env = clean_env()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    name = args.workload
    _, _, min_ops, trace_ops = workloads.SPECS[name]
    if args.smoke:
        min_ops, trace_ops = 10, 10
    ops = workloads.generate(name, args.seed, smoke=args.smoke)
    digest = workloads.digest(ops)
    gate = Gate(ops, workloads.expected_for)
    run_op, verify = workloads.runner(name), workloads.verifier(name)

    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "env": environment(), "input_digest": digest, "ops_in_list": len(ops),
        "clients": 1, "loop": "closed",
    }
    setup_times = None
    if not args.trace:
        setup_times = measure_setup(env, 2 if args.smoke else SETUP_RUNS)
        report["setup_s_runs"] = setup_times

    # Warm-up, untimed: one operation of every slot, from a list of its own,
    # so lazy imports and first kernel calls are done before timing starts.
    warm = workloads.generate(name, args.seed, smoke=args.smoke, warmup=True)
    w_lat, _, w_failures = run_pass(
        warm, run_op, verify, Gate(warm, workloads.expected_for), count=len(warm)
    )

    # Untraced pass: the end-to-end numbers.  Load average and the share of
    # wall time the process ran are kept to tell host noise from the program.
    load_before = os.getloadavg()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    lat, kinds, failures = run_pass(
        ops, run_op, verify, gate, seconds=args.seconds, min_ops=min_ops
    )
    report["host"] = {
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "pass_cpu_over_wall": (time.process_time() - cpu0) / (time.perf_counter() - wall0),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = end_to_end(lat, failures)
    report["end_to_end"] = e2e
    report["latencies_ms"] = [[kind, round(dt * 1e3, 3)] for kind, dt in zip(kinds, lat)]
    attempted = len(w_lat) + len(lat)
    failed_ops = list(w_failures) + list(failures)

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            t_lat, _, t_failures = run_pass(
                ops, run_op, verify, gate, count=trace_ops, tracer=tracer
            )
        common = min(len(t_lat), len(lat))
        overhead = sum(t_lat[:common]) / sum(lat[:common]) - 1.0
        by_kind: dict[str, list[float]] = {}
        for kind, dt in zip(kinds, lat):
            by_kind.setdefault(kind, []).append(dt)
        per_layer = layer_metrics(tracer, by_kind, overhead, workloads.KINDS)
        report["traced"] = end_to_end(t_lat, t_failures)
        report["tracing_overhead"] = {
            "ops_compared": common,
            "traced_over_untraced_minus_1": overhead,
        }
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        report["spans_by_name"] = {
            k: {"calls": tracer.calls[k], "busy_s": tracer.busy_s[k], "self_s": tracer.self_s[k]}
            for k in sorted(tracer.calls)
        }
        report["layer_self_s"] = dict(tracer.layer_self_s)
        report["counters"] = dict(tracer.counters)
        attempted += len(t_lat)
        failed_ops += t_failures
        metrics = report["per_layer"]
    else:
        values = dict(e2e, setup_s=statistics.median(setup_times), peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        report["metrics"] = metrics

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if args.trace:
        span_path = out_dir / f"{stem}.spans.jsonl"
        tracer.write_spans(span_path)
        report["span_file"] = str(span_path)
    report["failures"] = [msg for _, msg in failed_ops]
    report_path = out_dir / f"{stem}.json"
    report_path.write_text(json.dumps(report, indent=2, default=str))

    env_info = report["env"]
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"env kernel_backend={env_info['kernel_backend']} python={env_info['python']} "
          f"numpy={env_info['numpy']} nproc={env_info['nproc']} clients=1 loop=closed jobs=1")
    print(f"inputs {digest} ops_in_list={len(ops)}")
    print(f"samples {e2e['samples']} ops ({e2e['samples_beyond_p90']} beyond p90), "
          f"busy {e2e['busy_s']:.3f} s (untraced pass)")
    print(f"ops_failed_ratio {e2e['ops_failed_ratio']} ratio ({len(failures)}/{e2e['samples']})")
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    if args.trace:
        print(f"tracing overhead {report['tracing_overhead']['traced_over_untraced_minus_1']:+.4f} "
              f"over {report['tracing_overhead']['ops_compared']} ops; spans {report['span_file']}")
    print(f"report {report_path}")
    for _, msg in failed_ops[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    correct = not failed_ops
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """Print metric changes between two reports; refuse across kernel backends."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["env"]["kernel_backend"] != b["env"]["kernel_backend"]:
        print(f"refusing to compare: kernel backend {a['env']['kernel_backend']} "
              f"vs {b['env']['kernel_backend']}", file=sys.stderr)
        return 2
    same = a["input_digest"] == b["input_digest"]
    print(f"workloads {a['workload']} vs {b['workload']}; inputs {'identical' if same else 'DIFFER'}")
    ma = a.get("metrics") or a.get("per_layer", {})
    mb = b.get("metrics") or b.get("per_layer", {})
    for key in ma:
        if key in mb:
            va, vb = ma[key]["value"], mb[key]["value"]
            change = f"{(vb - va) / va:+.2%}" if va else "n/a"
            print(f"{key} {va} -> {vb} {ma[key]['unit']} ({change})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cli_mix", "analyse_medium", "scan_large"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "out"))
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two reports")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
