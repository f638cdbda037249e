"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the package from the outside: each
wrapper records a span (layer, name, start, end, parent span, operation id)
and, where a function's result carries a work count, adds it to a counter.
A name bound by `from ... import` is wrapped in every module that looks it
up.  Spans stay in memory until the run writes them out.  A span's self time
is its duration minus the time its child spans cover; `dyadic` has no spans
of its own and shows up in the self time of its callers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

from satscheme import (
    checks, cli, counting, kernels, minimizer, oracle, pseudo_boolean, pt_solvers, transforms,
)
from satscheme.checks import VerdictKind

LAYERS = (
    "cli", "scheme_core", "transforms", "pseudo_boolean", "checks",
    "counting", "minimizer", "pt_solvers", "oracle", "kernels",
)


def _scan_size(args, kwargs, result):
    fmat = args[0] if args else kwargs["fmat"]
    return {"kernels.assignments_scanned": 1 << fmat.shape[1]}


def _cubic_size(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return {"kernels.assignments_scanned": 1 << n}


def _resolve_rows(args, kwargs, result):
    return {"max:checks.resolution_rows_max": result[0].m}


def _chain_rows(args, kwargs, result):
    return {"max:checks.resolution_rows_max": result.evidence.get("final_rows", 0)}


def _run_all(args, kwargs, result):
    return {
        "checks.run_all.reports": 1,
        "checks.run_all.conclusive": int(result.overall is not VerdictKind.INCONCLUSIVE),
    }


def _clusters(args, kwargs, result):
    return {"counting.clusters": result.cluster_count}


def _minimize(args, kwargs, result):
    return {"minimizer.branches": result.branch_count, "minimizer.shortcut_hits": result.shortcut_hits}


def _solve_steps(args, kwargs, result):
    return {"pt_solvers.steps": result.steps}


# (module whose attribute is replaced, attribute, layer, span name, counter)
WRAPS = (
    (cli, "main", "cli", "cli.main", None),
    (cli, "parse_dimacs", "scheme_core", "scheme_core.parse_dimacs", None),
    (cli, "emit_scheme_text", "scheme_core", "scheme_core.emit", None),
    (cli, "emit_dimacs", "scheme_core", "scheme_core.emit", None),
    (checks, "resolve", "transforms", "transforms.resolve", _resolve_rows),
    (minimizer, "assign", "transforms", "transforms.assign", None),
    (pt_solvers, "assign", "transforms", "transforms.assign", None),
    (pt_solvers, "accept_facts", "transforms", "transforms.accept_facts", None),
    (pt_solvers, "remove_pure_columns", "transforms", "transforms.remove_pure_columns", None),
    (transforms, "flip", "transforms", "transforms.flip", None),
    (transforms, "drop_subsumed", "transforms", "transforms.drop_subsumed", None),
    (transforms, "shrink", "transforms", "transforms.shrink", None),
    (transforms, "split", "transforms", "transforms.split", None),
    (transforms, "metavariable_eliminate", "transforms", "transforms.metavariable_eliminate", None),
    (checks, "pb_coefficients", "pseudo_boolean", "pseudo_boolean.pb_coefficients", None),
    (minimizer, "pb_coefficients", "pseudo_boolean", "pseudo_boolean.pb_coefficients", None),
    (pseudo_boolean, "pb_coefficients", "pseudo_boolean", "pseudo_boolean.pb_coefficients", None),
    (checks, "run_all", "checks", "checks.run_all", _run_all),
    (checks, "check_all_rows_polarity", "checks", "checks.check_all_rows_polarity", None),
    (checks, "check_clause_mass", "checks", "checks.check_clause_mass", None),
    (checks, "check_parity", "checks", "checks.check_parity", None),
    (checks, "check_coefficient_bound", "checks", "checks.check_coefficient_bound", None),
    (minimizer, "check_coefficient_bound", "checks", "checks.check_coefficient_bound", None),
    (checks, "check_eigen_bounds", "checks", "checks.check_eigen_bounds", None),
    (checks, "jacobi_eigenvalues", "checks", "checks.jacobi_eigenvalues", None),
    (checks, "check_resolution_chain", "checks", "checks.check_resolution_chain", _chain_rows),
    (counting, "count_solutions", "counting", "counting.count_solutions", _clusters),
    (minimizer, "minimize_u", "minimizer", "minimizer.minimize_u", _minimize),
    (pt_solvers, "solve_2sat", "pt_solvers", "pt_solvers.solve", _solve_steps),
    (pt_solvers, "solve_horn", "pt_solvers", "pt_solvers.solve", _solve_steps),
    (oracle, "oracle_scan", "oracle", "oracle.oracle_scan", None),
    (kernels, "assignment_scan", "kernels", "kernels.assignment_scan", _scan_size),
    (kernels, "cubic_form_scan", "kernels", "kernels.cubic_form_scan", _cubic_size),
)


class Tracer:
    """Records spans of the functions in WRAPS while `recording` is set."""

    def __init__(self):
        self.recording = False
        self.op_id = -1
        # one row per span: [id, parent, op, layer, name, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)

    def _wrap(self, fn, layer: str, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([span_id, parent, self.op_id, layer, name, 0.0, 0.0])
            self._stack.append(span_id)
            self._child_s.append(0.0)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(span_id, layer, name, start, end)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    if key.startswith("max:"):
                        key = key[4:]
                        self.counters[key] = max(self.counters[key], value)
                    else:
                        self.counters[key] += value
            return result

        return traced

    def _close(self, span_id, layer, name, start, end):
        row = self.spans[span_id]
        row[5], row[6] = start, end
        self._stack.pop()
        duration = end - start
        own = duration - self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        self._depth[name] -= 1
        if self._depth[name] == 0:
            self.busy_s[name] += duration
        self.calls[name] += 1
        self.self_s[name] += own
        self.layer_self_s[layer] += own

    @contextmanager
    def installed(self):
        """Replace every WRAPS attribute by its traced wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, layer, name, counter in WRAPS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "op", "layer", "name", "start_s", "end_s"]}))
            fh.write("\n")
            for row in self.spans:
                fh.write(json.dumps(row))
                fh.write("\n")
