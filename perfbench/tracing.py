"""Spans around the calls the CLI makes into each layer, and the per-layer metrics.

The traced run installs wrappers on the module attributes through which the
CLI and the library reach each layer (for example ``spatialfda.cli.pca`` or
``spatialfda.depth._sign_mean``), runs the operation through
``spatialfda.cli.main``, and restores the originals afterwards. Nothing in
the program changes. Spans stay in memory; the worker writes them out when
the run ends.

A span is a dict with name, op (the operation id), id, parent, start, end
(seconds, perf_counter) and optional counts. A span opened on a pool worker
thread, whose own stack is empty, gets as parent the span the submitting
(main) thread has open, which is where the pool call came from.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
import time

# (module, attribute, span name, counts taken from (args, result)).
TARGETS = (
    ("spatialfda.cli", "read_sample", "io.read", lambda a, r: {"bytes": os.path.getsize(a[0])}),
    ("spatialfda.cli", "write_sample", "io.write", None),
    ("spatialfda.cli", "write_table", "io.write", None),
    ("spatialfda.cli", "pca", "funcspace.pca", None),
    ("spatialfda.quantile", "project_sample", "funcspace.project", None),
    (
        "spatialfda.cli",
        "solve_quantile",
        "quantile.solve",
        lambda a, r: {"iterations": r.iterations, "anchored": int(r.anchored_at_datum is not None)},
    ),
    ("spatialfda.cli", "dd_plot", "depth.dd_plot", None),
    ("spatialfda.cli", "dd_plot_svg", "svg.render", None),
    ("spatialfda.cli", "curve_fan_svg", "svg.render", None),
    ("spatialfda.cli", "efficiency_table", "efficiency.table", None),
    ("spatialfda.efficiency", "are", "efficiency.are", None),
    ("spatialfda.efficiency", "v0_estimate", "efficiency.v0", None),
    ("spatialfda.efficiency", "_kl_system", "simulate.kl", None),
    ("spatialfda.cli", "gc_rate_study", "asymptotics.study", None),
    ("spatialfda.cli", "sample_process", "simulate.sample", lambda a, r: {"paths": len(r)}),
    ("spatialfda.asymptotics", "sample_process", "simulate.sample", lambda a, r: {"paths": len(r)}),
    ("spatialfda.depth", "_sign_mean", "spatialdist.sign", lambda a, r: _sign_counts(a)),
    ("spatialfda.asymptotics", "_sign_mean", "spatialdist.sign", lambda a, r: _sign_counts(a)),
)
# Spans whose result is (or starts with) a FunctionalSample; the largest one
# is the workload's sample for the single-query spatialdist.query_ms timing.
SAMPLE_SPANS = ("io.read", "simulate.sample")
# Generator whose every next() is one block of Philox coefficient draws.
DRAW_TARGET = ("spatialfda.efficiency", "coefficient_chunks", "simulate.draw")


def _sign_counts(args) -> dict:
    queries, data = args[0], args[1]
    pairs = queries.shape[0] * data.shape[0]
    return {"pairs": pairs, "tensor_bytes": pairs * data.shape[1] * data.itemsize}


class Tracer:
    """Collects the spans of traced operations."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.largest_sample = None  # largest FunctionalSample read or simulated
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = 0

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = {"name": name, "op": self._op, "id": next(self._ids), "parent": parent}
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict, counts: dict | None = None) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        if counts:
            span.update(counts)
        self.spans.append(span)

    def run_op(self, fn):
        """Run fn() traced, as the next operation, under a root span named cli.main."""
        self._op += 1
        self._install()
        root = self._open("cli.main")
        try:
            return fn()
        finally:
            self._close(root)
            self._uninstall()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                extra = counts(args, result) if counts and result is not None else None
                self._close(span, extra)
                if result is not None and name in SAMPLE_SPANS:
                    self._keep_sample(result[0] if name == "io.read" else result)

        return traced

    def _keep_sample(self, sample) -> None:
        if self.largest_sample is None or len(sample) > len(self.largest_sample):
            self.largest_sample = sample

    def _wrap_draws(self, gen_fn, name):
        @functools.wraps(gen_fn)
        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    y = next(it)
                except StopIteration:
                    self._stack().pop()
                    return
                except BaseException:
                    self._close(span)
                    raise
                self._close(span, {"normals": int(y.size)})
                yield y

        return traced

    def _patch(self, module_name, attr, wrapper_of) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            if f"{module_name}.{attr}" not in self.missing:
                self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper_of(original))

    def _install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            self._patch(module_name, attr, lambda fn, n=name, c=counts: self._wrap(fn, n, c))
        module_name, attr, name = DRAW_TARGET
        self._patch(module_name, attr, lambda fn: self._wrap_draws(fn, name))

    def _uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of traced operations.


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its children cover."""
    lo, hi = span["start"], span["end"]
    ivs = sorted((max(c["start"], lo), min(c["end"], hi)) for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in ivs:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (hi - lo) - covered


def op_metrics(spans: list[dict]) -> dict:
    """Layer metrics of one traced operation (all spans share one op id)."""
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def total(name, key=None):
        items = by_name.get(name, [])
        return sum(s.get(key, 0) for s in items) if key else sum((_dur(s) for s in items), 0.0)

    def self_sum(name):
        return sum((self_time(s, children.get(s["id"], [])) for s in by_name.get(name, [])), 0.0)

    draw_s, sign_s = total("simulate.draw"), total("spatialdist.sign")
    normals, pairs = total("simulate.draw", "normals"), total("spatialdist.sign", "pairs")
    are_spans = by_name.get("efficiency.are", [])
    return {
        "cli.overhead_s": self_sum("cli.main"),
        "io.read_s": total("io.read"),
        "io.read_mb": total("io.read", "bytes") / 1e6,
        "io.write_s": total("io.write"),
        "funcspace.pca_s": total("funcspace.pca"),
        "funcspace.project_s": total("funcspace.project"),
        "simulate.draw_s": draw_s,
        "simulate.normals": normals,
        "simulate.draw_rate": normals / draw_s if draw_s > 0 else 0.0,
        "simulate.kl_s": total("simulate.kl"),
        "simulate.sample_s": total("simulate.sample"),
        "simulate.paths": total("simulate.sample", "paths"),
        "spatialdist.sign_s": sign_s,
        "spatialdist.pairs": pairs,
        "spatialdist.pair_rate": pairs / sign_s if sign_s > 0 else 0.0,
        "spatialdist.tensor_mb": total("spatialdist.sign", "tensor_bytes") / 1e6,
        "depth.dd_plot_s": total("depth.dd_plot"),
        "svg.render_s": total("svg.render"),
        "quantile.iterations": total("quantile.solve", "iterations"),
        "quantile.anchored": total("quantile.solve", "anchored"),
        "efficiency.v0_s": total("efficiency.v0"),
        "efficiency.accum_s": self_sum("efficiency.v0"),
        "efficiency.cell_s_max": max((_dur(s) for s in are_spans), default=0.0),
        "asymptotics.study_s": total("asymptotics.study"),
        "asymptotics.self_s": self_sum("asymptotics.study"),
    }


def layer_metrics(spans: list[dict]) -> dict:
    """Median over traced operations of each op metric, plus solve-time stats."""
    ops: dict[int, list[dict]] = {}
    for s in spans:
        ops.setdefault(s["op"], []).append(s)
    per_op = [op_metrics(v) for _, v in sorted(ops.items())]
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    solves = [_dur(s) * 1e3 for s in spans if s["name"] == "quantile.solve"]
    out["quantile.solve_ms"] = statistics.median(solves) if solves else 0.0
    out["quantile.solve_ms_max"] = max(solves, default=0.0)
    return out
