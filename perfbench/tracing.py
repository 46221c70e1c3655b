"""Spans around the public calls between ioulab's layers, and the per-layer split they give.

Run as a script, this is the traced child process:

    python perfbench/tracing.py SPANS.json -- <ioulab arguments>

It replaces the module-level names through which the layers call each
other (``WRAPPED``) with wrappers that record a span per call, runs
``ioulab.cli.main`` in-process, and writes the spans to SPANS.json once the
run ends. Nothing inside ``ioulab`` changes. The benchmark process reads the
file back with ``layer_metrics``.

A span holds its name, start, end, parent span and thread id. Times come
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), the same clock the
benchmark process reads around the child, so the two can be subtracted.
Counting done for a span after its call (zero gradient rows, returned
bytes) gets its own ``trace.count`` span, so it is charged to the tracer
and not to the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the span name's prefix is the layer the callee belongs to.
WRAPPED = (
    ("ioulab.cli", "main", "cli.main"),
    ("ioulab.cli", "run_simulation", "simlab.run"),
    ("ioulab.cli", "run_sweep", "sweep.run"),
    ("ioulab.cli", "check_conclusions", "sweep.check"),
    ("ioulab.simlab", "generate_case_arrays", "simlab.generate"),
    ("ioulab.simlab", "eval_batch", "batch.grad"),
    ("ioulab.simlab", "iou_batch", "batch.iou"),
    ("ioulab.sweep", "eval_batch", "batch.sweep_eval"),
)

# The descent loop reads only these fields of the BatchEval it gets back.
DESCENT_READS = ("iou", "grad")


def _nbytes(value) -> int:
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    if isinstance(value, dict):
        return sum(_nbytes(v) for v in value.values())
    return 0


def _count_grad(args, kwargs, result) -> dict:
    import numpy as np

    spec = args[0] if args else kwargs["spec"]
    grad = result.grad
    fields = vars(result)
    returned = sum(_nbytes(v) for v in fields.values())
    used = sum(_nbytes(fields.get(k)) for k in DESCENT_READS)
    return {
        "spec": spec.label(),
        "rows": int(grad.shape[0]),
        "zero_rows": int(np.count_nonzero(~np.any(grad, axis=-1))),
        "bytes": returned,
        "unused_bytes": returned - used,
    }


def _count_rows(args, kwargs, result) -> dict:
    return {"rows": int(result[0].shape[0])}


def _count_records(args, kwargs, result) -> dict:
    # A later sweep that passes columns instead of per-sample records reports 0.
    return {"records": len(result) if isinstance(result, list) else 0}


COUNTERS = {
    "batch.grad": _count_grad,
    "simlab.generate": _count_rows,
    "sweep.run": _count_records,
}


class Recorder:
    """Collects spans in memory; safe to call from worker threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, sid, name, start, end, parent, info=None) -> None:
        span = {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
                "thread": threading.get_ident()}
        if info is not None:
            span["info"] = info
        self.spans.append(span)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool worker has no open span of its own: its caller is the
            # main thread's innermost open span.
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = None
            if counter is not None:
                info = counter(args, kwargs, result)
                self._add(next(self._ids), "trace.count", end, time.perf_counter(), parent)
            self._add(sid, name, start, end, parent, info)
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every name in ``WRAPPED``; return the names that do not exist."""
    missing = []
    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(fn, span_name, COUNTERS.get(span_name)))
    return missing


def _union(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _union(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def spec_key(label: str) -> str:
    """Metric suffix of a spec label: the ratio is fixed by the workload."""
    return label.split("(", 1)[0]


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    i = int(pos)
    j = min(i + 1, len(sorted_values) - 1)
    return sorted_values[i] + (sorted_values[j] - sorted_values[i]) * (pos - i)


LAYERS = ("cli", "simlab", "sweep", "batch", "trace")


def layer_metrics(spans: list[dict], t0: float, t1: float, specs: list[str],
                  iterations: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one single-threaded traced run.

    ``t0``/``t1`` bracket the child process as the benchmark process saw
    it, so ``trace.wall_s`` includes interpreter start and import; that
    part is ``proc.outside_main_s``. The layer self times plus that part
    add up to ``trace.wall_s``.
    """
    own = self_times(spans)
    wall = t1 - t0
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_of(name):
        return sum(own[s["id"]] for s in by_name[name])

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += own[s["id"]]
    main_s = dur("cli.main")

    grads = by_name["batch.grad"]
    rows = defaultdict(int)
    busy = defaultdict(float)
    for s in grads:
        key = spec_key(s["info"]["spec"])
        rows[key] += s["info"]["rows"]
        busy[key] += s["end"] - s["start"]
    call_ms = sorted((s["end"] - s["start"]) * 1e3 for s in grads)
    total_rows = sum(rows.values())
    returned = sum(s["info"]["bytes"] for s in grads)

    m = {
        "batch.grad_s": dur("batch.grad"),
        "batch.grad_calls": len(grads),
        "batch.grad_share": dur("batch.grad") / wall,
        "batch.grad_call_ms_p50": _quantile(call_ms, 0.5),
        "batch.grad_call_ms_p99": _quantile(call_ms, 0.99),
        "batch.grad_call_samples": len(call_ms),
        "batch.unused_out_frac": (
            sum(s["info"]["unused_bytes"] for s in grads) / returned if returned else 0.0
        ),
        "batch.zero_grad_frac": (
            sum(s["info"]["zero_rows"] for s in grads) / total_rows if total_rows else 0.0
        ),
        "batch.iou_s": dur("batch.iou"),
        "batch.sweep_eval_s": dur("batch.sweep_eval"),
        "batch.self_s": layer_self["batch"],
        "simlab.generate_s": dur("simlab.generate"),
        "simlab.run_s": dur("simlab.run"),
        "simlab.descent_self_s": self_of("simlab.run"),
        "simlab.self_s": layer_self["simlab"],
        "simlab.chunks": len(grads) // iterations if iterations else 0,
        "simlab.cases": sum(s["info"]["rows"] for s in by_name["simlab.generate"]),
        "sweep.run_s": dur("sweep.run"),
        "sweep.run_self_s": self_of("sweep.run"),
        "sweep.check_s": dur("sweep.check"),
        "sweep.records": sum(s["info"]["records"] for s in by_name["sweep.run"]),
        "sweep.self_s": layer_self["sweep"],
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": (
            bytes_written / 2**20 / layer_self["cli"] if layer_self["cli"] > 0 else 0.0
        ),
        "trace.self_s": layer_self["trace"],
        "trace.wall_s": wall,
        "proc.outside_main_s": wall - main_s,
    }
    for spec in specs:
        m[f"batch.grad_ns_per_pair.{spec}"] = busy[spec] / rows[spec] * 1e9 if rows[spec] else 0.0
    return m


def split_residual(m: dict[str, float]) -> float:
    """Traced wall minus the sum of the layer self times and the time outside main."""
    parts = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["proc.outside_main_s"]
    return m["trace.wall_s"] - parts


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <ioulab arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    missing = install(recorder)
    cli = importlib.import_module("ioulab.cli")
    code = 1
    try:
        code = cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as f:
            json.dump({"exit_code": code, "missing": missing, "spans": recorder.spans}, f)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
