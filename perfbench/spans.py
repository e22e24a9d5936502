"""In-memory span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps each layer's public function at the module attribute its
caller looks it up through (``su11squeeze.kernels.fold_ladder``,
``cli.evolve``, ...).  No program source is edited, and ``uninstall``
restores the originals, so untraced passes run the program as shipped.

A span records its name, start, end, parent span and command id.  Spans of
the sweep's pool threads take the command's root span as parent.  Self time
splits each command's wall time among its spans: at every instant the
deepest open span of each busy thread is running, and when k threads are
busy each gets 1/k.  With one thread that is a span's duration minus the
time its children cover.  The self time of a command's root span is the
time no wrapped call covers: argument parsing, printing and the CLI's own
glue.  It is reported apart from the layers, as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    command: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _records(args, result):
    return {"records": len(result.records)}


def _sites():
    """(module, attribute, span name, counter) for every wrapped call site."""
    from su11squeeze import analysis, cli, evolution, kernels

    return (
        (cli, "build_config", "config.build_config", None),
        (cli, "discretize", "profiles.discretize", None),
        (evolution, "discretize", "profiles.discretize", None),
        (kernels, "fold_ladder", "kernels.fold_ladder", lambda a, r: {"segments": len(a[0])}),
        (cli, "evolve", "evolution.evolve", _records),
        (evolution, "evolve", "evolution.evolve", _records),
        (cli, "auto_converge", "evolution.auto_converge", lambda a, r: {"n_used": r.n_steps_used}),
        (cli, "trajectory_table", "cli.trajectory_table", None),
        (cli, "write_table", "cli.write_table", lambda a, r: {"bytes": os.path.getsize(a[0])}),
        (cli, "run_single", "cli.run_single", None),
        (cli, "integrate", "oracle.integrate", None),
        (kernels, "rk4_propagate", "kernels.rk4_propagate",
         lambda a, r: {"work": len(a[0]) * int(a[4]) * len(a[3])}),
        (cli, "apply_to_state", "evolution.apply_to_state", None),
        (cli, "fidelity", "oracle.fidelity", None),
        (analysis, "trailing_mean", "analysis.trailing_mean", None),
    )


class Tracer:
    """Collects spans while installed; one root span per CLI command."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Span | None = None
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        span = Span(next(self._ids), name, parent.id, parent.command)
        stack.append(span)
        return span

    def _close(self, span: Span):
        self._stack().pop()
        self.spans.append(span)

    def command(self, kind: str, fn):
        """Run ``fn()`` under a root span ``cli.<kind>``; returns its result."""
        root = Span(next(self._ids), f"cli.{kind}", None, 0)
        root.command = root.id
        self._root = root
        self._stack().append(root)
        root.start = time.perf_counter()
        try:
            return fn()
        finally:
            root.end = time.perf_counter()
            self._close(root)
            self._root = None

    def _wrap(self, fn, name, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.counts["cpu_s"] = time.thread_time() - cpu0
                tracer._close(span)
            if count is not None:
                span.counts.update(count(args, result))
            return result

        return traced

    def _pool(self, executor):
        tracer = self

        def make(*args, **kwargs):
            pool = executor(*args, **kwargs)
            tracer._root.counts["workers"] = pool._max_workers
            return pool

        return make

    def install(self):
        from su11squeeze import cli

        for module, attr, name, count in _sites():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        self._saved.append((cli, "ThreadPoolExecutor", cli.ThreadPoolExecutor))
        cli.ThreadPoolExecutor = self._pool(cli.ThreadPoolExecutor)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans) -> dict:
    """Self time of every span, by the 1/k wall-time split in the module docstring."""
    by_command = defaultdict(list)
    for s in spans:
        by_command[s.command].append(s)
    out = {}
    for group in by_command.values():
        for s in group:
            out[s.id] = 0.0
        bounds = sorted({t for s in group for t in (s.start, s.end)})
        for lo, hi in zip(bounds, bounds[1:]):
            mid = 0.5 * (lo + hi)
            active = [s for s in group if s.start <= mid < s.end]
            parents = {s.parent for s in active}
            running = [s for s in active if s.id not in parents]
            for s in running:
                out[s.id] += (hi - lo) / len(running)
    return out


def _ratio(num, den, scale=1.0):
    # 0.0 when the workload does no such work (e.g. no RK4 on ``figures``)
    return num / den * scale if den else 0.0


def pass_metrics(spans, factor: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``factor`` takes the run's times to the reference machine speed (see
    ``runner.speed_factor``).
    """
    raw = self_times(spans)
    own = {s.id: raw[s.id] * factor for s in spans}
    by_id = {s.id: s for s in spans}

    def total(name, key=None):
        return sum((s.counts.get(key, 0) if key else own[s.id]) for s in spans if s.name == name)

    def under(span, name):
        # descendants of ``span`` called ``name``, in start order
        found = []
        for s in spans:
            p = s.parent
            while p is not None and p != span.id:
                p = by_id[p].parent
            if p == span.id and s.name == name:
                found.append(s)
        return sorted(found, key=lambda s: s.start)

    fold_s = total("kernels.fold_ladder")
    segments = total("kernels.fold_ladder", "segments")
    rk4_s = total("kernels.rk4_propagate")
    rk4_work = total("kernels.rk4_propagate", "work")
    write_s = total("cli.write_table")
    written = total("cli.write_table", "bytes")

    integrations = [s for s in spans if s.name == "oracle.integrate"]
    calls = [under(s, "kernels.rk4_propagate") for s in integrations]
    final_work = sum(c[-1].counts["work"] for c in calls if c)

    converges = [s for s in spans if s.name == "evolution.auto_converge"]
    conv_used = sum(s.counts["n_used"] for s in converges)
    conv_folded = sum(f.counts["segments"] for s in converges for f in under(s, "kernels.fold_ladder"))

    sweeps = [s for s in spans if s.name == "cli.sweep"]
    sweep_busy = sum(r.counts["cpu_s"] for s in sweeps for r in under(s, "cli.run_single"))
    sweep_cap = sum(s.counts["workers"] * (s.end - s.start) for s in sweeps)

    m = {
        "kernels.fold_s": fold_s,
        "kernels.fold_ns_per_segment": _ratio(fold_s, segments, 1e9),
        "kernels.fold_segments": segments,
        "evolution.evolve_self_s": total("evolution.evolve"),
        "evolution.records": total("evolution.evolve", "records"),
        "cli.table_s": total("cli.trajectory_table"),
        "cli.write_s": write_s,
        "cli.bytes_written": written,
        "cli.write_MBps": _ratio(written, write_s, 1e-6),
        "kernels.rk4_s": rk4_s,
        "kernels.rk4_substep_dims": rk4_work,
        "kernels.rk4_ns_per_substep_dim": _ratio(rk4_s, rk4_work, 1e9),
        "oracle.integrate_self_s": total("oracle.integrate"),
        "oracle.dims_tried": sum(len(c) for c in calls),
        "oracle.useful_ratio": _ratio(final_work, rk4_work),
        "evolution.converge_useful_ratio": _ratio(conv_used, conv_folded),
        "cli.sweep_parallel_eff": _ratio(sweep_busy, sweep_cap),
        "analysis.trailing_mean_s": total("analysis.trailing_mean"),
        "profiles.discretize_s": total("profiles.discretize"),
    }
    # profiles, kernels and analysis: their self times are the site metrics above
    for layer in ("cli", "config", "evolution", "oracle"):
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer and s.parent is not None)
    # time inside ``cli.main`` that no wrapped call covers
    m["trace.unattributed_s"] = sum(own[s.id] for s in spans if s.parent is None)
    return m


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counts repeat exactly, so they pass through)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def span_records(spans) -> list:
    """Spans as plain dicts for the spans file written at the end of the run."""
    own = self_times(spans)
    return [{"id": s.id, "name": s.name, "parent": s.parent, "command": s.command,
             "start": s.start, "end": s.end, "self_s": own[s.id], **s.counts} for s in spans]
