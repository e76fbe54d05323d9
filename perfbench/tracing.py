"""Spans for the traced run, recorded from outside ``scanplan``.

``patched(tracer)`` replaces each public entry point at the module
attribute through which other modules (or the benchmark's ops) call it,
so nested calls get parents: ``scanplan.protocol.solve`` is the name
``run_rendezvous`` calls, ``scanplan.solver.objective_cost`` the one
``check_ghc`` calls. Only functions that run O(1) times per op are
wrapped; per-vertex and per-pair helpers such as ``effective_weight`` and
``fov_overlap`` never are. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child
spans; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer.
SITES = [
    ("scanplan.graph", "loads_graph", "graph.loads_graph"),
    ("scanplan.graph", "dumps_graph", "graph.dumps_graph"),
    ("scanplan.candidates", "build_graph", "graph.build_graph"),
    ("scanplan.cli", "load_graph", "graph.load_graph"),
    ("scanplan.cli", "save_graph", "graph.save_graph"),
    ("scanplan.solver", "solve", "solver.solve"),
    ("scanplan.protocol", "solve", "solver.solve"),
    ("scanplan.cli", "solve", "solver.solve"),
    ("scanplan.solver", "check_ghc", "solver.check_ghc"),
    ("scanplan.cli", "check_ghc", "solver.check_ghc"),
    ("scanplan.solver", "objective_cost", "policy.objective_cost"),
    ("scanplan.cli", "objective_cost", "policy.objective_cost"),
    ("scanplan.policy", "is_admissible", "policy.is_admissible"),
    ("scanplan.protocol", "is_admissible", "policy.is_admissible"),
    ("scanplan.protocol", "workloads", "policy.workloads"),
    ("scanplan.protocol", "execute_order", "policy.execute_order"),
    ("scanplan.protocol", "monolog", "policy.monolog"),
    ("scanplan.cli", "monolog", "policy.monolog"),
    ("scanplan.protocol", "full_bidirectional", "policy.full_bidirectional"),
    ("scanplan.cli", "full_bidirectional", "policy.full_bidirectional"),
    ("scanplan.policy", "dumps_policy", "policy.dumps_policy"),
    ("scanplan.cli", "save_policy", "policy.save_policy"),
    ("scanplan.protocol", "run_rendezvous", "protocol.run_rendezvous"),
    ("scanplan.cli", "run_rendezvous", "protocol.run_rendezvous"),
    ("scanplan.cli", "compare_strategies", "protocol.compare_strategies"),
    ("scanplan.protocol", "format_trace", "protocol.format_trace"),
    ("scanplan.cli", "format_trace", "protocol.format_trace"),
    ("scanplan.cli", "strategy_table_csv", "protocol.strategy_table_csv"),
    ("scanplan.candidates", "build_geometric", "candidates.build_geometric"),
    ("scanplan.candidates", "build_appearance", "candidates.build_appearance"),
    ("scanplan.candidates", "read_kitti_poses", "candidates.read_kitti_poses"),
    ("scanplan.candidates", "read_feature_counts", "candidates.read_feature_counts"),
    ("scanplan.candidates", "read_scores", "candidates.read_scores"),
    ("scanplan.cli", "main", "cli.main"),
    ("scanplan.cli", "cmd_build_graph", "cli.cmd_build_graph"),
    ("scanplan.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("scanplan.cli", "run_sweep", "cli.run_sweep"),
    ("scanplan.cli", "cmd_solve", "cli.cmd_solve"),
    ("scanplan.cli", "cmd_check_monolog", "cli.cmd_check_monolog"),
    ("scanplan.cli", "cmd_simulate", "cli.cmd_simulate"),
]

LAYERS = ("graph", "solver", "policy", "protocol", "candidates", "cli")


def _count_loads(args, kwargs, g):
    return {"json_bytes": len(args[0].encode("utf-8")), "edges": g.num_edges}


def _count_solve(args, kwargs, result):
    return {f"{result.engine}_calls": 1}


def _count_rendezvous(args, kwargs, trace):
    return {"messages": len(trace.messages), "total_bytes": float(trace.total_bytes)}


def _count_fov(args, kwargs, g):
    """Pairs that passed the distance gate and went through FOV quadrature,
    recomputed from the call's own arguments, and the edges kept."""
    t1, t2, p = args[:3]
    if p.eta <= 0:
        return {}
    pos = [np.array([pose.position for pose in t.poses[:: p.rate_divisor]], dtype=float) for t in (t1, t2)]
    gated = int((np.linalg.norm(pos[0][:, None, :] - pos[1][None, :, :], axis=2) <= p.d_max).sum())
    return {"fov_pairs": gated, "fov_kept": g.num_edges}


def _count_sweep(args, kwargs, out):
    return {"sweep_points": len(out[0]) - 1}


COUNTERS = {
    "graph.loads_graph": _count_loads,
    "solver.solve": _count_solve,
    "protocol.run_rendezvous": _count_rendezvous,
    "candidates.build_geometric": _count_fov,
    "cli.run_sweep": _count_sweep,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = None


class Tracer:
    """Records spans under one root at a time (a set-up or an op)."""

    def __init__(self):
        self.roots: list[list[Span]] = []
        self._spans: list[Span] | None = None
        self._stack: list[int] = []

    @property
    def active(self) -> bool:
        return self._spans is not None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), parent)
        self._stack.append(len(self._spans))
        self._spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        self._spans, self._stack = [], []
        span = self.open(name)
        try:
            yield
        finally:
            self.close(span)
            self.roots.append(self._spans)
            self._spans = None

    def dump(self, path) -> None:
        """Write every span, one JSON object per line; ``parent`` indexes
        the span list of the same root."""
        with open(path, "w", encoding="utf-8") as fh:
            for root_id, spans in enumerate(self.roots):
                for s in spans:
                    fh.write(json.dumps({
                        "root": root_id, "name": s.name, "start_ns": s.start,
                        "end_ns": s.end, "parent": s.parent, "counts": s.counts,
                    }) + "\n")


def _wrap(tracer: Tracer, fn, name: str, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            span.counts = count(args, kwargs, out)
        return out

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap every entry point in ``SITES`` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, fn, name, COUNTERS.get(name)))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def root_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one root (an op): seconds, counts and ratios."""
    child_ns = [0] * len(spans)
    for s in spans[1:]:
        child_ns[s.parent] += s.end - s.start
    incl, own = defaultdict(int), defaultdict(int)
    layer_own = {layer: 0 for layer in LAYERS}
    counts, calls = Counter(), Counter()
    fov_ns = 0  # self time of the build_geometric calls that ran FOV quadrature
    for i, s in enumerate(spans[1:], 1):
        self_ns = s.end - s.start - child_ns[i]
        if s.counts and "fov_pairs" in s.counts:
            fov_ns += self_ns
        incl[s.name] += s.end - s.start
        own[s.name] += self_ns
        layer_own[s.name.split(".")[0]] += self_ns
        calls[s.name] += 1
        counts.update(s.counts or {})
    sec = 1e-9
    root_ns = spans[0].end - spans[0].start
    m = {
        "graph.loads_s": (own["graph.loads_graph"] + own["graph.load_graph"]) * sec,
        "graph.json_bytes": counts["json_bytes"],
        "graph.edges": counts["edges"],
        "graph.build_s": incl["graph.build_graph"] * sec,
        "graph.dumps_s": (own["graph.dumps_graph"] + own["graph.save_graph"]) * sec,
        "solver.solve_s": incl["solver.solve"] * sec,
        "solver.solve_calls": calls["solver.solve"],
        "solver.dinic_calls": counts["dinic_calls"],
        "solver.scipy_calls": counts["scipy_calls"],
        "solver.check_ghc_s": own["solver.check_ghc"] * sec,
        "policy.workloads_s": incl["policy.workloads"] * sec,
        "policy.objective_cost_s": incl["policy.objective_cost"] * sec,
        "policy.dumps_s": (own["policy.dumps_policy"] + incl["policy.save_policy"]) * sec,
        "protocol.run_rendezvous_s": own["protocol.run_rendezvous"] * sec,
        "protocol.compare_strategies_s": incl["protocol.compare_strategies"] * sec,
        "protocol.messages": counts["messages"],
        "protocol.total_bytes": counts["total_bytes"],
        "candidates.build_geometric_s": own["candidates.build_geometric"] * sec,
        "candidates.fov_pairs": counts["fov_pairs"],
        "candidates.fov_keep_ratio": counts["fov_kept"] / counts["fov_pairs"] if counts["fov_pairs"] else 0.0,
        "candidates.fov_pair_us": fov_ns * 1e-3 / counts["fov_pairs"] if counts["fov_pairs"] else 0.0,
        "candidates.build_appearance_s": own["candidates.build_appearance"] * sec,
        "candidates.read_s": sum(
            incl[f"candidates.{f}"] for f in ("read_kitti_poses", "read_feature_counts", "read_scores")
        ) * sec,
        "cli.build_graph_s": incl["cli.cmd_build_graph"] * sec,
        "cli.sweep_s": incl["cli.cmd_sweep"] * sec,
        "cli.solve_s": incl["cli.cmd_solve"] * sec,
        "cli.check_monolog_s": incl["cli.cmd_check_monolog"] * sec,
        "cli.simulate_s": incl["cli.cmd_simulate"] * sec,
        "cli.sweep_points": counts["sweep_points"],
        "trace.coverage_ratio": sum(layer_own.values()) / root_ns,
    }
    for layer, ns in layer_own.items():
        m[f"{layer}.self_s"] = ns * sec
    return m
