"""Spans recorded from outside the program, and the per-layer metrics built on them.

The tracer replaces public functions and methods of ``impartial`` with
wrappers that record one span per call: name, start, end and parent.
Spans stay in memory until the traced pass ends.  Methods are patched on
their class, because ``MECHANISMS`` holds direct references to the exact
and sampling functions and only ``Mechanism.exact``/``Mechanism.sample``
see every call made through the registry.
"""
from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

# (mechanism, n) pairs the workloads evaluate exactly or sample.
EXACT_POINTS = (("perm", 5), ("perm", 6), ("perm", 10), ("rd", 5), ("rd", 10),
                ("prug", 5), ("prug", 10), ("prugd", 5), ("prugd", 8),
                ("mix", 5), ("mix", 6), ("mix", 8))
SAMPLE_POINTS = tuple((m, n) for m in ("perm", "rd", "prug", "prugd", "mix") for n in (5, 50))
FRONTIER_MECHS = ("perm", "prug", "prugd", "mix")

# Spans whose descendants are attributed to them when counting exact calls.
_SCOPES = ("cli.eval.exact", "analysis.check_impartial", "analysis.verify_upper_bound_chain")


class Tracer:
    """Records nested spans in flat arrays; index order is start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str | Callable[..., str],
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.  ``name``
        is fixed or computed from the call's arguments; ``after`` gets the
        result and the arguments, to add to the counters."""
        orig = getattr(owner, attr)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            i = open_(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = orig(*args, **kwargs)
            finally:
                close(i)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def spans(self) -> list[tuple[str, float, float, int]]:
        return [(self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
                for i in range(len(self.name_id))]


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent index) with -1 for a root.
    Overlapping children are merged first, so no instant is subtracted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are built from."""
    from impartial import analysis, cli, engine, graphs, mechanisms, rng

    count = tracer.counters

    def table_name(n: int) -> str:
        # A miss in the engine's table cache means this call builds the table.
        cached = n in engine._table_cache
        return "engine.permutation_table" + ("" if cached else ".build")

    def kernel_counter(name: str) -> Callable[..., None]:
        # Work model from array shapes: the kernel reads or writes three
        # rows x n int16 arrays (ordering table, position table and the
        # left-indegree matrix or the two key arrays).
        def after(result, out0, *args, **kwargs) -> None:
            rows = result[1]  # both kernels return the ordering count second
            count[name + ".orderings"] += rows
            count[name + ".computed_bytes"] += 3 * rows * out0.shape[0] * 2
        return after

    def sampled_after(result, out0, samples, *args, **kwargs) -> None:
        count["engine.sampled_selection_counts.draws"] += samples

    def sweep_after(result, *args, **kwargs) -> None:
        count["analysis.sweep_graphs.graphs"] += len(result.deltas)

    def impartial_after(result, *args, **kwargs) -> None:
        count["analysis.check_impartial.lookups"] += (
            result.graphs_checked + result.deviations_checked)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "_cmd_eval", lambda args: "cli.eval." + (
        "exact" if args.samples is None else "sampled"))
    tracer.wrap(analysis, "ratio", "analysis.ratio")
    tracer.wrap(analysis, "sweep_graphs", "analysis.sweep_graphs", sweep_after)
    tracer.wrap(analysis, "check_impartial", "analysis.check_impartial", impartial_after)
    tracer.wrap(analysis, "verify_upper_bound_chain", "analysis.verify_upper_bound_chain")
    tracer.wrap(analysis, "tightness_scan", "analysis.tightness_scan")
    tracer.wrap(mechanisms.Mechanism, "exact",
                lambda self, g, *a, **k: f"mechanisms.exact.{self.name}.n{g.n}")
    tracer.wrap(mechanisms.Mechanism, "sample",
                lambda self, g, *a, **k: f"mechanisms.sample.{self.name}.n{g.n}")
    tracer.wrap(engine, "permutation_table", table_name)
    for kernel in ("selection_counts", "runner_up_gap_quarter_counts"):
        tracer.wrap(engine, kernel, f"engine.{kernel}", kernel_counter(f"engine.{kernel}"))
    tracer.wrap(engine, "run_selection", "engine.run_selection")
    tracer.wrap(engine, "left_indegree_matrix", "engine.left_indegree_matrix")
    tracer.wrap(engine, "sampled_selection_counts", "engine.sampled_selection_counts",
                sampled_after)
    for method in ("permutation", "categorical", "unit_fraction"):
        tracer.wrap(rng.SeedStream, method, f"rng.SeedStream.{method}")
    for cls in (graphs.NominationGraph, graphs.PartialNominationGraph):
        tracer.wrap(cls, "indegree_from", "graphs.indegree_from")
        tracer.wrap(cls, "relabel", "graphs.relabel")
    tracer.wrap(graphs.SelectionDistribution, "__post_init__", "graphs.SelectionDistribution")


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(k, len(sorted_values) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metrics of one traced pass, and per-span-name totals.

    A layer the workload never reaches reads 0.
    """
    spans = tracer.spans()
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_sum: dict[str, float] = defaultdict(float)
    scope = [-1] * len(spans)
    exact_in_scope: dict[str, int] = defaultdict(int)
    for i, (name, start, end, parent) in enumerate(spans):
        durations[name].append(end - start)
        self_sum[name] += selfs[i]
        scope[i] = i if name in _SCOPES else (scope[parent] if parent >= 0 else -1)
        if name.startswith("mechanisms.exact.") and scope[i] >= 0:
            exact_in_scope[spans[scope[i]][0]] += 1

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    c = tracer.counters
    m: dict[str, float] = {}
    m["cli.main.self_s"] = self_sum.get("cli.main", 0.0)
    m["cli.eval.exact_calls_per_cmd"] = _ratio(exact_in_scope["cli.eval.exact"],
                                               calls("cli.eval.exact"))
    sweep_s = total("analysis.sweep_graphs")
    graphs = c["analysis.sweep_graphs.graphs"]
    m["analysis.sweep_graphs.s"] = sweep_s
    m["analysis.sweep_graphs.graphs"] = graphs
    m["analysis.sweep_graphs.graphs_per_s"] = _ratio(graphs, sweep_s)
    exact_calls = exact_in_scope["analysis.check_impartial"]
    m["analysis.check_impartial.s"] = total("analysis.check_impartial")
    m["analysis.check_impartial.exact_calls"] = exact_calls
    lookups = c["analysis.check_impartial.lookups"]
    m["analysis.check_impartial.cache_hit_ratio"] = (
        1 - exact_calls / lookups if lookups else 0.0)
    m["analysis.verify_upper_bound_chain.s"] = total("analysis.verify_upper_bound_chain")
    m["analysis.verify_upper_bound_chain.exact_calls"] = (
        exact_in_scope["analysis.verify_upper_bound_chain"])
    m["analysis.tightness_scan.s"] = total("analysis.tightness_scan")

    for mech, n in EXACT_POINTS:
        name = f"mechanisms.exact.{mech}.n{n}"
        d = sorted(durations.get(name, ()))
        m[name + ".calls"] = len(d)
        m[name + ".s"] = sum(d)
        m[name + ".p50_ms"] = 1e3 * _quantile(d, 0.50)
        m[name + ".p99_ms"] = 1e3 * _quantile(d, 0.99)
    for mech, n in SAMPLE_POINTS:
        name = f"mechanisms.sample.{mech}.n{n}"
        d = sorted(durations.get(name, ()))
        m[name + ".calls"] = len(d)
        m[name + ".p50_us"] = 1e6 * _quantile(d, 0.50)
        m[name + ".p99_us"] = 1e6 * _quantile(d, 0.99)

    builds = "engine.permutation_table.build"
    m["engine.permutation_table.calls"] = calls("engine.permutation_table") + calls(builds)
    m["engine.permutation_table.builds"] = calls(builds)
    m["engine.permutation_table.build_s"] = total(builds)
    for kernel in ("engine.selection_counts", "engine.runner_up_gap_quarter_counts"):
        s, orderings = total(kernel), c[kernel + ".orderings"]
        m[kernel + ".calls"] = calls(kernel)
        m[kernel + ".s"] = s
        m[kernel + ".orderings"] = orderings
        m[kernel + ".orderings_per_s"] = _ratio(orderings, s)
        m[kernel + ".computed_mb"] = c[kernel + ".computed_bytes"] / 1e6
    m["engine.run_selection.s"] = total("engine.run_selection")
    m["engine.left_indegree_matrix.s"] = total("engine.left_indegree_matrix")
    sampled = "engine.sampled_selection_counts"
    m[sampled + ".calls"] = calls(sampled)
    m[sampled + ".s"] = total(sampled)
    m[sampled + ".draws_per_s"] = _ratio(c[sampled + ".draws"], total(sampled))
    for method in ("permutation", "categorical", "unit_fraction"):
        name = f"rng.SeedStream.{method}"
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = total(name)
    for name in ("graphs.indegree_from", "graphs.SelectionDistribution"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = total(name)
    m["graphs.relabel.calls"] = calls("graphs.relabel")

    per_name = {name: {"calls": len(d), "total_s": sum(d), "self_s": self_sum[name]}
                for name, d in sorted(durations.items())}
    return m, per_name


def frontier_metric_names() -> Iterable[str]:
    return (f"mechanisms.exact.{mech}.frontier_n" for mech in FRONTIER_MECHS)
