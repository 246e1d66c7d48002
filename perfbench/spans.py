"""Spans for the traced run, recorded around calls into hublab's public functions.

`Tracer.start` replaces each probed function, in every hublab module that
holds a reference to it, with a wrapper that records a span
(name, phase, start, end, parent). That catches the calls the CLI and
`bound_report` make as well as the benchmark's own. `Tracer.stop` puts the
originals back. Spans stay in memory until the run writes them out.

A span's self time is its duration minus that of its child spans. A span
name is the layer's metric name without the `_s` suffix, so `graph.gen`
self time is reported as `graph.gen_s`. Counters are recorded by the
wrappers after the call returns, inside a `trace.bookkeeping` span, so
their cost is no layer's self time.
"""
from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

BOOKKEEPING = "trace.bookkeeping"

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE / (1 << 20)


class Tracer:
    """Records spans and counters while started; does nothing otherwise."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[list] = []  # [name, phase, start, end, parent index or -1]
        self.counters: dict[tuple[str, str], float] = {}  # (phase, key) -> value
        self.highs: set[str] = set()  # counter keys that keep their highest value
        self.phase = ""
        self.active = False
        self._stack: list[int] = []
        self._probes = []  # (function, span name, after)
        self._saved = []  # (module, attribute, original)

    def probe(self, module, attr, name, after=None):
        """Record `module.attr` calls as spans named `name` once started.

        `after(tracer, result, *args, **kwargs)` runs when the call returns.
        """
        self._probes.append((getattr(module, attr), name, after))

    def start(self, phase: str) -> None:
        self.phase = phase
        self.active = True
        for fn, name, after in self._probes:
            wrapper = self._wrap(fn, name, after)
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def stop(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        self.active = False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def add(self, key: str, value: float) -> None:
        k = (self.phase, key)
        self.counters[k] = self.counters.get(k, 0) + value

    def high(self, key: str, value: float) -> None:
        self.highs.add(key)
        k = (self.phase, key)
        self.counters[k] = max(self.counters.get(k, value), value)

    def _wrap(self, fn, name, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(self, result, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = {}
        for i, (name, phase, start, end, _) in enumerate(self.spans):
            out[(phase, name)] = out.get((phase, name), 0.0) + (end - start) - child[i]
        return out

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f)
            f.write("\n")


def hublab_tracer() -> Tracer:
    """A tracer that probes the public functions of each hublab layer."""
    import hublab
    from hublab import bounds, cli, constructions, graph, greedy, labeling, lp, oracle

    tracer = Tracer([hublab, bounds, cli, constructions, graph, greedy, labeling, lp, oracle])

    def entries(t, lab, *args, **kwargs):
        t.add("constructions.entries", labeling.total_size(lab))

    def file_mb(t, _result, lab, path):
        t.add("labeling.file_mb", os.path.getsize(path) / (1 << 20))

    def verify_after(t, report, *args, **kwargs):
        t.add("labeling.verify_pairs", report.pairs_checked)
        t.high("labeling.verify_rss_mb", current_rss_mb())

    def greedy_after(t, run, *args, **kwargs):
        t.add("greedy.rounds", len(run.steps))
        t.add("greedy.size", labeling.total_size(run.labeling))

    def lp_after(t, _solution, program, *args, **kwargs):
        t.add("lp.solves", 1)
        t.add("lp.rows", program.num_rows)
        t.add("lp.cols", program.num_vars)

    def nodes(key):
        def after(t, res, *args, **kwargs):
            t.add(key, res.nodes_explored)
        return after

    for attr in ("hypercube", "serialize_graph"):
        tracer.probe(graph, attr, "graph.gen")
    for attr in ("load_graph", "parse_graph"):
        tracer.probe(graph, attr, "graph.load")
    tracer.probe(constructions, "subset_hhl", "constructions.subset_hhl", entries)
    tracer.probe(constructions, "halfsplit_hl", "constructions.halfsplit_hl", entries)
    tracer.probe(constructions, "canonical_labeling", "constructions.canonical", entries)
    tracer.probe(labeling, "save_labeling", "labeling.save", file_mb)
    tracer.probe(labeling, "serialize_labeling", "labeling.save")
    for attr in ("load_labeling", "parse_labeling"):
        tracer.probe(labeling, attr, "labeling.load")
    tracer.probe(labeling, "verify_cover", "labeling.verify", verify_after)
    tracer.probe(labeling, "is_hierarchical", "labeling.hierarchy")
    tracer.probe(greedy, "greedy_run", "greedy.run", greedy_after)
    tracer.probe(bounds, "bound_report", "bounds.report")
    for attr in ("build_regular_lp", "build_dual_lp", "build_primal_lp"):
        tracer.probe(bounds, attr, "bounds.build_lp")
    tracer.probe(lp, "solve", "lp.solve", lp_after)
    tracer.probe(oracle, "brute_optimal_hl", "oracle.hl", nodes("oracle.hl_nodes"))
    tracer.probe(oracle, "brute_optimal_hhl_hypercube", "oracle.hhl", nodes("oracle.hhl_orders"))
    tracer.probe(cli, "main", "cli.self")
    return tracer
