"""The benchmark's three workloads.

Each workload makes its inputs from the seed when it is created. The
runner then calls `setup()` (timed as set-up), `check_setup` after each
set-up, `round(state, lat)` for each timed round, and `check` once after
the last round. Every round does the same operations; each batch of
queries runs inside `lat.batch(kind, ...)`, whose series collect each
query's time in ns by kind of labeling. Checks compare the program's
outputs with `refcheck`, which shares no code with hublab; every checked
build, verify, query, bound or oracle result is one operation.

Workloads call hublab through module attributes (`labeling.query`, not
`query`) so that the traced run's probes see the calls.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import re
import time
from array import array
from bisect import bisect_right

from hublab import bounds, cli, constructions, graph, greedy, labeling, oracle

import refcheck


def run_queries(lab, pairs, lat: array, answers: array) -> None:
    query = labeling.query
    clock = time.perf_counter_ns
    for s, t in pairs:
        t0 = clock()
        r = query(lab, s, t)
        lat.append(clock() - t0)
        answers.append(-1 if r is None else r)


def split(items, parts: int) -> list:
    """`items` cut into `parts` consecutive slices of near-equal length."""
    return [items[len(items) * i // parts:len(items) * (i + 1) // parts] for i in range(parts)]


def check_answers(checker, answers, pairs, dist) -> None:
    for a, (s, t) in zip(answers, pairs):
        checker.op("query", a == dist(s, t), f"query({s}, {t}) = {a}, expected {dist(s, t)}")


def merge_walk(a, b) -> int:
    """Entries that `labeling.query`'s linear merge walks over ascending hub lists a and b.

    The merge stops when one list runs out, which is the one whose last hub
    is smaller (both, when the last hubs are equal). By then it has walked
    all of that list and every hub of the other that is not larger than its
    last hub: i + j at the loop's exit.
    """
    if not a or not b:
        return 0
    if a[-1] > b[-1]:
        a, b = b, a
    return len(a) + bisect_right(b, a[-1])


def hubs_walked(hubs, pairs) -> int:
    """Entries walked by the merges of `pairs`; hubs[v] is v's ascending hub list."""
    return sum(merge_walk(hubs[s], hubs[t]) for s, t in pairs)


def hub_lists(lab) -> list[list[int]]:
    return [[h for h, _ in label] for label in lab.labels]


def labeling_text_lines(lab):
    return labeling.serialize_labeling(lab).splitlines()


class CubePipeline:
    """`gen -> build -> verify -> query` through the label files, at d=12."""

    name = "cube-pipeline"
    D = 12
    CANON_D = 9
    SAMPLE = 100_000
    QUERIES = 20_000
    BUILT = re.compile(r"built (\S+) labeling: size (\d+) -> (\S+)")

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.tracer = tracer
        n = 1 << self.D
        rng = random.Random(seed)
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.QUERIES)]
        def p(name):
            return os.path.join(workdir, name)

        self.graph_file, self.canon_graph_file = p(f"q{self.D}.g"), p(f"q{self.CANON_D}.g")
        self.files = {"subset": p("subset.hl"), "halfsplit": p("halfsplit.hl"),
                      "canonical": p("canonical.hl")}
        self.argvs = [
            ["gen", "hypercube", "--d", str(self.D), "--out", self.graph_file],
            ["build", "--scheme", "subset-hhl", "--graph", self.graph_file,
             "--out", self.files["subset"]],
            ["build", "--scheme", "halfsplit-hl", "--graph", self.graph_file,
             "--out", self.files["halfsplit"]],
            ["gen", "hypercube", "--d", str(self.CANON_D), "--out", self.canon_graph_file],
            ["build", "--scheme", "canonical", "--order", f"random:{seed}",
             "--graph", self.canon_graph_file, "--out", self.files["canonical"]],
        ]

    def setup(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [cli.main(argv) for argv in self.argvs]
        return codes, out.getvalue()

    def check_setup(self, state, checker) -> None:
        codes, text = state
        sizes = {scheme: int(size) for scheme, size, _ in self.BUILT.findall(text)}
        ok = codes == [0] * len(codes)
        expect = {"subset-hhl": refcheck.subset_total(self.D),
                  "halfsplit-hl": refcheck.halfsplit_total(self.D)}
        for scheme, total in expect.items():
            checker.op("build", ok and sizes.get(scheme) == total,
                       f"{scheme}: exit codes {codes}, size {sizes.get(scheme)}, expected {total}")
        with open(self.files["canonical"]) as f:
            total, hubs_of, fault = refcheck.check_label_text(
                f, 1 << self.CANON_D, refcheck.hamming)
        checker.op("build", ok and sizes.get("canonical") == total
                   == refcheck.subset_total(self.CANON_D) and not fault
                   and refcheck.is_acyclic(hubs_of),
                   f"canonical d={self.CANON_D}: size {total}, {fault or 'acyclic check'}")

    def round(self, state, lat):
        # The queries are asked in three parts between the verify steps, so
        # that their latencies sample the whole round, not one moment of it.
        parts = split(self.pairs, 3)
        out = []
        for kind in ("subset", "halfsplit"):
            answers = array("i")

            def ask(part):
                with lat.batch(kind) as (series,), self.tracer.span("labeling.query"):
                    run_queries(lab, part, series, answers)

            g = graph.load_graph(self.graph_file)
            lab = labeling.load_labeling(self.files[kind])
            ask(parts[0])
            report = labeling.verify_cover(g, lab, sample=self.SAMPLE, seed=self.seed)
            ask(parts[1])
            hier = labeling.is_hierarchical(lab)
            size = labeling.total_size(lab)
            ask(parts[2])
            out.append((kind, report.valid, report.pairs_checked, hier, size, answers))
            g = lab = None  # one labeling resident at a time, as in separate verify runs
        return out

    def check(self, state, outputs, checker) -> None:
        expect = {"subset": refcheck.subset_total(self.D),
                  "halfsplit": refcheck.halfsplit_total(self.D)}
        for kind in ("subset", "halfsplit"):
            with open(self.files[kind]) as f:
                total, hubs_of, fault = refcheck.check_label_text(f, 1 << self.D, refcheck.hamming)
            if kind == "subset":
                # hubs that are bit-subsets of their vertex have smaller ids: acyclic
                fault = fault or next((f"hub {h} of {v} is not a bit-subset" for v, hs in
                                       hubs_of.items() for h in hs if h & ~v), "")
            else:
                halfsplit_hubs = hubs_of
            checker.op("build", total == expect[kind] and not fault,
                       f"{kind} file: {total} entries, {fault}")
        for round_out in outputs:
            for kind, valid, pairs, hier, size, answers in round_out:
                if kind == "subset":
                    hier_ok = hier.hierarchical
                else:
                    hier_ok = not hier.hierarchical and refcheck.is_label_cycle(
                        hier.witness, halfsplit_hubs)
                checker.op("verify", valid and pairs == self.SAMPLE and hier_ok
                           and size == expect[kind],
                           f"{kind}: valid={valid} pairs={pairs} size={size} "
                           f"hierarchy={hier.hierarchical} witness={hier.witness}")
                check_answers(checker, answers, self.pairs, refcheck.hamming)

    def hubs_merged(self, state) -> int:
        """Hub entries the queries of a round walk, on the labelings read from the files."""
        total = 0
        for kind in ("subset", "halfsplit"):
            with open(self.files[kind]) as f:
                hubs = {v: [h for h, _ in pairs] for v, pairs in refcheck.read_labels(f)}
            total += hubs_walked(hubs, self.pairs)
        return total


class CubeServe:
    """Closed-loop merge queries alternating between subset and half-split labelings, d=12."""

    name = "cube-serve"
    D = 12
    BATCH = 10_000
    KINDS = ("subset", "halfsplit")

    def __init__(self, seed: int, workdir: str, tracer):
        self.tracer = tracer
        n = 1 << self.D
        rng = random.Random(seed)
        self.pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(self.BATCH)]

    def setup(self):
        return constructions.subset_hhl(self.D), constructions.halfsplit_hl(self.D)

    def check_setup(self, state, checker) -> None:
        for lab, total in zip(state, (refcheck.subset_total(self.D),
                                      refcheck.halfsplit_total(self.D))):
            size = labeling.total_size(lab)
            checker.op("build", size == total, f"size {size}, expected {total}")

    def round(self, state, lat):
        query = labeling.query
        clock = time.perf_counter_ns
        answers = array("i")
        with lat.batch(*self.KINDS) as series, self.tracer.span("labeling.query"):
            for i, (s, t) in enumerate(self.pairs):
                k = i & 1
                t0 = clock()
                r = query(state[k], s, t)
                series[k].append(clock() - t0)
                answers.append(-1 if r is None else r)
        return answers

    def check(self, state, outputs, checker) -> None:
        for answers in outputs:
            check_answers(checker, answers, self.pairs, refcheck.hamming)

    def hubs_merged(self, state) -> int:
        """Hub entries the queries of a round walk."""
        hubs = [hub_lists(lab) for lab in state]
        return sum(hubs_walked(hubs[k], self.pairs[k::2]) for k in range(len(self.KINDS)))


class ExactSmall:
    """Exact bounds, brute-force optima and greedy labelings on small instances."""

    name = "exact-small"
    GREEDY_CUBE_D = 6
    RANDOM_GRAPHS = ((100, 50), (200, 100))  # (vertices, edges beyond a spanning tree)
    BOUND_DS = range(5)
    HHL_D = 3
    HHL_OPT_Q3 = 27
    STEPS = len(BOUND_DS) + 2
    # Each pair is asked this many times in a row: one round's queries then
    # take about 0.8 s, so each batch holds a few speed probes.
    QUERY_REPEATS = 10

    def __init__(self, seed: int, workdir: str, tracer):
        self.tracer = tracer
        rng = random.Random(seed)
        d = self.GREEDY_CUBE_D
        self.greedy_inputs = [(1 << d, refcheck.hypercube_edges(d))] + [
            (n, refcheck.random_connected_edges(n, extra, rng)) for n, extra in self.RANDOM_GRAPHS]
        self.greedy_dist = [refcheck.bfs_rows(n, edges) for n, edges in self.greedy_inputs]
        # Query times are told apart by graph: their labels differ in length,
        # and so their latencies (see `query_p50_us` in README.md).
        self.kinds = [f"greedy/Q{d}"] + [f"greedy/n{n}" for n, _ in self.RANDOM_GRAPHS]
        # A share of the all-pairs queries follows each step of a round, so
        # that their latencies sample the whole round, not one moment of it.
        self.query_parts = [
            [[p for p in part for _ in range(self.QUERY_REPEATS)]
             for part in split([(i, j) for i in range(n) for j in range(i, n)], self.STEPS)]
            for n, _ in self.greedy_inputs]
        self.asked = [[p for part in parts for p in part] for parts in self.query_parts]
        self.small = refcheck.small_graphs()
        self.small_graphs = [graph.Graph(n, edges) for n, edges in self.small.values()]
        self._reference: dict = {}

    def setup(self):
        graphs = [graph.hypercube(self.GREEDY_CUBE_D)]
        with self.tracer.span("graph.gen"):
            graphs += [graph.Graph(n, edges) for n, edges in self.greedy_inputs[1:]]
        return [greedy.greedy_run(g).labeling for g in graphs]

    def check_setup(self, state, checker) -> None:
        for lab, (n, _), dist in zip(state, self.greedy_inputs, self.greedy_dist):
            total, _, fault = refcheck.check_label_text(
                labeling_text_lines(lab), n, lambda v, h: dist[v][h])
            size = labeling.total_size(lab)
            checker.op("build", total == size and not fault,
                       f"greedy n={n}: text holds {total} entries, size {size}; {fault}")

    def round(self, state, lat):
        steps = [lambda d=d: bounds.bound_report(d, with_lp=True, with_oracle=True)
                 for d in self.BOUND_DS]
        steps.append(lambda: oracle.brute_optimal_hhl_hypercube(self.HHL_D))
        steps.append(lambda: [oracle.brute_optimal_hl(g) for g in self.small_graphs])
        answers = [array("i") for _ in state]
        results = []
        for step, part in zip(steps, zip(*self.query_parts)):
            results.append(step())
            with lat.batch(*self.kinds) as series, self.tracer.span("labeling.query"):
                for lab, pairs, times, ans in zip(state, part, series, answers):
                    run_queries(lab, pairs, times, ans)
        *reports, hhl, hl = results
        return reports, hhl, hl, answers

    def reference(self, key, compute):
        """Reference optima are the same in every round; solve each once per run."""
        if key not in self._reference:
            self._reference[key] = compute()
        return self._reference[key]

    def check(self, state, outputs, checker) -> None:
        for reports, hhl, hl, answers in outputs:
            for d, rep in zip(self.BOUND_DS, reports):
                self.check_bounds(checker, d, rep.ropt, rep.lopt, rep.opt, rep.max_psi)
            self.check_oracle(checker, "HHL Q3", hhl, self.HHL_OPT_Q3,
                              1 << self.HHL_D, refcheck.hamming)
            for (name, (n, edges)), res in zip(self.small.items(), hl):
                opt = self.reference(name, lambda: refcheck.min_hub_labeling(n, edges))
                dist = refcheck.bfs_rows(n, edges)
                self.check_oracle(checker, f"HL {name}", res, opt, n, lambda s, t: dist[s][t])
            for ans, pairs, dist in zip(answers, self.asked, self.greedy_dist):
                check_answers(checker, ans, pairs, lambda s, t: dist[s][t])

    def check_bounds(self, checker, d, ropt, lopt, opt, max_psi) -> bool:
        """ROPT against HiGHS, the psi sandwich, LOPT = ROPT and OPT against a MILP."""
        ref = self.reference(("ropt", d), lambda: refcheck.ropt_highs(d))
        psi = refcheck.max_psi(d)
        faults = []
        if ropt is None or abs(ropt - ref) > 1e-6:
            faults.append(f"ROPT {ropt} != HiGHS {ref}")
        elif not psi <= ropt <= (d + 1) * psi:
            faults.append(f"ROPT {ropt} outside [max psi, (d+1) max psi] = [{psi}, {(d + 1) * psi}]")
        if max_psi != psi:
            faults.append(f"max psi {max_psi} != {psi}")
        if d <= 2 or lopt is not None:
            if lopt != ropt:
                faults.append(f"LOPT {lopt} != ROPT {ropt}")
        if d <= 2 or opt is not None:
            ref_opt = self.reference(("opt", d), lambda: refcheck.min_hub_labeling(
                1 << d, refcheck.hypercube_edges(d)))
            if opt != ref_opt:
                faults.append(f"OPT {opt} != MILP {ref_opt}")
        return checker.op("bound", not faults, f"d={d}: " + "; ".join(faults))

    def check_oracle(self, checker, what, res, opt, n, dist) -> bool:
        size = labeling.total_size(res.labeling)
        wrong = [(s, t) for s in range(n) for t in range(s, n)
                 if labeling.query(res.labeling, s, t) != dist(s, t)]
        return checker.op("oracle", res.size == opt == size and not wrong,
                          f"{what}: optimum {res.size}, reference {opt}, witness size {size}, "
                          f"wrong witness queries {wrong[:3]}")

    def hubs_merged(self, state) -> int:
        """Hub entries the queries of a round walk."""
        return sum(hubs_walked(hub_lists(lab), pairs)
                   for lab, pairs in zip(state, self.asked))


WORKLOADS = {w.name: w for w in (CubePipeline, CubeServe, ExactSmall)}
