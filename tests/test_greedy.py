import heapq
import math
import tracemalloc
from array import array
from dataclasses import astuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.bounds import build_dual_lp, build_primal_lp_graph
from hublab.graph import Graph, bfs_distances, hypercube
from hublab.greedy import GreedyError, GreedyStep, coverage_progress, greedy_hl, greedy_run
from hublab.labeling import _from_hub_lists, total_size, verify_cover
from hublab.lp import solve

from conftest import random_connected_graph


def test_single_vertex():
    run = greedy_run(Graph(1, []))
    assert total_size(run.labeling) == 1
    assert coverage_progress(run) == [(1, 0, 1)]


def test_path3(path3):
    lab = greedy_hl(path3)
    assert verify_cover(path3, lab).valid
    assert total_size(lab) <= 5


def test_hypercube2_size_window():
    g = hypercube(2)
    lab = greedy_hl(g)
    assert verify_cover(g, lab).valid
    # lower bound ceil(max_k N_k y*_k) = 6; upper bound subset HHL size 9;
    # the certified brute-force optimum for this graph is 9
    assert 6 <= total_size(lab) <= 9
    assert total_size(lab) == 9


def test_progress_monotone():
    g = hypercube(3)
    run = greedy_run(g)
    prog = coverage_progress(run)
    uncovered = [u for _, u, _ in prog]
    assert all(a > b for a, b in zip(uncovered, uncovered[1:]))
    assert prog[-1][1] == 0
    n = g.n
    first_covered = run.steps[0].covered
    assert prog[0][1] == n * (n + 1) // 2 - first_covered


def test_determinism():
    g = random_connected_graph(20, 15, seed=5)
    assert greedy_hl(g) == greedy_hl(g)


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        greedy_hl(Graph(3, [(0, 1)]))


@pytest.mark.parametrize("seed", range(6))
def test_valid_on_random_graphs(seed):
    g = random_connected_graph(10 + 7 * seed, 3 * seed + 2, seed=seed)
    lab = greedy_hl(g)
    assert verify_cover(g, lab).valid


@pytest.mark.parametrize("d", range(5))
def test_valid_on_hypercubes(d):
    g = hypercube(d)
    lab = greedy_hl(g)
    assert verify_cover(g, lab).valid


def test_greedy_at_least_lp_lower_bound():
    for d in (1, 2):
        g = hypercube(d)
        lopt = solve(build_dual_lp(d)).value
        size = total_size(greedy_hl(g))
        assert size >= math.ceil(lopt)


def test_greedy_within_log_factor_of_lopt(path3):
    for g in (path3, hypercube(1), hypercube(2)):
        if g.n <= 4:
            lopt = solve(build_primal_lp_graph(g)).value
        else:
            continue
        size = total_size(greedy_hl(g))
        pairs = g.n * (g.n + 1) / 2
        assert size <= (1 + math.log(pairs)) * lopt


def test_fixture_graphs(star5, cycle6):
    for g in (star5, cycle6):
        lab = greedy_hl(g)
        assert verify_cover(g, lab).valid


def test_self_pairs_force_self_hubs():
    g = hypercube(2)
    lab = greedy_hl(g)
    for v in range(g.n):
        assert (v, 0) in lab.labels[v]


def greedy_by_definition(g: Graph):
    """Reference: the greedy construction on sets, dicts and tuple heaps, with
    each center's coverable pairs found by the distance test over all
    triples. Returns (steps, labeling, center evaluations)."""
    n = g.n
    dist = [bfs_distances(g, s) for s in range(n)]

    def pid(i, j):
        return i * n + j

    uncovered = set()
    for i in range(n):
        for j in range(i, n):
            uncovered.add(pid(i, j))
    typecode = "i" if n * n < 1 << 31 else "q"
    coverable = []
    for v in range(n):
        dv = dist[v]
        ids = array(typecode)
        for i in range(n):
            dvi = dv[i]
            di = dist[i]
            for j in range(i, n):
                if dvi + dv[j] == di[j]:
                    ids.append(pid(i, j))
        coverable.append(ids)

    labels: list[set] = [set() for _ in range(n)]
    size = 0
    steps: list[GreedyStep] = []
    evaluations = 0

    def evaluate(v):
        nonlocal evaluations
        evaluations += 1
        ids = array(typecode, [p for p in coverable[v] if p in uncovered])
        coverable[v] = ids
        if not ids:
            return None
        inc: dict = {}
        for p in ids:
            i, j = divmod(p, n)
            inc.setdefault(i, []).append(p)
            if j != i:
                inc.setdefault(j, []).append(p)
        deg = {u: len(ps) for u, ps in inc.items()}
        heap = sorted((du, u) for u, du in deg.items())
        alive = set(deg)
        dead = set()
        m = len(ids)
        best_m, best_k, cut = m, len(alive), 0
        removal_seq = []
        while True:
            while True:
                du, u = heapq.heappop(heap)
                if u in alive and deg[u] == du:
                    break
            alive.discard(u)
            removal_seq.append(u)
            for p in inc[u]:
                if p not in dead:
                    dead.add(p)
                    m -= 1
                    i, j = divmod(p, n)
                    w = j if i == u else i
                    if w != u:
                        deg[w] -= 1
                        heapq.heappush(heap, (deg[w], w))
            if not alive:
                break
            if m * best_k >= best_m * len(alive):
                best_m, best_k, cut = m, len(alive), len(removal_seq)
        removed = set(removal_seq[:cut])
        members = tuple(sorted(u for u in deg if u not in removed))
        covered = array(typecode, [
            p for p in ids if p // n not in removed and p % n not in removed
        ])
        return Fraction(best_m, best_k), members, covered

    heap = []
    for v in range(n):
        res = evaluate(v)
        if res is not None:
            heapq.heappush(heap, (-res[0], v, res))
    iteration = 0
    epoch = 0
    fresh = {v: epoch for v in range(n)}
    while uncovered:
        entry = None
        while heap:
            negd, v, res = heapq.heappop(heap)
            if fresh[v] == epoch:
                entry = (v, res)
                break
            res = evaluate(v)
            fresh[v] = epoch
            if res is not None:
                heapq.heappush(heap, (-res[0], v, res))
        if entry is None:
            raise GreedyError(
                f"{len(uncovered)} pairs remain uncovered, but no center covers any"
            )
        v, (dens, group, covered) = entry
        newly = 0
        for key in covered:
            if key in uncovered:
                uncovered.discard(key)
                newly += 1
        for u in group:
            if v not in labels[u]:
                labels[u].add(v)
                size += 1
        epoch += 1
        res = evaluate(v)
        fresh[v] = epoch
        if res is not None:
            heapq.heappush(heap, (-res[0], v, res))
        iteration += 1
        steps.append(GreedyStep(iteration, v, group, newly, len(uncovered), size))
    final = _from_hub_lists([sorted(hs) for hs in labels], dist, g.fingerprint())
    return steps, final, evaluations


def assert_run_is_by_definition(g):
    run = greedy_run(g)
    steps, lab, evaluations = greedy_by_definition(g)
    assert [astuple(s) for s in run.steps] == [astuple(s) for s in steps]
    assert run.labeling == lab and run.labeling.fingerprint == lab.fingerprint
    assert run.evaluations == evaluations


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 40), st.integers(0, 60), st.integers(0, 10_000))
def test_run_equals_definition_on_random_graphs(n, extra, seed):
    assert_run_is_by_definition(random_connected_graph(n, extra, seed))


@pytest.mark.parametrize("d", range(1, 7))
def test_run_equals_definition_on_hypercubes(d):
    assert_run_is_by_definition(hypercube(d))


@pytest.mark.parametrize("d, size", [(1, 3), (2, 9), (3, 26), (4, 76), (5, 228), (6, 643),
                                     (7, 1888)])
def test_golden_sizes_on_hypercubes(d, size):
    assert total_size(greedy_hl(hypercube(d))) == size


def test_evaluation_count_is_pinned():
    # every center once, then each stale entry popped before a current one,
    # and the used center after each round
    run = greedy_run(hypercube(6))
    assert (len(run.steps), run.evaluations) == (80, 811)


def test_peak_memory_on_200_vertices():
    # uncovered pairs as byte flags and peeling over per-vertex lists keep
    # the traced peak near 1.6 MiB; a set of pair ids, per-pair dict
    # entries and a covered-pair array cached per center took about 5 MiB
    g = random_connected_graph(200, 100, seed=0)
    tracemalloc.start()
    try:
        greedy_run(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak
