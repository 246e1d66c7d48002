"""Greedy set-cover style hub labeling for general graphs.

Each round picks a center v and a vertex group S maximizing the ratio of
newly covered pairs (pairs {i,j} within S with v on a shortest i-j path)
to |S|, then adds v to the label of every vertex of S. The inner
max-density problem is solved by peeling: repeatedly drop the vertex with
the fewest incident uncovered pairs and keep the densest intermediate
subgraph (a 2-approximation).

Center re-evaluation is lazy: a center's best achievable density can only
decrease as pairs get covered, so cached densities are valid upper bounds
and a priority queue with stale entries selects the same center as a full
scan would. Tie-breaks (highest density, then lowest center id, then the
peeling order below) make the construction deterministic.
"""
from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graph import Graph, bfs_distances
from .labeling import Labeling


@dataclass
class GreedyStep:
    iteration: int
    center: int
    group: tuple
    covered: int  # pairs newly covered this round
    uncovered_after: int
    size_after: int


@dataclass
class GreedyRun:
    labeling: Labeling
    steps: list


def coverage_progress(run: GreedyRun) -> list[tuple[int, int, int]]:
    """(iteration, uncovered pair count, labeling size so far) per round."""
    return [(s.iteration, s.uncovered_after, s.size_after) for s in run.steps]


def greedy_hl(g: Graph, log=None) -> Labeling:
    return greedy_run(g, log=log).labeling


def greedy_run(g: Graph, log=None) -> GreedyRun:
    """Run the greedy construction; `log` (a stream) gets one line per round."""
    n = g.n
    if n == 0:
        return GreedyRun(Labeling([], fingerprint=g.fingerprint()), [])
    if not g.is_connected():
        raise ValueError("greedy labeling requires a connected graph")
    dist = [bfs_distances(g, s) for s in range(n)]

    # pair ids: p = i * n + j for i <= j; self-pairs included (covered only
    # by their own vertex as center)
    def pid(i, j):
        return i * n + j

    uncovered = set()
    for i in range(n):
        for j in range(i, n):
            uncovered.add(pid(i, j))
    # per-center ids of coverable pairs, pruned as pairs get covered; held as
    # machine integers, since there can be up to about n^3 / 2 of them
    coverable = []
    for v in range(n):
        dv = dist[v]
        ids = array("q")
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

    def evaluate(v):
        """Best (density, group, covered pair ids) for center v via peeling."""
        ids = array("q", [p for p in coverable[v] if p in uncovered])
        coverable[v] = ids
        if not ids:
            return None
        pairs = [divmod(p, n) for p in ids]
        inc: dict = {}
        for i, j in pairs:
            inc.setdefault(i, []).append((i, j))
            if j != i:
                inc.setdefault(j, []).append((i, j))
        verts = sorted(inc)
        deg = {u: len(inc[u]) for u in verts}
        alive = set(verts)
        edge_alive = {p: True for p in pairs}
        m_alive = len(pairs)
        order = []  # peeling order with prefix edge counts
        snapshots = []  # (density, num_alive) before each removal
        removal_seq = []
        heap = [(deg[u], u) for u in verts]
        heapq.heapify(heap)
        while alive:
            snapshots.append((Fraction(m_alive, len(alive)), frozenset(alive)))
            while True:
                du, u = heapq.heappop(heap)
                if u in alive and deg[u] == du:
                    break
            alive.discard(u)
            removal_seq.append(u)
            for p in inc[u]:
                if edge_alive.get(p):
                    edge_alive[p] = False
                    m_alive -= 1
                    a, b = p
                    w = b if a == u else a
                    if w != u and w in alive:
                        deg[w] -= 1
                        heapq.heappush(heap, (deg[w], w))
        # densest intermediate subgraph; ties -> fewer vertices, then
        # lexicographically smallest vertex tuple
        best = None
        for dens, members in snapshots:
            key = (-dens, len(members), tuple(sorted(members)))
            if best is None or key < best[0]:
                best = (key, dens, members)
        _, dens, members = best
        covered = array("q", (
            pid(i, j) for i, j in pairs if i in members and j in members
        ))
        return dens, tuple(sorted(members)), covered

    # lazy-greedy selection: cached densities are upper bounds
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
            raise AssertionError("uncovered pairs remain but no center can cover them")
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
        res = evaluate(v)  # the used center may be picked again later
        fresh[v] = epoch
        if res is not None:
            heapq.heappush(heap, (-res[0], v, res))
        iteration += 1
        steps.append(
            GreedyStep(
                iteration=iteration,
                center=v,
                group=group,
                covered=newly,
                uncovered_after=len(uncovered),
                size_after=size,
            )
        )
        if log is not None:
            print(
                f"iter {iteration}: center {v} group of {len(group)} "
                f"density {dens} covered {newly} uncovered {len(uncovered)} size {size}",
                file=log,
            )
    final = Labeling(
        [sorted((h, dist[u][h]) for h in labels[u]) for u in range(n)],
        fingerprint=g.fingerprint(),
    )
    return GreedyRun(labeling=final, steps=steps)
