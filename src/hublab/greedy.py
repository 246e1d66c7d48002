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
from .labeling import Labeling, _from_hub_lists


class GreedyError(RuntimeError):
    """Pairs are left uncovered although every pair has a covering center."""


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

    def evaluate(v):
        """Best (density, group, covered pair ids) for center v via peeling."""
        ids = array(typecode, [p for p in coverable[v] if p in uncovered])
        coverable[v] = ids
        if not ids:
            return None
        inc: dict = {}  # vertex -> ids of its incident pairs
        for p in ids:
            i, j = divmod(p, n)
            inc.setdefault(i, []).append(p)
            if j != i:
                inc.setdefault(j, []).append(p)
        deg = {u: len(ps) for u, ps in inc.items()}
        heap = sorted((du, u) for u, du in deg.items())
        alive = set(deg)
        dead = set()  # ids of pairs with a removed endpoint
        m = len(ids)
        # Densest prefix of the peeling, as (pairs, vertices, removals before
        # it). Each removal leaves one vertex fewer, so (-density, size)
        # orders the prefixes strictly: on equal density the later one wins.
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
    final = _from_hub_lists([sorted(hs) for hs in labels], dist, g.fingerprint())
    return GreedyRun(labeling=final, steps=steps)
