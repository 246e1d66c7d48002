"""Greedy set-cover style hub labeling for general graphs.

Each round picks a center v and a vertex group S maximizing the ratio of
newly covered pairs (pairs {i,j} within S with v on a shortest i-j path)
to |S|, then adds v to the label of every vertex of S. The inner
max-density problem is solved by peeling: repeatedly drop the vertex with
the fewest incident uncovered pairs and keep the densest intermediate
subgraph (a 2-approximation).

Center re-evaluation is lazy: each center is evaluated once, then each
round pops the highest cached density and re-evaluates (and pushes back)
any center last evaluated before the previous round's covering, until the
top entry is current. The peeling value is not monotone as pairs get
covered (a center may come back denser), so the lazy selection can differ
from a full scan of all centers; the lazy schedule is the specified one.
Tie-breaks (highest density, then lowest center id, then the peeling order
below) make the construction deterministic.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from operator import add, and_

from .budget import check
from .graph import Graph, PathSystem
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
    evaluations: int = 0  # center evaluations, those finding no pair included


def coverage_progress(run: GreedyRun) -> list[tuple[int, int, int]]:
    """(iteration, uncovered pair count, labeling size so far) per round."""
    return [(s.iteration, s.uncovered_after, s.size_after) for s in run.steps]


def greedy_hl(g: Graph, log=None) -> Labeling:
    return greedy_run(g, log=log).labeling


def greedy_run(g: Graph, log=None) -> GreedyRun:
    """Run the greedy construction; `log` (a stream) gets one line per round."""
    n = g.n
    # each center keeps the ids of up to n(n+1)/2 pairs as machine integers
    typecode = "i" if n * n < 1 << 31 else "q"
    check(f"greedy_run(n={n})", n * n * (n + 1) // 2 * array(typecode).itemsize, "store bytes")
    if n == 0:
        return GreedyRun(Labeling([], fingerprint=g.fingerprint()), [])
    paths = PathSystem(g)
    # pair ids p = i * n + j, i <= j, as in `PathSystem`; a self-pair is
    # covered only by its own vertex as center; uncovered[p] flags the pairs left
    uncovered = bytearray([1]) * (n * n)
    left = n * (n + 1) // 2
    # per-center ids of coverable pairs, ascending, pruned as pairs get covered
    coverable = [array(typecode, paths.pairs_through(v)) for v in range(n)]

    labels: list[set] = [set() for _ in range(n)]
    size = 0
    steps: list[GreedyStep] = []
    evaluations = 0

    def evaluate(v):
        """Best (density, group) for center v via peeling."""
        nonlocal evaluations
        evaluations += 1
        ids = coverable[v]
        ids = coverable[v] = array(typecode, compress(ids, map(uncovered.__getitem__, ids)))
        if not ids:
            return None
        inc = [[] for _ in range(n)]  # vertex -> other ends of its pairs
        for i, j in zip(map(n.__rfloordiv__, ids), map(n.__rmod__, ids)):
            inc[i].append(j)
            if j != i:
                inc[j].append(i)
        deg = list(map(len, inc))
        # key[u] = deg(u) * n + u orders the vertices as (deg, u) does; a heap
        # entry is current iff it equals key[u], which is -1 once u is removed
        key = list(map(add, map(n.__mul__, deg), range(n)))
        heap = sorted(compress(key, deg))
        m, k = len(ids), len(heap)
        # Densest prefix of the peeling, as (pairs, vertices, removals before
        # it). Each removal leaves one vertex fewer, so (-density, size)
        # orders the prefixes strictly: on equal density the later one wins.
        best_m, best_k, cut = m, k, 0
        removal_seq = []
        while True:
            while True:
                ku = heappop(heap)
                u = ku % n
                if key[u] == ku:
                    break
            key[u] = -1
            m -= ku // n  # deg(u): its pairs with live ends, and its self-pair
            removal_seq.append(u)
            for w in inc[u]:
                kw = key[w]
                if kw >= 0:
                    key[w] = kw = kw - n
                    heappush(heap, kw)
            k -= 1
            if not k:
                break
            if m * best_k >= best_m * k:
                best_m, best_k, cut = m, k, len(removal_seq)
        # the peeling removes every vertex: the group is what the cut left
        return Fraction(best_m, best_k), tuple(sorted(removal_seq[cut:]))

    # lazy-greedy selection (see the module docstring)
    heap = []
    for v in range(n):
        res = evaluate(v)
        if res is not None:
            heappush(heap, (-res[0], v, res))
    iteration = 0
    epoch = 0
    fresh = [epoch] * n
    while left:
        entry = None
        while heap:
            negd, v, res = heappop(heap)
            if fresh[v] == epoch:
                entry = (v, res)
                break
            res = evaluate(v)
            fresh[v] = epoch
            if res is not None:
                heappush(heap, (-res[0], v, res))
        if entry is None:
            raise GreedyError(f"{left} pairs remain uncovered, but no center covers any")
        v, (dens, group) = entry
        inside = bytearray(n)
        for u in group:
            inside[u] = 1
            if v not in labels[u]:
                labels[u].add(v)
                size += 1
        # v's pairs within the group; v was evaluated after the last round's
        # covering, so all of its pairs are uncovered
        ids = coverable[v]
        first, second = map(n.__rfloordiv__, ids), map(n.__rmod__, ids)
        within = map(and_, map(inside.__getitem__, first), map(inside.__getitem__, second))
        newly = 0
        for p in compress(ids, within):
            uncovered[p] = 0
            newly += 1
        left -= newly
        epoch += 1
        res = evaluate(v)  # the used center may be picked again later
        fresh[v] = epoch
        if res is not None:
            heappush(heap, (-res[0], v, res))
        iteration += 1
        steps.append(GreedyStep(iteration=iteration, center=v, group=group, covered=newly,
                                uncovered_after=left, size_after=size))
        if log is not None:
            print(
                f"iter {iteration}: center {v} group of {len(group)} "
                f"density {dens} covered {newly} uncovered {left} size {size}",
                file=log,
            )
    final = _from_hub_lists(
        [sorted(hs) for hs in labels], list(map(paths.row, range(n))), g.fingerprint()
    )
    return GreedyRun(labeling=final, steps=steps, evaluations=evaluations)
