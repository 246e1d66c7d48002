"""Brute-force ground truth at toy scale.

`brute_optimal_hl` certifies the exact minimum hub labeling size of a graph
with at most 6 vertices by branch and bound over hub-membership decisions.
`brute_optimal_hhl_hypercube` certifies the minimum hierarchical labeling
size of a tiny hypercube by enumerating all vertex orders and taking the
canonical labeling of each (canonical labelings are minimal for their
order, so the search over orders covers all hierarchical optima).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial
from typing import Optional

from .budget import BITS, check
from .constructions import VertexOrder, canonical_labeling
from .graph import Graph, PathSystem, SubcubeDescriptor, check_dimension
from .labeling import Labeling, _from_hub_lists, total_size


@dataclass
class OracleResult:
    size: int
    labeling: Optional[Labeling]
    nodes_explored: int


def brute_optimal_hl(g: Graph) -> OracleResult:
    """Exact minimum labeling size by branch and bound.

    State is the set of chosen (hub, vertex) memberships; branching picks
    the uncovered pair with the fewest on-path hub options and tries each
    option, cheapest membership increment first. The incumbent starts from
    the greedy labeling, so the search only has to certify optimality.
    Every pair counts, the self-pairs (v, v) included.
    """
    n = g.n
    check(f"brute_optimal_hl(n={n})", n, "branch-and-bound vertices")
    if n == 0:
        return OracleResult(0, Labeling([], fingerprint=g.fingerprint()), 0)
    paths = PathSystem(g)
    centers = [[] for _ in range(n * n)]  # pair id -> the centers on its shortest paths
    for v in range(n):
        for p in paths.pairs_through(v):
            centers[p].append(v)
    # ((i, j), centers) of the pairs i <= j: the ids that have a center
    pairs = [(divmod(p, n), opts) for p, opts in enumerate(centers) if opts]
    # fail-first: branch on pairs with the fewest covering options
    pairs.sort(key=lambda pr: (len(pr[1]), pr[0]))

    from .greedy import greedy_hl

    seed = greedy_hl(g)
    incumbent_size = total_size(seed)
    incumbent = {(h, v) for v in range(n) for h, _ in seed.labels[v]}

    chosen: set = set()
    nodes = 0

    def lower_bound(idx: int, cost: int) -> int:
        # each remaining uncovered self-pair forces its own membership
        extra = 0
        for (i, j), _ in pairs[idx:]:
            if i == j and (i, i) not in chosen:
                extra += 1
        return cost + extra

    def covered(pair: tuple, opts: list) -> bool:
        i, j = pair
        return any((v, i) in chosen and (v, j) in chosen for v in opts)

    def search(idx: int, cost: int) -> None:
        nonlocal nodes, incumbent_size, incumbent
        nodes += 1
        while idx < len(pairs) and covered(*pairs[idx]):
            idx += 1
        if idx == len(pairs):
            if cost < incumbent_size:
                incumbent_size = cost
                incumbent = set(chosen)
            return
        if lower_bound(idx, cost) >= incumbent_size:
            return
        (i, j), opts = pairs[idx]
        branches = []
        for v in opts:
            add = [(v, i), (v, j)] if i != j else [(v, i)]
            add = [a for a in add if a not in chosen]
            branches.append((len(add), v, add))
        branches.sort()
        for inc, _, add in branches:
            for a in add:
                chosen.add(a)
            search(idx + 1, cost + inc)
            for a in add:
                chosen.discard(a)

    search(0, 0)
    witness = _from_hub_lists(
        [sorted(h for h, w in incumbent if w == v) for v in range(n)],
        list(map(paths.row, range(n))),
        g.fingerprint(),
    )
    return OracleResult(size=incumbent_size, labeling=witness, nodes_explored=nodes)


def brute_optimal_hhl_hypercube(d: int) -> OracleResult:
    """Minimum canonical-labeling size over all vertex orders of the
    d-dimensional hypercube: (2^d)! orders, each checking the 6^d members
    of its vertex pairs' subcubes."""
    check_dimension(d)
    steps = factorial(min(1 << min(d, BITS), BITS)) * 6 ** min(d, BITS)
    check(f"brute_optimal_hhl_hypercube(d={d})", steps, "search steps")
    n = 1 << d
    # members of the subcube through 0 with each free mask; v ^ s runs over
    # the subcube v and w span
    members = {free: list(SubcubeDescriptor(0, free).members()) for free in range(n)}
    best_size = None
    best_order = None
    explored = 0
    for perm in permutations(range(n)):
        explored += 1
        rank = [0] * n
        for r, v in enumerate(perm, start=1):
            rank[v] = r
        size = 0
        for v in range(n):
            for w in range(n):
                free = v ^ w
                rw = rank[w]
                if all(rank[v ^ s] <= rw for s in members[free]):
                    size += 1
        if best_size is None or size < best_size:
            best_size = size
            best_order = perm
    witness = canonical_labeling(d, VertexOrder(list(best_order)))
    return OracleResult(size=best_size, labeling=witness, nodes_explored=explored)
