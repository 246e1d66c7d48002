"""Hypercube hub-labeling bound machinery.

Exact-rational tables of pair counts N_k, per-distance dual weights y*_k,
psi(k) = N_k * y*_k, the disjoint-pair graphs behind them, LP builders for
the covering primal, the path-packing dual, and the distance-symmetric
("regular") LP, whose optimum ROPT is found by row generation with an exact
min-cut separation, plus log-space asymptotics that recover the 2.5 growth
constant. Floats appear only in the log-space helpers; everything else is
fractions.Fraction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Optional

from .budget import BITS, LIMITS, check, fits
from .graph import Graph, PathSystem, check_dimension, hypercube, popcount
from .lp import GEQ, LEQ, LPSolution, RationalLP, solve

#: Most pair edges the ROPT separation may cut through; admits d <= 10
#: (29525 pair edges, about 0.7 s), not d = 11 (88574).
MAX_ROPT_PAIR_EDGES = LIMITS["cut pair edges"]


def pair_count(d: int, k: int) -> Fraction:
    """Number of unordered vertex pairs at Hamming distance k.

    Distance 0 counts each vertex paired with itself: N_0 = 2^d. For k >= 1
    the ordered count 2^d * C(d,k) is halved.
    """
    _check_k(d, k)
    if k == 0:
        return Fraction(1 << d)
    return Fraction((1 << d) * comb(d, k), 2)


class BoundCheckError(ValueError):
    """An exact identity or inequality the bounds rest on failed."""


def _check_k(d: int, k: int) -> None:
    check_dimension(d)
    if not 0 <= k <= d:
        raise ValueError(f"k={k} out of range for d={d}")


def component_density(d: int, k: int, i: int) -> Fraction:
    """Density (edges/vertices) of the disjoint-pair component on set sizes
    i and k-i: C(d,i)*C(d-i,k-i) / (C(d,i) + C(d,k-i)).

    The same expression covers both the bipartite (i != k-i) and the
    one-sided regular (i == k/2) component.
    """
    _check_k(d, k)
    if not 0 <= i <= k // 2:
        raise ValueError(f"i={i} out of range for k={k}")
    return Fraction(comb(d, i) * comb(d - i, k - i), comb(d, i) + comb(d, k - i))


def densest_component(d: int, k: int) -> tuple[int, Fraction]:
    """(i*, density) of the densest component; i* = floor(k/2).

    Verified by direct scan over all i. k = 0 is the lone self-pair
    component (one vertex, one loop): density 1.
    """
    _check_k(d, k)
    if k == 0:
        return 0, Fraction(1)
    best_i = k // 2
    best = component_density(d, k, best_i)
    for i in range(k // 2 + 1):
        if component_density(d, k, i) > best:
            raise BoundCheckError(f"d={d}, k={k}: component {i} is denser than the middle one")
    return best_i, best


def y_star(d: int, k: int) -> Fraction:
    """Maximum feasible per-distance dual weight for distance class k.

    1 for k = 0; otherwise the inverse density of the densest disjoint-pair
    component: 2/C(d-i,i) for k = 2i, and
    (C(d,i)+C(d,i+1)) / (C(d,i)*C(d-i,i+1)) for k = 2i+1.
    """
    _check_k(d, k)
    if k == 0:
        return Fraction(1)
    if k % 2 == 0:
        i = k // 2
        return Fraction(2, comb(d - i, i))
    i = k // 2
    return Fraction(comb(d, i) + comb(d, i + 1), comb(d, i) * comb(d - i, i + 1))


def psi(d: int, k: int) -> Fraction:
    """psi(k) = N_k * y*_k; max over k drives the label-size growth rate."""
    return pair_count(d, k) * y_star(d, k)


def psi_argmax(d: int) -> tuple[int, Fraction]:
    """Exact scan over k = 0..d; smallest maximizing k on ties."""
    best_k = 0
    best = psi(d, 0)
    for k in range(1, d + 1):
        p = psi(d, k)
        if p > best:
            best_k, best = k, p
    return best_k, best


def entropy(alpha: float) -> float:
    """Shannon entropy H(alpha) in bits."""
    if alpha in (0.0, 1.0):
        return 0.0
    return -alpha * math.log2(alpha) - (1 - alpha) * math.log2(1 - alpha)


def log2_comb(n: int, m: int) -> float:
    if m < 0 or m > n:
        return -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    ) / math.log(2)


def psi_log2(d: int, k: int) -> float:
    """log2 psi(k) via log-gamma; usable far beyond exact-table scale."""
    _check_k(d, k)
    if k == 0:
        return float(d)
    n_k = d + log2_comb(d, k) - 1.0
    if k % 2 == 0:
        i = k // 2
        ys = 1.0 - log2_comb(d - i, i)
    else:
        i = k // 2
        # C(d,i) + C(d,i+1) = C(d,i) * (1 + (d-i)/(i+1)); stays in log space
        ys = math.log2(1 + Fraction(d - i, i + 1)) - log2_comb(d - i, i + 1)
    return n_k + ys


def psi_argmax_log(d: int) -> tuple[int, float]:
    """Argmax of psi in log space, for dimensions where exact scans are slow."""
    best_k, best = 0, psi_log2(d, 0)
    for k in range(1, d + 1):
        p = psi_log2(d, k)
        if p > best:
            best_k, best = k, p
    return best_k, best


def lemma_manip_check(s: Fraction, t: Fraction, alpha: Fraction, beta: Fraction) -> bool:
    """Predicate alpha*t + s/beta >= t + s for 0 <= s <= t, alpha >= beta >= 1."""
    s, t, alpha, beta = Fraction(s), Fraction(t), Fraction(alpha), Fraction(beta)
    if not (0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    if not (alpha >= beta >= 1):
        raise ValueError("need alpha >= beta >= 1")
    return alpha * t + s / beta >= t + s


def middle_expression(d: int, k: int, x: int) -> Fraction:
    """(C(d,x) + C(d,k-x)) / (C(d,x)*C(d-x,k-x)): inverse component density
    as a function of the split point x."""
    return Fraction(comb(d, x) + comb(d, k - x), comb(d, x) * comb(d - x, k - x))


# --- disjoint-pair graphs and their brute-force densest subgraph ---

def disjoint_pair_edges(d: int, k: int) -> list[tuple[int, int]]:
    """Edges of the distance-k pair graph through the all-zeros vertex:
    {i, j} with i & j == 0 and popcount(i | j) == k. k = 0 gives the single
    self-loop (0, 0)."""
    _check_k(d, k)
    n = 1 << d
    if k == 0:
        return [(0, 0)]
    edges = []
    for i in range(n):
        pi = popcount(i)
        if pi > k:
            continue
        rest = ((n - 1) ^ i)
        # enumerate j disjoint from i with popcount k - pi, j > i for i > 0
        for j in _submasks_of_size(rest, k - pi):
            if i < j:
                edges.append((i, j))
    return edges


def _submasks_of_size(mask: int, size: int):
    bits = [b for b in range(mask.bit_length()) if (mask >> b) & 1]
    if size > len(bits):
        return
    for combo in combinations(bits, size):
        v = 0
        for b in combo:
            v |= 1 << b
        yield v


def brute_densest_subgraph(d: int, k: int) -> Fraction:
    """Max density over all nonempty vertex subsets of the distance-k pair
    graph, by exhaustive enumeration per connected component.

    A self-loop counts as one edge and contributes degree one. Listing the
    edges takes 2^d + C(d,k) * 2^k steps, and enumerating a component C
    2^|C| * |E(C)|; each is budgeted before it starts.
    """
    _check_k(d, k)
    if k == 0:
        return Fraction(1)
    what = f"brute_densest_subgraph(d={d}, k={k})"
    check(what, (1 << d) + (comb(d, k) << k) if d < BITS else 1 << BITS, "search steps")
    edges = disjoint_pair_edges(d, k)
    # split into components of the pair graph
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = set()
    best = Fraction(0)
    for start in sorted(adj):
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp.sort()
        index = {v: i for i, v in enumerate(comp)}
        comp_edges = [
            (index[a], index[b]) for a, b in edges if a in index and b in index
        ]
        check(f"{what} on {len(comp)} vertices", len(comp_edges) << len(comp), "search steps")
        for subset in range(1, 1 << len(comp)):
            cnt = 0
            for a, b in comp_edges:
                if (subset >> a) & 1 and (subset >> b) & 1:
                    cnt += 1
            if cnt:
                dens = Fraction(cnt, subset.bit_count())
                if dens > best:
                    best = dens
    return best


# --- LP builders for the covering primal, packing dual, and regular LP ---

def _packing_rows(n: int, covered: list, num_vars: int) -> list:
    """Rows over vertex sets S of an n-vertex graph, one coefficient per
    variable: for each center's list of (i, j, variable) pairs, the row of S
    counts, per variable, the center's pairs with both ends in S, and its
    right-hand side is |S|.

    Each S is visited once per center; its row is that of S without its
    highest vertex t plus t's pairs inside S. One row is kept per distinct
    nonzero coefficient vector, the one with the smallest |S|: a larger S
    with the same coefficients is implied by it, and a zero row always holds.
    """
    best: dict = {}
    for pairs in covered:
        by_top = [[] for _ in range(n)]  # t -> (bit of the other end, variable)
        for i, j, var in pairs:
            by_top[max(i, j)].append((1 << min(i, j), var))
        row_of = [(0,) * num_vars]
        for S in range(1, 1 << n):
            t = S.bit_length() - 1
            coeffs = list(row_of[S ^ (1 << t)])
            for bit, var in by_top[t]:
                if S & bit:
                    coeffs[var] += 1
            coeffs = tuple(coeffs)
            row_of.append(coeffs)
            size = S.bit_count()
            if best.get(coeffs, size + 1) > size:
                best[coeffs] = size
    return [(list(coeffs), LEQ, size) for coeffs, size in best.items() if any(coeffs)]


def _regular_pairs(d: int, classes) -> list[tuple[int, int, int]]:
    """The pairs (i, j, k) through the all-zeros vertex of Q_d whose distance
    k is in `classes`, in the order of `classes`; k = 0 is the self-pair
    (0, 0, 0)."""
    return [(i, j, k) for k in classes for i, j in disjoint_pair_edges(d, k)]


def build_regular_lp(d: int) -> RationalLP:
    """Distance-symmetric packing LP: maximize sum_k N_k*y_k subject to, for
    every vertex subset S, sum over pairs within S on a shortest path
    through the all-zeros vertex of y_dist <= |S|.

    Materializes all 2^(2^d) subsets, d + 1 cells each, through
    `_packing_rows`, which keeps one row per distinct coefficient vector,
    the one with the smallest |S|.
    """
    check_dimension(d)
    check(f"build_regular_lp(d={d})", (d + 1) << min(1 << min(d, BITS), BITS), "Fraction cells")
    return RationalLP(
        sense="max",
        objective=[pair_count(d, k) for k in range(d + 1)],
        rows=_packing_rows(1 << d, [_regular_pairs(d, range(d + 1))], d + 1),
        var_names=[f"y~{k}" for k in range(d + 1)],
        name=f"regular-lp-d{d}",
    )


def _min_cut(n: int, arcs: list, s: int, t: int) -> tuple[int, list, list]:
    """Maximum s-t flow value over integer-capacity arcs (u, v, cap) on nodes 0..n-1,
    by Dinic's algorithm; the source side of a minimum cut (the nodes the residual graph
    reaches from s) as per-node flags; the residual capacities, arc i's at 2 * i."""
    head, cap, out = [], [], [[] for _ in range(n)]
    for u, v, c in arcs:
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in out[u]:
                if cap[e] and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    queue.append(head[e])
        if level[t] < 0:
            return flow, [lv >= 0 for lv in level], cap
        # blocking flow: depth-first along level-increasing arcs, each node
        # resuming at the first arc it has not yet found useless
        nxt = [0] * n
        path = []
        u = s
        while True:
            if u == t:
                push = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= push
                    cap[e ^ 1] += push
                flow += push
                path.clear()
                u = s
                continue
            arcs_u = out[u]
            while nxt[u] < len(arcs_u):
                e = arcs_u[nxt[u]]
                if cap[e] and level[head[e]] == level[u] + 1:
                    break
                nxt[u] += 1
            else:
                if u == s:
                    break
                e = path.pop()
                u = head[e ^ 1]
                nxt[u] += 1
                continue
            path.append(e)
            u = head[e]


def most_violated_subset(d: int, y: dict) -> tuple[Fraction, int]:
    """The most violated row of the regular LP at weights y (distance k -> y_k):
    the maximum over vertex subsets S of Q_d, the empty set included, of the
    sum of y_dist over pairs within S through the all-zeros vertex minus |S|,
    with a maximizing S as a vertex bitmask.

    A max-weight closure solved by one minimum cut, after Goldberg, "Finding
    a maximum density subgraph" (1984): the source feeds each pair edge its
    weight, a pair edge leads with unbounded capacity to its endpoints (the
    self-pair (0, 0) has one), and each vertex drains 1 into the sink.
    Classes absent from y take no part, so a y without 0 leaves out the
    self-pair. Capacities are the weights times their common denominator,
    so the cut is exact; the residual capacities must give a feasible flow,
    and the closure's own value its bound, which proves the closure maximal.
    """
    for k in y:
        _check_k(d, k)
    return _most_violated(d, _regular_pairs(d, y), y)


def _most_violated(d: int, pairs: list, y: dict) -> tuple[Fraction, int]:
    """`most_violated_subset` over the pairs (i, j, k) of `_regular_pairs`
    whose class k has a positive weight in y; the rest take no part."""
    for k, w in y.items():
        if w < 0:
            raise ValueError(f"negative weight {w} for distance {k}")
    y = {k: Fraction(w) for k, w in y.items() if w}
    scale = lcm(*(w.denominator for w in y.values()))
    weight = {k: int(w * scale) for k, w in y.items()}
    n = 1 << d
    pairs = [(i, j, weight[k]) for i, j, k in pairs if k in weight]
    total = sum(w for _, _, w in pairs)
    # node 0 is the source, 1 the sink, 2 + v vertex v; pair edges follow
    arcs = [(2 + v, 1, scale) for v in range(n)]
    for p, (i, j, w) in enumerate(pairs, start=2 + n):
        arcs.append((0, p, w))
        arcs.extend((p, 2 + v, total + 1) for v in {i, j})
    flow, source_side, residual = _min_cut(2 + n + len(pairs), arcs, 0, 1)
    net = [0] * len(source_side)  # inflow minus outflow per node
    for (u, v, c), r in zip(arcs, residual[::2]):
        if not 0 <= c - r <= c:
            raise BoundCheckError(f"d={d}: arc ({u}, {v}) carries {c - r} of capacity {c}")
        net[u] -= c - r
        net[v] += c - r
    if net[0] != -flow or any(net[2:]):
        raise BoundCheckError(f"d={d}: the cut's flow is not a flow of value {flow}")
    S = sum(1 << v for v in range(n) if source_side[2 + v])
    gain = sum(w for i, j, w in pairs if S >> i & 1 and S >> j & 1) - scale * S.bit_count()
    if gain != total - flow:
        raise BoundCheckError(
            f"d={d}: closure value {gain} differs from the cut bound {total - flow}"
        )
    return Fraction(gain, scale), S


def ropt_pair_edges(d: int) -> int:
    """Pair edges through the all-zeros vertex over every distance, the
    self-pair included: the (3^d - 1) / 2 unordered pairs of distinct
    disjoint subsets of the d coordinates, plus (0, 0). Each min cut of
    `regular_lp_optimum` runs on a network of these and the 2^d vertices."""
    return (3 ** d + 1) // 2


def ropt_fits_budget(d: int) -> bool:
    """Whether `regular_lp_optimum(d)` is within MAX_ROPT_PAIR_EDGES."""
    return d >= 0 and fits(ropt_pair_edges(min(d, BITS)), "cut pair edges")


def regular_lp_optimum(d: int) -> LPSolution:
    """ROPT, the optimum of the regular LP (`build_regular_lp`), by row
    generation.

    Starts from the single row S = V(Q_d), solves the restricted LP and adds
    the most violated subset row until `most_violated_subset` reports no
    violation. That proves the restricted optimum y feasible for all
    2^(2^d) - 1 rows, and the restricted program's certified dual, padded
    with zeros, certifies it optimal for the full one. Returns the final
    restricted solution.
    """
    check_dimension(d)
    check(f"regular_lp_optimum(d={d})", ropt_pair_edges(min(d, BITS)), "cut pair edges")
    ks = range(d + 1)
    pairs = _regular_pairs(d, ks)

    def row(S: int) -> tuple:
        coeffs = [0] * (d + 1)
        for i, j, k in pairs:
            if S >> i & 1 and S >> j & 1:
                coeffs[k] += 1
        return coeffs, LEQ, S.bit_count()

    rows = [row((1 << (1 << d)) - 1)]
    while True:
        sol = solve(RationalLP(
            sense="max",
            objective=[pair_count(d, k) for k in ks],
            rows=rows,
            var_names=[f"y~{k}" for k in ks],
            name=f"regular-lp-d{d}-rows{len(rows)}",
        ))
        violation, S = _most_violated(d, pairs, dict(zip(ks, sol.values)))
        if violation <= 0:
            return sol
        rows.append(row(S))


def _center_pairs(g: Graph) -> list:
    """Per center v, the pairs (i, j, index), i <= j, with v on a shortest
    i-j path, from `PathSystem.pairs_through`; index is the pair's position
    in the ascending order of all n(n+1)/2 pairs."""
    n = g.n
    through = PathSystem(g).pairs_through
    return [
        [(i, j, p - i * (i + 1) // 2) for p in through(v) for i, j in [divmod(p, n)]]
        for v in range(n)
    ]


def build_dual_lp(d: int) -> RationalLP:
    """Path-packing dual: one variable per unordered vertex pair, one
    constraint per (vertex v, subset S): pairs within S with v on a
    shortest path between them carry total weight at most |S|. Visits the
    2^n subsets once per center, n(n+1)/2 cells each, for n = 2^d."""
    check_dimension(d)
    n = 1 << min(d, BITS)
    check(f"build_dual_lp(d={d})", n * n * (n + 1) // 2 << min(n, BITS), "Fraction cells")
    num_pairs = n * (n + 1) // 2
    return RationalLP(
        sense="max",
        objective=[Fraction(1)] * num_pairs,
        rows=_packing_rows(n, _center_pairs(hypercube(d)), num_pairs),
        var_names=[f"y[{i},{j}]" for i in range(n) for j in range(i, n)],
        name=f"dual-lp-d{d}",
    )


def build_primal_lp(d: int) -> RationalLP:
    """Fractional covering LP: variables x[v,S] >= 0, constraint per pair
    {i,j}: sum over S containing both and v on a shortest i-j path of
    x[v,S] >= 1; minimize sum |S|*x[v,S]."""
    return _primal_lp_generic(hypercube(d), name=f"primal-lp-d{d}")


def build_primal_lp_graph(g: Graph) -> RationalLP:
    """Covering LP for an arbitrary tiny connected graph (n <= 11 in
    budget); a disconnected graph has pairs no hub covers and is refused."""
    return _primal_lp_generic(g, name=f"primal-lp-n{g.n}")


def _primal_lp_generic(g: Graph, name) -> RationalLP:
    """The covering LP: one row per pair i <= j in ascending order, and
    x[v,S] in column v(2^n - 1) + S - 1."""
    n = g.n
    sets = (1 << n) - 1
    # n(n+1)/2 pair rows, each with a cell for the n(2^n - 1) variables
    check(name, n * (n + 1) // 2 * n * sets, "Fraction cells")
    rows = [[0] * (n * sets) for _ in range(n * (n + 1) // 2)]
    for v, pairs in enumerate(_center_pairs(g)):
        for i, j, r in pairs:
            pm = (1 << i) | (1 << j)
            for S in range(1, 1 << n):
                if S & pm == pm:
                    rows[r][v * sets + S - 1] = 1
    return RationalLP(
        sense="min",
        objective=[S.bit_count() for _ in range(n) for S in range(1, 1 << n)],
        rows=[(coeffs, GEQ, 1) for coeffs in rows],
        var_names=[f"x[{v},{S:#x}]" for v in range(n) for S in range(1, 1 << n)],
        row_names=[f"pair[{i},{j}]" for i in range(n) for j in range(i, n)],
        name=name,
    )


# --- reports ---

@dataclass
class BoundReport:
    d: int
    table: list  # (k, N_k, y_star, psi) rows, exact rationals
    argmax_k: int
    max_psi: Fraction
    ropt: Optional[Fraction] = None
    lopt: Optional[Fraction] = None
    opt: Optional[int] = None
    sandwiches: Optional[list] = None  # provenance strings

    def __post_init__(self):
        for k, nk, ys, ps in self.table:
            if ps != nk * ys:
                raise BoundCheckError(f"k={k}: psi {ps} != N_k * y*_k = {nk * ys}")


def bound_report(d: int, with_lp: bool = False, with_oracle: bool = False) -> BoundReport:
    """Exact psi table plus optional LP optima and oracle sandwiches, each
    optimum where the budget admits it. Each of the table's d + 1 rows takes
    gcds of numbers of about d bits, (d + 1) * d^2 bit operations in all."""
    check(f"bound_report(d={d})", (d + 1) * d * d, "bit operations")
    table = [(k, pair_count(d, k), y_star(d, k), psi(d, k)) for k in range(d + 1)]
    k_star, max_psi = psi_argmax(d)
    ropt = lopt = opt = None
    sandwiches = []
    if with_lp:
        if ropt_fits_budget(d):
            ropt = regular_lp_optimum(d).value
            # single-class points give the lower end; y_k <= y*_k the upper
            sandwiches.append(
                f"max_k psi(k) = {max_psi} <= ROPT = {ropt} <= "
                f"(d+1)*max_k psi(k) = {(d + 1) * max_psi}"
            )
            if not max_psi <= ropt <= (d + 1) * max_psi:
                raise BoundCheckError(f"d={d}: ROPT {ropt} outside its psi sandwich")
        # a time policy, not a size check: the d=3 pair-packing dual (1140
        # rows, 43,549 tableau cells) is in budget, but its solve takes 50-70 s
        # in exact rationals on a 2.1 GHz Xeon, so LOPT is reported for d <= 2
        if d <= 2:
            lopt = solve(build_dual_lp(d)).value
            sandwiches.append(f"LOPT = {lopt} (path-packing dual optimum)")
    if with_oracle and fits(1 << d, "branch-and-bound vertices"):
        from .oracle import brute_optimal_hl

        opt = brute_optimal_hl(hypercube(d)).size
        if lopt is not None:
            sandwiches.append(
                f"ceil(LOPT) = {-(-lopt.numerator // lopt.denominator)} <= "
                f"OPT = {opt} <= 3^d = {3 ** d}"
            )
    return BoundReport(
        d=d,
        table=table,
        argmax_k=k_star,
        max_psi=max_psi,
        ropt=ropt,
        lopt=lopt,
        opt=opt,
        sandwiches=sandwiches or None,
    )
