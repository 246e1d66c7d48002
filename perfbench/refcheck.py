"""Reference computations made apart from hublab, and the tally of checked operations.

Nothing here imports hublab. Graph distances come from this module's own
BFS, label files are read by this module's own parser, and the LP and MILP
optima come from scipy's HiGHS solvers on models built here from the
definitions. scipy is imported only when those optima are needed, after
the measured part of a run.
"""
from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import comb

MAX_REPORTED_FAILURES = 20


class Checker:
    """Counts operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, kind: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"{kind}: {detail}")
        return ok


def hamming(u: int, v: int) -> int:
    return bin(u ^ v).count("1")


# --- graphs ---

def hypercube_edges(d: int) -> list[tuple[int, int]]:
    n = 1 << d
    return [(v, v | (1 << b)) for v in range(n) for b in range(d) if not v >> b & 1]


def random_connected_edges(n: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random recursive spanning tree plus `extra` distinct non-tree edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def small_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """The fixed graphs, at most 6 vertices each, given to the brute-force HL oracle."""
    return {
        "K4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
        "C5": (5, [(i, (i + 1) % 5) for i in range(5)]),
        "P6": (6, [(i, i + 1) for i in range(5)]),
        "C6": (6, [(i, (i + 1) % 6) for i in range(6)]),
        "star6": (6, [(0, i) for i in range(1, 6)]),
        "K33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
        "theta": (6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 2)]),
        "W5": (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
        "K6": (6, [(a, b) for a in range(6) for b in range(a + 1, 6)]),
    }


def bfs_rows(n: int, edges) -> list[list[int]]:
    """All-pairs distances of a connected unit-length graph, one BFS per source."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


# --- label totals and the text format ---

def subset_total(d: int) -> int:
    return 3 ** d


def halfsplit_total(d: int) -> int:
    return (1 << d) * ((1 << (d - d // 2)) + (1 << (d // 2)) - 1)


def read_labels(lines):
    """Yield (v, [(hub, dist), ...]) from the `HL n` text format, one label line at a time."""
    for line in lines:
        if not line.strip() or line.startswith("#") or line.startswith("HL"):
            continue
        nums = [int(x) for x in line.split()]
        v, k = nums[0], nums[1]
        if len(nums) != 2 + 2 * k:
            raise ValueError(f"label line of vertex {v} declares {k} hubs, holds {len(nums) // 2 - 1}")
        yield v, list(zip(nums[2::2], nums[3::2]))


def check_label_text(lines, n: int, dist) -> tuple[int, dict[int, list[int]], str]:
    """(total entries, vertex -> hub ids, first fault or "").

    Every vertex in range appears once, hubs are in [0, n) and ascending,
    and each stored distance equals `dist(v, hub)`.
    """
    total = 0
    hubs_of: dict[int, list[int]] = {}
    fault = ""
    for v, pairs in read_labels(lines):
        hubs = [h for h, _ in pairs]
        total += len(pairs)
        if not fault:
            if not 0 <= v < n or v in hubs_of:
                fault = f"vertex {v} out of range or repeated"
            elif any(not 0 <= h < n for h in hubs) or any(a >= b for a, b in zip(hubs, hubs[1:])):
                fault = f"hubs of vertex {v} out of range or not ascending"
            else:
                bad = [(h, dd) for h, dd in pairs if dd != dist(v, h)]
                if bad:
                    fault = f"vertex {v}: stored distance {bad[0][1]} to hub {bad[0][0]} is wrong"
        hubs_of[v] = hubs
    if not fault and len(hubs_of) != n:
        fault = f"{len(hubs_of)} label lines for {n} vertices"
    return total, hubs_of, fault


def is_acyclic(hubs_of: dict[int, list[int]]) -> bool:
    """Kahn's algorithm on the relation v -> w for each hub w != v of v."""
    indeg = dict.fromkeys(hubs_of, 0)
    for v, hubs in hubs_of.items():
        for w in hubs:
            if w != v:
                indeg[w] = indeg.get(w, 0) + 1
    ready = [v for v, k in indeg.items() if k == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in hubs_of.get(v, ()):
            if w != v:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
    return seen == len(indeg)


def is_label_cycle(witness, hubs_of) -> bool:
    """True when witness = [v0, ..., v0] and each next vertex is a hub of the one before."""
    if not witness or len(witness) < 3 or witness[0] != witness[-1]:
        return False
    return all(w != v and w in hubs_of.get(v, ()) for v, w in zip(witness, witness[1:]))


# --- bounds ---

def max_psi(d: int) -> Fraction:
    """max_k N_k * y*_k, with N_k the pairs at distance k and y*_k from the closed forms."""
    best = Fraction(1 << d)  # k = 0: N_0 = 2^d self-pairs, y*_0 = 1
    for k in range(1, d + 1):
        n_k = Fraction((1 << d) * comb(d, k), 2)
        i = k // 2
        if k % 2 == 0:
            y = Fraction(2, comb(d - i, i))
        else:
            y = Fraction(comb(d, i) + comb(d, i + 1), comb(d, i) * comb(d - i, i + 1))
        best = max(best, n_k * y)
    return best


def ropt_highs(d: int) -> float:
    """Optimum of the distance-symmetric packing LP on Q_d, solved in floats by HiGHS.

    Maximize sum_k N_k y_k over y >= 0, subject to one row per nonempty
    vertex set S: the pairs inside S whose shortest paths may pass through
    vertex 0 (i & j == 0, plus the self-pair of vertex 0) carry at most |S|.
    """
    import numpy as np
    from scipy.optimize import linprog

    n = 1 << d
    sets = np.arange(1, 1 << n, dtype=np.int64)
    a = np.zeros((len(sets), d + 1))
    pairs = [(0, 0)] + [(i, j) for i in range(n) for j in range(i + 1, n) if i & j == 0]
    for i, j in pairs:
        mask = (1 << i) | (1 << j)
        a[:, hamming(i, j)] += (sets & mask) == mask
    sizes = np.array([bin(s).count("1") for s in range(1, 1 << n)], dtype=float)
    weights = [1 << d] + [(1 << d) * comb(d, k) / 2 for k in range(1, d + 1)]
    res = linprog(-np.array(weights), A_ub=a, b_ub=sizes, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the ROPT LP at d={d}: {res.message}")
    return -res.fun


def min_hub_labeling(n: int, edges) -> int:
    """Minimum total hub-label size by a scipy MILP; self-pairs must be covered too.

    Binary x[v, h] puts h in L(v). For each pair i <= j and each hub h on a
    shortest i-j path, z[i, j, h] <= x[i, h] and z[i, j, h] <= x[j, h], and
    sum_h z[i, j, h] >= 1.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    dist = bfs_rows(n, edges)
    zs = [(i, j, h) for i in range(n) for j in range(i, n) for h in range(n)
          if dist[i][h] + dist[h][j] == dist[i][j]]
    nx = n * n
    rows = []
    lo = []
    for z, (i, j, h) in enumerate(zs):
        for v in (i, j):
            rows.append({nx + z: 1.0, v * n + h: -1.0})
            lo.append(-np.inf)
    hi = [0.0] * len(rows)
    pair_rows: dict = {}
    for z, (i, j, _) in enumerate(zs):
        pair_rows.setdefault((i, j), {})[nx + z] = 1.0
    rows.extend(pair_rows.values())
    lo.extend([1.0] * len(pair_rows))
    hi.extend([np.inf] * len(pair_rows))
    a = np.zeros((len(rows), nx + len(zs)))
    for r, coeffs in enumerate(rows):
        for c, val in coeffs.items():
            a[r, c] = val
    cost = np.concatenate([np.ones(nx), np.zeros(len(zs))])
    res = milp(cost, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(len(cost)), bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the hub-labeling MILP: {res.message}")
    return round(res.fun)
