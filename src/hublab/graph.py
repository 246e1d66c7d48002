"""Undirected unit-length graphs, hypercube generation, and hypercube helpers."""
from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import repeat
from math import inf
from typing import Iterable, Iterator, Optional

from .budget import BITS, LIMITS, BudgetError, check  # BudgetError re-exported

#: Most vertices a graph file may declare or a hypercube may have.
MAX_GRAPH_N = LIMITS["graph vertices"]

INFINITY = inf


class GraphFormatError(ValueError):
    """Malformed graph file."""


def popcount(x: int) -> int:
    return x.bit_count()


class Graph:
    """Simple undirected graph over dense integer vertex ids.

    Immutable after construction. `adj[v]` is the ascending tuple of v's
    neighbours; the tuples share one int object per vertex id. `is_hypercube`
    is set to the dimension d when the graph is a d-dimensional hypercube
    with the standard bit-flip vertex ids; its `PathSystem` then uses Hamming
    distance, not BFS.
    """

    __slots__ = ("n", "m", "adj", "is_hypercube", "_fingerprint")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        is_hypercube: Optional[int] = None,
    ):
        self.n = n
        ids = list(range(n))
        adj: list = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj[u].append(ids[v])
            adj[v].append(ids[u])
        for u, a in enumerate(adj):
            a.sort()
            for x, y in zip(a, a[1:]):
                if x == y:
                    raise GraphFormatError(f"duplicate edge {(u, x) if u < x else (x, u)}")
            adj[u] = tuple(a)
        self.adj = tuple(adj)
        self.m = sum(map(len, adj)) >> 1
        self.is_hypercube = None
        self._fingerprint = None
        if is_hypercube is not None:
            self._mark_hypercube(is_hypercube)

    def _mark_hypercube(self, d: int) -> None:
        """Set `is_hypercube` to d once the graph is checked to be Q_d."""
        n = self.n
        # d < n.bit_length() keeps 1 << d no larger than n
        if not 0 <= d < n.bit_length() or n != 1 << d:
            raise GraphFormatError(f"hypercube d={d} needs 2^{d} vertices, got {n}")
        if self.m != d << d >> 1:
            raise GraphFormatError(f"hypercube d={d} has wrong edge count")
        for u, v in self._edge_iter():
            if (u ^ v).bit_count() != 1:
                raise GraphFormatError(f"edge ({u},{v}) is not a bit flip")
        self.is_hypercube = d

    def _edge_iter(self) -> Iterator[tuple[int, int]]:
        """The edges (u, v), u < v, in ascending order."""
        for u, a in enumerate(self.adj):
            yield from zip(repeat(u), a[bisect_right(a, u):])

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges (u, v), u < v, in ascending order."""
        return tuple(self._edge_iter())

    def fingerprint(self) -> tuple[int, int, str]:
        """(n, m, hash) triple binding labelings to this graph."""
        if self._fingerprint is None:
            higher = (a[bisect_right(a, u):] for u, a in enumerate(self.adj))
            self._fingerprint = _fingerprint(self.n, self.m, higher)
        return self._fingerprint


def _fingerprint(n: int, m: int, higher: Iterable) -> tuple[int, int, str]:
    """(n, m, hash) of a graph from each vertex u's ascending neighbours above
    u, in vertex order: SHA-256 of "n m", then " u,v" for each edge u < v."""
    h = hashlib.sha256(f"{n} {m}".encode())
    ids = list(map(str, range(n)))
    for u, above in enumerate(higher):
        if above:
            pre = f" {u},"
            h.update((pre + pre.join(map(ids.__getitem__, above))).encode())
    return (n, m, h.hexdigest()[:16])


def _hypercube_higher(d: int) -> Iterator[list[int]]:
    """Each vertex v's ascending neighbours above v in Q_d, in vertex order."""
    bits = [1 << b for b in range(d)]
    for v in range(1 << d):
        yield [v | b for b in bits if not v & b]


def check_dimension(d: int) -> None:
    """Raise ValueError for a negative dimension, before any budget check."""
    if d < 0:
        raise ValueError("dimension must be nonnegative")


def hypercube(d: int) -> Graph:
    """d-dimensional hypercube: ids 0..2^d-1, edges between ids differing in one bit."""
    check_dimension(d)
    check(f"Q_{d}", 1 << min(d, BITS), "graph vertices")
    edges = ((v, w) for v, above in enumerate(_hypercube_higher(d)) for w in above)
    return Graph(1 << d, edges, is_hypercube=d)


def hypercube_fingerprint(d: int) -> tuple[int, int, str]:
    """hypercube(d).fingerprint(), streamed from the neighbours without building the graph."""
    check_dimension(d)
    check(f"Q_{d}", 1 << min(d, BITS), "graph vertices")
    return _fingerprint(1 << d, d << d >> 1, _hypercube_higher(d))


def bfs_distances(g: Graph, source: int) -> list:
    """Unweighted shortest-path distances from source; INFINITY when unreachable."""
    if not (0 <= source < g.n):
        raise ValueError(f"invalid source {source}")
    dist = [INFINITY] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if dist[w] == INFINITY:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


class PathSystem:
    """Distances and shortest-path membership in one graph.

    On a hypercube both come from Hamming arithmetic on vertex ids. On any
    other graph they come from one BFS row per source, built the first time
    that source is asked about and kept.

    A pair i <= j of an n-vertex graph has the id i * n + j; self-pairs
    count. `pairs_through(v)` lists the pairs with v on a shortest path.
    """

    __slots__ = ("g", "_cube", "_rows", "_layers")

    def __init__(self, g: Graph):
        self.g = g
        self._cube = g.is_hypercube is not None
        self._rows: dict = {}
        self._layers = None

    def row(self, s: int) -> list:
        """Distances from s to every vertex; INFINITY where unreachable."""
        if self._cube:
            return [(s ^ v).bit_count() for v in range(self.g.n)]
        row = self._rows.get(s)
        if row is None:
            row = self._rows[s] = bfs_distances(self.g, s)
        return row

    def dists(self, s: int, vertices) -> Iterator:
        """The distances from s to `vertices`, in their order."""
        if self._cube:
            return map(int.bit_count, map(s.__xor__, vertices))
        return map(self.row(s).__getitem__, vertices)

    def on_path(self, h: int, s: int, t: int) -> bool:
        """Whether h lies on a shortest s-t path (never, when t is unreachable)."""
        if self._cube:
            # the vertices on shortest s-t paths are the subcube s and t span
            return not (s ^ h) & (t ^ h)
        rs, rt = self.row(s), self.row(t)
        return rs[h] + rt[h] == rs[t] != INFINITY

    def pairs_through(self, v: int) -> Iterator[int]:
        """The ids i * n + j, ascending, of the pairs i <= j with v on a
        shortest i-j path. A disconnected graph raises ValueError, since the
        pairs in two components have no center."""
        if self._layers is None:
            layers = []  # [x][k]: bitset of the vertices j with d(x, j) == k
            for row in map(self.row, range(self.g.n)):
                top = max(row)
                if top == INFINITY:
                    raise ValueError("cover is impossible for a disconnected graph")
                lx = [0] * (top + 1)
                for j, k in enumerate(row):
                    lx[k] |= 1 << j
                layers.append(lx)
            self._layers = layers
        # v covers (i, j) iff d(v, i) + d(v, j) == d(i, j): j is at some
        # distance k from v and k + d(v, i) from i
        n, layers = self.g.n, self._layers
        dv, lv = self.row(v), layers[v]
        for i in range(n):
            mask = 0
            for lvk, lik in zip(lv, layers[i][dv[i]:]):
                mask |= lvk & lik
            mask = mask >> i << i  # j >= i
            base = i * n - 1
            while mask:
                low = mask & -mask
                yield base + low.bit_length()
                mask ^= low


@dataclass(frozen=True)
class SubcubeDescriptor:
    """Subcube of vertices agreeing with `anchor` outside `free_mask`.

    Membership: u is in the subcube iff (u ^ anchor) & ~free_mask == 0.
    """

    anchor: int
    free_mask: int

    def __contains__(self, u: int) -> bool:
        return (u ^ self.anchor) & ~self.free_mask == 0

    def size(self) -> int:
        return 1 << popcount(self.free_mask)

    def members(self) -> Iterator[int]:
        """All member ids (2^popcount(free_mask) of them)."""
        base = self.anchor & ~self.free_mask
        m = self.free_mask
        sub = m
        while True:
            yield base | sub
            if sub == 0:
                return
            sub = (sub - 1) & m


def induced_subcube(v: int, w: int) -> SubcubeDescriptor:
    """Subcube spanned by v and w: exactly the vertices on shortest v-w paths."""
    return SubcubeDescriptor(anchor=v, free_mask=v ^ w)


@dataclass(frozen=True)
class HypercubeAutomorphism:
    """XOR translation composed with a coordinate permutation.

    phi(u) permutes the bits of u (bit b of u lands on bit bit_perm[b]) and
    then XORs with xor_mask. Distance-preserving bijection of the hypercube.
    """

    dim: int
    xor_mask: int
    bit_perm: tuple[int, ...]

    def __call__(self, u: int) -> int:
        r = 0
        for b in range(self.dim):
            if (u >> b) & 1:
                r |= 1 << self.bit_perm[b]
        return r ^ self.xor_mask

    def as_table(self) -> list[int]:
        return [self(u) for u in range(1 << self.dim)]


def random_automorphism(d: int, seed: int) -> HypercubeAutomorphism:
    """Uniformly random hypercube automorphism of the translation+permutation kind."""
    rng = random.Random(seed)
    p = rng.randrange(1 << d) if d > 0 else 0
    perm = list(range(d))
    rng.shuffle(perm)
    return HypercubeAutomorphism(dim=d, xor_mask=p, bit_perm=tuple(perm))


# --- text format: line `n m`, then m lines `u v`; `#` comments ignored ---

def _graph_lines(g: Graph) -> Iterator[str]:
    """The lines of the graph's text, each ending in a newline."""
    if g.is_hypercube is not None:
        yield f"# hypercube d={g.is_hypercube}\n"
    yield f"{g.n} {g.m}\n"
    for u, v in g._edge_iter():
        yield f"{u} {v}\n"


def serialize_graph(g: Graph) -> str:
    return "".join(_graph_lines(g))


def save_graph(g: Graph, path: str) -> None:
    """Write the graph's text to `path` one line at a time."""
    with open(path, "w") as f:
        f.writelines(_graph_lines(g))


def parse_graph(text: str) -> Graph:
    """Graph from its text; malformed text raises GraphFormatError, a
    header with more than MAX_GRAPH_N vertices BudgetError."""
    return _parse_graph_lines(text.splitlines())


def _parse_graph_lines(lines) -> Graph:
    """Graph from the lines of its text, numbered from 1, as `parse_graph`;
    the edge lines go straight into the graph as they are read."""
    hypercube_d = None

    def fields():
        """(line number, fields) of each line that is neither blank nor a comment."""
        nonlocal hypercube_d
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if parts and parts[0] == "hypercube":
                    for p in parts[1:]:
                        if p.startswith("d="):
                            hypercube_d = _parse_int(p[2:], lineno, "hypercube dimension")
                continue
            yield lineno, line.split()

    rows = fields()
    lineno, parts = next(rows, (0, None))
    if parts is None:
        raise GraphFormatError("missing 'n m' header")
    if len(parts) != 2:
        raise GraphFormatError(f"line {lineno}: expected 'n m' header")
    n = _parse_int(parts[0], lineno, "vertex count")
    m = _parse_int(parts[1], lineno, "edge count")
    check(f"line {lineno}: graph header", n, "graph vertices")

    def edges():
        for lineno, parts in rows:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'u v'")
            try:
                yield int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: expected integer endpoints 'u v'") from None

    g = Graph(n, edges())
    if g.m != m:
        raise GraphFormatError(f"header declares {m} edges, found {g.m}")
    if hypercube_d is not None:
        g._mark_hypercube(hypercube_d)
    return g


def _parse_int(field: str, lineno: int, what: str) -> int:
    """A nonnegative integer field of a graph file."""
    try:
        value = int(field)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {what} {field!r} is not an integer") from None
    if value < 0:
        raise GraphFormatError(f"line {lineno}: negative {what} {value}")
    return value


def load_graph(path: str) -> Graph:
    """Read the graph in `path` one line at a time. Only a newline, a
    carriage return or the two together end a line of a file."""
    with open(path) as f:
        return _parse_graph_lines(f)
