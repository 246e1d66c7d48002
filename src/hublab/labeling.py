"""Hub labeling data model: merge-sweep queries, cover verification, hierarchy test.

A labeling assigns every vertex a sorted list of (hub, distance) pairs. The
cover property requires each vertex pair to share a hub lying on a shortest
path between them; that is what `verify_cover` certifies against a BFS
oracle. Self-hubs (v in L(v)) are not required by the model; constructors
that naturally produce them keep them, and query(s, s) returns 0 exactly
when s is its own hub (otherwise twice the distance to the nearest hub).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .graph import Graph, bfs_distances, popcount

#: Distinguished query result when the two labels share no hub.
NO_COMMON_HUB = None

MAX_REPORTED_VIOLATIONS = 20


class LabelingFormatError(ValueError):
    """Malformed labeling file or invalid label invariants."""


class FingerprintMismatch(ValueError):
    """Labeling is bound to a different graph."""


class Labeling:
    """Immutable per-vertex hub lists with stored distances.

    labels[v] is a tuple of (hub, dist) sorted ascending by hub id, hubs
    distinct and in [0, n). `fingerprint` is the (n, m, hash) triple of the
    graph the labeling was built for.
    """

    __slots__ = ("labels", "fingerprint", "_hub_maps", "_hub_sets")

    def __init__(
        self,
        labels: Sequence[Sequence[tuple[int, int]]],
        fingerprint: Optional[tuple[int, int, str]] = None,
    ):
        canon = []
        n = len(labels)
        for v, lab in enumerate(labels):
            lab = tuple((int(h), int(dd)) for h, dd in lab)
            hubs = [h for h, _ in lab]
            if any(hubs[i] >= hubs[i + 1] for i in range(len(hubs) - 1)):
                lab = tuple(sorted(lab))
                hubs = [h for h, _ in lab]
            if len(set(hubs)) != len(hubs):
                raise LabelingFormatError(f"duplicate hub in label of vertex {v}")
            if hubs and (hubs[0] < 0 or hubs[-1] >= n):
                raise LabelingFormatError(f"hub out of range [0, {n}) in label of vertex {v}")
            if any(dd < 0 for _, dd in lab):
                raise LabelingFormatError(f"negative distance in label of vertex {v}")
            canon.append(lab)
        self.labels = tuple(canon)
        self.fingerprint = fingerprint
        self._hub_maps = None
        self._hub_sets = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def hub_maps(self) -> tuple[dict, ...]:
        if self._hub_maps is None:
            self._hub_maps = tuple(dict(lab) for lab in self.labels)
        return self._hub_maps

    def hub_sets(self) -> tuple[frozenset, ...]:
        if self._hub_sets is None:
            self._hub_sets = tuple(frozenset(h for h, _ in lab) for lab in self.labels)
        return self._hub_sets

    def __eq__(self, other) -> bool:
        return isinstance(other, Labeling) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)


@dataclass
class CoverReport:
    valid: bool
    violations: list  # [(s, t)] pairs with no common on-path hub, sorted
    truncated: bool = False
    pairs_checked: int = 0


@dataclass
class HierarchyReport:
    hierarchical: bool
    witness: Optional[list] = None  # cycle v0, v1, ..., v0 in the label relation


def total_size(lab: Labeling) -> int:
    """Sum of label sizes over all vertices."""
    return sum(len(l) for l in lab.labels)


def query(lab: Labeling, s: int, t: int):
    """Distance via a linear merge over the two sorted hub lists.

    Returns min over common hubs u of dist(s,u) + dist(u,t), or
    NO_COMMON_HUB when the labels do not intersect.
    """
    if not (0 <= s < lab.n and 0 <= t < lab.n):
        raise ValueError(f"query vertices ({s},{t}) out of range")
    a, b = lab.labels[s], lab.labels[t]
    i = j = 0
    best = NO_COMMON_HUB
    while i < len(a) and j < len(b):
        ha, hb = a[i][0], b[j][0]
        if ha == hb:
            cand = a[i][1] + b[j][1]
            if best is NO_COMMON_HUB or cand < best:
                best = cand
            i += 1
            j += 1
        elif ha < hb:
            i += 1
        else:
            j += 1
    return best


class _DistanceOracle:
    """Per-source BFS cache; Hamming arithmetic on hypercubes."""

    def __init__(self, g: Graph):
        self.g = g
        self._rows: dict = {}

    def dist(self, u: int, v: int):
        if self.g.is_hypercube is not None:
            return popcount(u ^ v)
        row = self._rows.get(u)
        if row is None:
            row = self._rows.get(v)
            if row is not None:
                return row[u]
            row = bfs_distances(self.g, u)
            self._rows[u] = row
        return row[v]


def _pair_covered(lab: Labeling, oracle: _DistanceOracle, s: int, t: int) -> bool:
    """The query answer, the minimum over common hubs, is the true distance."""
    hs = lab.hub_sets()
    common = hs[s] & hs[t]
    if not common:
        return False
    ms, mt = lab.hub_maps()[s], lab.hub_maps()[t]
    return min(ms[u] + mt[u] for u in common) == oracle.dist(s, t)


def _check_stored(lab: Labeling, oracle: _DistanceOracle, s: int) -> None:
    """Raise LabelingFormatError unless every stored distance in L(s) is true."""
    if oracle.g.is_hypercube is not None:
        # Hamming distance inline: this runs once per entry of every label checked
        wrong = [(h, dd) for h, dd in lab.labels[s] if (s ^ h).bit_count() != dd]
    else:
        wrong = [(h, dd) for h, dd in lab.labels[s] if oracle.dist(s, h) != dd]
    if wrong:
        h, dd = wrong[0]
        raise LabelingFormatError(f"stored distance {dd} for hub {h} of vertex {s} is wrong")


def verify_cover(
    g: Graph,
    lab: Labeling,
    sample: Optional[int] = None,
    seed: int = 0,
) -> CoverReport:
    """Check the cover property against exact BFS distances.

    Exhaustive over all unordered pairs (self-pairs included) by default;
    with `sample` set, checks that many uniformly random pairs instead. A
    pair is covered when the query answer equals the BFS distance. The
    stored hub distances of every label checked are validated against the
    oracle first (LabelingFormatError if one is wrong). Violations are
    reported sorted by (s, t), truncated to the first
    MAX_REPORTED_VIOLATIONS.
    """
    if lab.fingerprint is not None and lab.fingerprint != g.fingerprint():
        raise FingerprintMismatch(
            f"labeling fingerprint {lab.fingerprint} != graph {g.fingerprint()}"
        )
    if lab.n != g.n:
        raise FingerprintMismatch(f"labeling has {lab.n} vertices, graph has {g.n}")
    oracle = _DistanceOracle(g)
    violations = []
    truncated = False
    checked = 0
    if sample is None:
        for s in range(g.n):
            _check_stored(lab, oracle, s)
        for s in range(g.n):
            for t in range(s, g.n):
                checked += 1
                if not _pair_covered(lab, oracle, s, t):
                    if len(violations) < MAX_REPORTED_VIOLATIONS:
                        violations.append((s, t))
                    else:
                        truncated = True
    else:
        rng = random.Random(seed)
        n = g.n
        stored_ok = bytearray(n)
        for _ in range(sample):
            s = rng.randrange(n)
            t = rng.randrange(n)
            if s > t:
                s, t = t, s
            if not stored_ok[s]:
                _check_stored(lab, oracle, s)
                stored_ok[s] = 1
            if not stored_ok[t]:
                _check_stored(lab, oracle, t)
                stored_ok[t] = 1
            checked += 1
            if not _pair_covered(lab, oracle, s, t):
                if len(violations) < MAX_REPORTED_VIOLATIONS:
                    violations.append((s, t))
                else:
                    truncated = True
        violations.sort()
    return CoverReport(
        valid=not violations,
        violations=violations,
        truncated=truncated,
        pairs_checked=checked,
    )


def is_hierarchical(lab: Labeling) -> HierarchyReport:
    """Acyclicity of the relation v -> w for each hub w in L(v), w != v.

    A labeling is hierarchical iff this relation has no cycle; a witness
    cycle [v0, ..., vk, v0] is returned otherwise (each vertex contains the
    next in its label).
    """
    n = lab.n
    succ = lab.hub_sets()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    parent: dict = {}
    for root in range(n):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(sorted(succ[root])))]
        color[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if w == v:
                    continue
                if color[w] == GRAY:
                    # reconstruct cycle w -> ... -> v -> w
                    cyc = [v]
                    x = v
                    while x != w:
                        x = parent[x]
                        cyc.append(x)
                    cyc.reverse()
                    cyc.append(cyc[0])
                    return HierarchyReport(hierarchical=False, witness=cyc)
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(sorted(succ[w]))))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return HierarchyReport(hierarchical=True, witness=None)


def brute_force_hierarchical(lab: Labeling) -> bool:
    """O(n^3) transitive-closure cycle test; independent check for small n."""
    n = lab.n
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        for h, _ in lab.labels[v]:
            if h != v:
                reach[v][h] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return not any(reach[v][v] for v in range(n))


# --- text format: `HL n`, fingerprint comment, then `v k hub dist ...` ---

def serialize_labeling(lab: Labeling) -> str:
    lines = [f"HL {lab.n}"]
    if lab.fingerprint is not None:
        n, m, h = lab.fingerprint
        lines.append(f"# graph {n} {m} {h}")
    for v, l in enumerate(lab.labels):
        parts = [str(v), str(len(l))]
        for hub, dd in l:
            parts.append(str(hub))
            parts.append(str(dd))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def save_labeling(lab: Labeling, path: str) -> None:
    with open(path, "w") as f:
        f.write(serialize_labeling(lab))


def parse_labeling(text: str) -> Labeling:
    lines = text.splitlines()
    fingerprint = None
    n = None
    rows: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 4 and parts[0] == "graph":
                fingerprint = (int(parts[1]), int(parts[2]), parts[3])
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "HL":
                raise LabelingFormatError(f"line {lineno}: expected 'HL n' header")
            n = int(parts[1])
            continue
        try:
            v = int(parts[0])
            k = int(parts[1])
            rest = [int(x) for x in parts[2:]]
        except (IndexError, ValueError):
            raise LabelingFormatError(f"line {lineno}: malformed label line") from None
        if len(rest) != 2 * k:
            raise LabelingFormatError(
                f"line {lineno}: declared {k} hubs, found {len(rest) // 2}"
            )
        if not (0 <= v < n):
            raise LabelingFormatError(f"line {lineno}: vertex {v} out of range")
        if v in rows:
            raise LabelingFormatError(f"line {lineno}: duplicate vertex {v}")
        pairs = [(rest[2 * i], rest[2 * i + 1]) for i in range(k)]
        hubs = [h for h, _ in pairs]
        if sorted(set(hubs)) != hubs:
            raise LabelingFormatError(
                f"line {lineno}: hubs must be distinct and ascending"
            )
        rows[v] = tuple(pairs)
    if n is None:
        raise LabelingFormatError("missing 'HL n' header")
    if len(rows) != n:
        raise LabelingFormatError(f"expected {n} label lines, found {len(rows)}")
    return Labeling([rows[v] for v in range(n)], fingerprint=fingerprint)


def load_labeling(path: str) -> Labeling:
    with open(path) as f:
        return parse_labeling(f.read())
