"""Hub labeling data model: merge-sweep queries, cover verification, hierarchy test.

A labeling assigns every vertex a sorted list of (hub, distance) pairs. The
cover property requires each vertex pair to share a hub lying on a shortest
path between them; that is what `verify_cover` certifies against the
graph's `PathSystem`. The self-pairs (v, v) count like any other pair, and
v is the only hub on the trivial v-v path, so a valid labeling has v in
L(v) at distance 0 for every vertex v, and query(s, s) returns 0.

The labels of all vertices live in one flat store (CSR): L(v) is
hubs[offsets[v]:offsets[v + 1]] with the matching stored distances in
dists. Every layer reads and writes these arrays directly.
"""
from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from operator import lt, ne
from typing import Optional

from .graph import Graph, PathSystem

#: Distinguished query result when the two labels share no hub.
NO_COMMON_HUB = None

MAX_REPORTED_VIOLATIONS = 20


class LabelingFormatError(ValueError):
    """Malformed labeling file or invalid label invariants."""


class FingerprintMismatch(ValueError):
    """Labeling is bound to a different graph."""


class Labeling:
    """Immutable hub labels with stored distances, in one CSR store.

    offsets ('q', n + 1 entries) delimits each vertex's range of hubs and
    dists (both 'i'); within a range the hubs ascend, are distinct and lie
    in [0, n), and the distances are nonnegative. `fingerprint` is the
    (n, m, hash) triple of the graph the labeling was built for.

    `Labeling(labels)` builds the store from per-vertex (hub, dist) pair
    sequences, sorting each label, and validates it. Builders that produce
    valid arrays by construction use `Labeling._from_arrays`.
    """

    __slots__ = ("n", "offsets", "hubs", "dists", "fingerprint")

    def __init__(
        self,
        labels: Sequence[Sequence[tuple[int, int]]],
        fingerprint: Optional[tuple[int, int, str]] = None,
    ):
        offsets, hubs, dists = array("q", [0]), array("i"), array("i")
        n = len(labels)
        for v, lab in enumerate(labels):
            pairs = sorted((int(h), int(dd)) for h, dd in lab)
            hs, ds = [h for h, _ in pairs], [dd for _, dd in pairs]
            try:
                hubs.extend(hs)
                dists.extend(ds)
            except OverflowError:
                raise LabelingFormatError(
                    f"hub or distance outside 32 bits in label of vertex {v}"
                ) from None
            _check_label(v, hs, ds, n)
            offsets.append(len(hubs))
        self._set(offsets, hubs, dists, fingerprint)

    @classmethod
    def _from_arrays(cls, offsets: array, hubs: array, dists: array, fingerprint=None):
        """Wrap CSR arrays without checking them (callers validate outside input)."""
        lab = cls.__new__(cls)
        lab._set(offsets, hubs, dists, fingerprint)
        return lab

    def _set(self, offsets, hubs, dists, fingerprint) -> None:
        self.n = len(offsets) - 1
        self.offsets = offsets
        self.hubs = hubs
        self.dists = dists
        self.fingerprint = fingerprint

    @property
    def labels(self) -> "LabelView":
        """Read-only view: labels[v] is the tuple of (hub, dist) pairs of L(v)."""
        return LabelView(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Labeling)
            and self.offsets == other.offsets
            and self.hubs == other.hubs
            and self.dists == other.dists
        )

    def __hash__(self):
        return hash((self.offsets.tobytes(), self.hubs.tobytes(), self.dists.tobytes()))


def _from_hub_lists(hub_lists, dist, fingerprint=None) -> Labeling:
    """Labeling with L(v) = hub_lists[v], ascending, at distances dist[v][hub]."""
    offsets, hubs, dists = array("q", [0]), array("i"), array("i")
    for v, hs in enumerate(hub_lists):
        hubs.extend(hs)
        dists.extend([dist[v][h] for h in hs])
        offsets.append(len(hubs))
    return Labeling._from_arrays(offsets, hubs, dists, fingerprint)


class LabelView(Sequence):
    """The labels of a Labeling as a sequence of (hub, dist) pair tuples."""

    __slots__ = ("_lab",)

    def __init__(self, lab: Labeling):
        self._lab = lab

    def __len__(self) -> int:
        return self._lab.n

    def __getitem__(self, v: int) -> tuple:
        lab = self._lab
        if v < 0:
            v += lab.n
        if not 0 <= v < lab.n:
            raise IndexError(f"vertex {v} out of range")
        a, b = lab.offsets[v], lab.offsets[v + 1]
        return tuple(zip(lab.hubs[a:b], lab.dists[a:b]))


def _check_label(v: int, hs: list, ds: list, n: int) -> None:
    """Raise LabelingFormatError unless the hubs hs of L(v) ascend strictly
    within [0, n) and its stored distances ds are nonnegative."""
    if not hs:
        return
    if min(hs) < 0 or max(hs) >= n:
        raise LabelingFormatError(f"hub out of range [0, {n}) in label of vertex {v}")
    if min(ds) < 0:
        raise LabelingFormatError(f"negative distance in label of vertex {v}")
    if not all(map(lt, hs, islice(hs, 1, None))):
        raise LabelingFormatError(f"hubs must be distinct and ascending in label of vertex {v}")


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
    return len(lab.hubs)


def query(lab: Labeling, s: int, t: int):
    """Distance via a linear merge over the two sorted hub ranges.

    Returns min over common hubs u of dist(s,u) + dist(u,t), or
    NO_COMMON_HUB when the labels do not intersect.
    """
    n = lab.n
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"query vertices ({s},{t}) out of range")
    off = lab.offsets
    i, i_end = off[s], off[s + 1]
    j, j_end = off[t], off[t + 1]
    best = NO_COMMON_HUB
    if i == i_end or j == j_end:
        return best
    hubs, dists = lab.hubs, lab.dists
    ha, hb = hubs[i], hubs[j]
    # each hub is loaded once, when its pointer advances
    while True:
        if ha == hb:
            cand = dists[i] + dists[j]
            if best is NO_COMMON_HUB or cand < best:
                best = cand
            i += 1
            j += 1
            if i == i_end or j == j_end:
                return best
            ha, hb = hubs[i], hubs[j]
        elif ha < hb:
            i += 1
            if i == i_end:
                return best
            ha = hubs[i]
        else:
            j += 1
            if j == j_end:
                return best
            hb = hubs[j]


def _hub_mask(lab: Labeling, paths: PathSystem, s: int) -> int:
    """The hubs of L(s) as a bitset (bit h set iff h is in L(s));
    LabelingFormatError unless every stored distance is true."""
    a, b = lab.offsets[s], lab.offsets[s + 1]
    hubs, dists = lab.hubs[a:b], lab.dists[a:b]
    if any(map(ne, paths.dists(s, hubs), dists)):
        h, dd = next((h, dd) for h, dd, true in zip(hubs, dists, paths.dists(s, hubs))
                     if true != dd)
        raise LabelingFormatError(f"stored distance {dd} for hub {h} of vertex {s} is wrong")
    return sum(map((1).__lshift__, hubs))


def verify_cover(
    g: Graph,
    lab: Labeling,
    sample: Optional[int] = None,
    seed: int = 0,
) -> CoverReport:
    """Check the cover property against the graph's exact distances.

    Exhaustive over all unordered pairs (self-pairs included) by default;
    with `sample` set, checks that many uniformly random pairs instead
    (ValueError unless it is at least 1; a graph with no vertices has no
    pair to draw and passes with none checked, as exhaustively). A pair is
    covered when the query answer equals the true distance. The stored hub
    distances of every label checked are validated against `PathSystem` first
    (LabelingFormatError if one is wrong). Each violating pair is reported
    once, however often it is drawn; the violations are sorted by (s, t)
    and truncated to the first MAX_REPORTED_VIOLATIONS distinct ones.
    `pairs_checked` counts the pairs checked, repeats included.

    Each label checked is kept as one bitset of its hubs, so a pair's common
    hubs are one AND. Since every stored distance is true, each common hub
    sums to at least d(s, t) by the triangle inequality, and the query's
    minimum equals d(s, t) exactly when some common hub lies on a shortest
    s-t path: the common hubs are tried from the highest down with the
    graph's `PathSystem.on_path` until one does.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample of {sample} pairs checks nothing; need at least 1")
    if lab.fingerprint is not None and lab.fingerprint != g.fingerprint():
        raise FingerprintMismatch(
            f"labeling fingerprint {lab.fingerprint} != graph {g.fingerprint()}"
        )
    if lab.n != g.n:
        raise FingerprintMismatch(f"labeling has {lab.n} vertices, graph has {g.n}")
    paths = PathSystem(g)
    on_path = paths.on_path
    n = g.n
    if sample is None or n == 0:
        # t ascends from s = 0, so every label is checked before a second row
        pairs = ((s, t) for s in range(n) for t in range(s, n))
    else:
        pairs = _sampled_pairs(n, sample, seed)
    masks = [None] * n  # vertex -> checked hub bitset, built on first touch
    violations = []
    truncated = False
    checked = 0
    for s, t in pairs:
        ms = masks[s]
        if ms is None:
            ms = masks[s] = _hub_mask(lab, paths, s)
        mt = masks[t]
        if mt is None:
            mt = masks[t] = _hub_mask(lab, paths, t)
        checked += 1
        common = ms & mt
        while common:
            h = common.bit_length() - 1
            if on_path(h, s, t):
                break
            common ^= 1 << h
        if common:  # left nonzero only by a hub on a shortest path
            continue
        if (s, t) in violations:  # a repeat draw of a reported pair
            continue
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


def _sampled_pairs(n: int, sample: int, seed: int):
    """`sample` pairs (s, t), s <= t, each end drawn as
    `random.Random(seed).randrange(n)` draws it (n >= 1): k = n.bit_length()
    random bits, drawn again while the value is n or more."""
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    for _ in range(sample):
        s = bits(k)
        while s >= n:
            s = bits(k)
        t = bits(k)
        while t >= n:
            t = bits(k)
        yield (s, t) if s <= t else (t, s)


def is_hierarchical(lab: Labeling) -> HierarchyReport:
    """Acyclicity of the relation v -> w for each hub w in L(v), w != v.

    A labeling is hierarchical iff this relation has no cycle; a witness
    cycle [v0, ..., vk, v0] is returned otherwise (each vertex contains the
    next in its label).
    """
    n = lab.n
    off, hubs = lab.offsets, lab.hubs

    def succ(v: int):
        return iter(hubs[off[v]:off[v + 1]])  # ascending hub ids

    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    parent: dict = {}
    for root in range(n):
        if color[root] != WHITE:
            continue
        stack = [(root, succ(root))]
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
                    stack.append((w, succ(w)))
                    advanced = True
                    break
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return HierarchyReport(hierarchical=True, witness=None)


# --- text format: `HL n`, fingerprint comment, then `v k hub dist ...` ---

def _label_lines(lab: Labeling):
    """The lines of the labeling's text, each ending in a newline."""
    yield f"HL {lab.n}\n"
    if lab.fingerprint is not None:
        n, m, h = lab.fingerprint
        yield f"# graph {n} {m} {h}\n"
    off, hubs, dists = lab.offsets, lab.hubs, lab.dists
    text = {x: str(x) for x in {*hubs, *dists}}.__getitem__  # each distinct value once
    for v in range(lab.n):
        a, b = off[v], off[v + 1]
        if a == b:
            yield f"{v} 0\n"
        else:
            # hub, dist, hub, dist, ... of this label (the repeat only sizes
            # it, with no zero-filled buffer to copy from)
            flat = hubs[a:b] * 2
            flat[0::2] = hubs[a:b]
            flat[1::2] = dists[a:b]
            yield f"{v} {b - a} {' '.join(map(text, flat))}\n"


def serialize_labeling(lab: Labeling) -> str:
    return "".join(_label_lines(lab))


def save_labeling(lab: Labeling, path: str) -> None:
    """Write the labeling's text to `path` one line at a time."""
    with open(path, "w") as f:
        f.writelines(_label_lines(lab))


def _header_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise LabelingFormatError(f"line {lineno}: malformed integer {token!r}") from None


def parse_labeling(text: str) -> Labeling:
    return _parse_lines(text.splitlines())


def _parse_lines(lines) -> Labeling:
    """Labeling from the lines of its text, numbered from 1; blank lines and
    `#` comments other than the fingerprint are skipped."""
    fingerprint = None
    n = None
    hubs, dists = array("i"), array("i")
    ends = array("q")  # end of each label line's range, in file order
    line_of: dict = {}  # vertex -> index of its label line in file order
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 4 and parts[0] == "graph":
                fingerprint = (
                    _header_int(parts[1], lineno), _header_int(parts[2], lineno), parts[3]
                )
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "HL":
                raise LabelingFormatError(f"line {lineno}: expected 'HL n' header")
            n = _header_int(parts[1], lineno)
            continue
        try:
            vals = list(map(int, parts))
            v, k = vals[0], vals[1]
        except (IndexError, ValueError):
            raise LabelingFormatError(f"line {lineno}: malformed label line") from None
        if len(vals) != 2 * k + 2:
            raise LabelingFormatError(
                f"line {lineno}: declared {k} hubs, found {(len(vals) - 2) // 2}"
            )
        if not (0 <= v < n):
            raise LabelingFormatError(f"line {lineno}: vertex {v} out of range")
        if v in line_of:
            raise LabelingFormatError(f"line {lineno}: duplicate vertex {v}")
        hs, ds = vals[2::2], vals[3::2]
        try:
            hubs.fromlist(hs)
            dists.fromlist(ds)
        except OverflowError:
            raise LabelingFormatError(f"line {lineno}: hub or distance outside 32 bits") from None
        _check_label(v, hs, ds, n)
        line_of[v] = len(ends)
        ends.append(len(hubs))
    if n is None:
        raise LabelingFormatError("missing 'HL n' header")
    if len(line_of) != n:
        raise LabelingFormatError(f"expected {n} label lines, found {len(line_of)}")
    offsets = array("q", [0])
    if all(map(int.__eq__, line_of, range(n))):
        offsets.extend(ends)
    else:  # vertex lines out of order: copy the ranges into vertex order
        file_hubs, file_dists = hubs, dists
        hubs, dists = array("i"), array("i")
        for v in range(n):
            i = line_of[v]
            a, b = ends[i - 1] if i else 0, ends[i]
            hubs.extend(file_hubs[a:b])
            dists.extend(file_dists[a:b])
            offsets.append(len(hubs))
    return Labeling._from_arrays(offsets, hubs, dists, fingerprint)


def load_labeling(path: str) -> Labeling:
    """Read the labeling in `path` one line at a time. Only a newline, a
    carriage return or the two together end a line of a file; the
    `str.splitlines` of `parse_labeling` also ends one at a form feed, a
    vertical tab and the other Unicode line boundaries."""
    with open(path) as f:
        return _parse_lines(f)
