"""Explicit hypercube labelings: subset HHL, canonical-from-order, half-split HL.

Bit convention: internally bit 0 is the least significant bit. The "first"
half of an id means its most significant floor(d/2) bits, the "last" half
the remaining ceil(d/2) least significant bits.
"""
from __future__ import annotations

import random
from array import array
from itertools import accumulate
from operator import xor
from typing import Optional, Sequence

from .budget import BITS, check, fits
from .graph import Graph, check_dimension, hypercube_fingerprint, popcount
from .labeling import Labeling


class VertexOrder:
    """Importance order on hypercube vertices, least to most important.

    rank(v) in [1..n]; higher rank = more important.
    """

    def __init__(self, vertices_low_to_high: Sequence[int]):
        seq = list(vertices_low_to_high)
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError("order must be a bijection on 0..n-1")
        self.sequence = tuple(seq)
        self._rank = [0] * n
        for r, v in enumerate(seq, start=1):
            self._rank[v] = r

    @property
    def n(self) -> int:
        return len(self.sequence)

    def rank(self, v: int) -> int:
        return self._rank[v]

    @classmethod
    def reverse_id(cls, d: int) -> "VertexOrder":
        """Importance decreasing in vertex id; yields the subset labeling."""
        n = 1 << d
        return cls(list(range(n - 1, -1, -1)))

    @classmethod
    def random(cls, d: int, seed: int) -> "VertexOrder":
        rng = random.Random(seed)
        seq = list(range(1 << d))
        rng.shuffle(seq)
        return cls(seq)


#: Bytes of store per label entry: one 'i' hub plus one 'i' distance.
ENTRY_BYTES = 8
#: Bytes per entry of `canonical_labeling`, which has one entry per
#: subcube: the store's 8, plus 4 for the one per-subcube 'i' array alive
#: beside it (the label buckets, freed as the store is written). Before
#: that, the tops table and the buckets take 8 together, and the tops
#: table and its expansion at most 28/3.
CANONICAL_ENTRY_BYTES = ENTRY_BYTES + 4


def fits_store_budget(entries: int, entry_bytes: int = ENTRY_BYTES) -> bool:
    """Whether `entries` entries, `entry_bytes` bytes each at peak, fit the store budget."""
    return fits(entries * entry_bytes, "store bytes")


def _fingerprint(d: int, graph: Optional[Graph]):
    return graph.fingerprint() if graph is not None else hypercube_fingerprint(d)


def subset_hhl(d: int, graph: Optional[Graph] = None) -> Labeling:
    """L(v) = all ids that are bit-subsets of v; hierarchical, size 3^d.

    With c = ceil(d/2) low coordinates, L(v) is, for each subset hh of v's
    high half in ascending order, hh << c | L_low(v_low): a block of the
    table of hh, at distance popcount(v_high ^ hh) more than in Q_c."""
    check_dimension(d)
    check(f"subset_hhl(d={d})", 3 ** min(d, BITS) * ENTRY_BYTES, "store bytes")
    fingerprint = _fingerprint(d, graph)
    c = (d + 1) // 2
    low = ((w, popcount(v ^ w)) for v in range(1 << c) for w in range(v + 1) if not w & ~v)
    low_hubs, low_dists = (array("i", column) for column in zip(*low))  # L_low, label by label
    # per hh and per extra distance k, as bytes; L_low(v_low) ends at byte ends[v_low + 1]
    tables = [array("i", map((hh << c).__or__, low_hubs)).tobytes() for hh in range(1 << (d - c))]
    plus = [array("i", map(k.__add__, low_dists)).tobytes() for k in range(d - c + 1)]
    ends = list(accumulate((low_hubs.itemsize << popcount(v) for v in range(1 << c)), initial=0))
    offsets = array("q", accumulate((1 << popcount(v) for v in range(1 << d)), initial=0))
    hubs, dists = array("i", [0]) * 3 ** d, array("i", [0]) * 3 ** d
    out_hubs, out_dists = memoryview(hubs).cast("B"), memoryview(dists).cast("B")
    pos = 0
    for vh in range(1 << (d - c)):
        blocks = [(tables[hh], plus[popcount(vh ^ hh)]) for hh in range(vh + 1) if not hh & ~vh]
        for s in map(slice, ends, ends[1:]):
            label = b"".join([hub[s] for hub, _ in blocks])
            out_hubs[pos:pos + len(label)] = label
            out_dists[pos:pos + len(label)] = b"".join([dist[s] for _, dist in blocks])
            pos += len(label)
    return Labeling._from_arrays(offsets, hubs, dists, fingerprint)


def canonical_labeling(
    d: int, order: VertexOrder, graph: Optional[Graph] = None
) -> Labeling:
    """w is a hub of v iff w is the most important vertex of the subcube
    spanned by v and w. Hierarchical and minimal for the given order.

    So each of the 3^d subcubes gives exactly one entry: its top vertex, as
    a hub of the top's antipode in the subcube. Subcube j has ternary digit
    i equal to 0 or 1 where it fixes coordinate i to that value, and 2
    where coordinate i is free. A dynamic program over the digits finds the
    tops with one comparison per subcube: the top of a subcube whose
    highest free coordinate is i is the higher-ranked of the tops of its
    two halves, split at coordinate i.
    """
    check_dimension(d)
    check(f"canonical_labeling(d={d})", 3 ** min(d, BITS) * CANONICAL_ENTRY_BYTES, "store bytes")
    n = 1 << d
    if order.n != n:
        raise ValueError(f"order covers {order.n} vertices, hypercube has {n}")
    top = _subcube_tops(d, order._rank)
    # one entry per subcube, bucketed by label: the subcubes are walked in
    # blocks that share their high ternary digits, so the free coordinates
    # of subcube q * len(low_free) + r are high_free[q] | low_free[r]
    vertex = (None, *order.sequence)  # vertex of each rank
    c = (d + 1) // 2
    low_free, high_free = _free_masks(0, c), _free_masks(c, d)
    width = len(low_free)
    labels = [array("i") for _ in range(n)]
    append = [label.append for label in labels]
    for q, high in enumerate(high_free):
        tops = list(map(vertex.__getitem__, top[q * width:(q + 1) * width]))
        for owner, hub in zip(map(xor, tops, map(high.__or__, low_free)), tops):
            append[owner](hub)
    del top, append
    offsets, hubs, dists = array("q", [0]), array("i"), array("i")
    for v in range(n):
        label = sorted(labels[v])
        labels[v] = None
        hubs.extend(label)
        dists.extend(map(int.bit_count, map(v.__xor__, label)))
        offsets.append(len(hubs))
    return Labeling._from_arrays(offsets, hubs, dists, _fingerprint(d, graph))


def _subcube_tops(d: int, rank: Sequence[int]) -> array:
    """top[j] = the highest rank in subcube j, for the 3^d ternary ids j.

    Before step i the index holds the bits above coordinate i over the
    ternary digits below it; step i makes digit i ternary: each pair of
    halves (bit i = 0, 1) is followed by their merge (digit i = 2).
    """
    top = array("i", rank)
    width = 1
    for _ in range(d):
        old, top = top, array("i")
        for base in range(0, len(old), 2 * width):
            low, high = old[base:base + width], old[base + width:base + 2 * width]
            top += low
            top += high
            top.extend(map(max, low, high))
        width *= 3
    return top


def _free_masks(lo: int, hi: int) -> list[int]:
    """The free coordinates, as bitmasks, of the ternary digit patterns over
    coordinates lo..hi-1, in ascending order of their ternary value."""
    masks = [0]
    for i in range(lo, hi):
        bit = 1 << i
        masks = masks + masks + [m | bit for m in masks]
    return masks


def halfsplit_sizes(d: int) -> tuple[int, int]:
    """(deduplicated total, two-family formula total) for the half-split HL."""
    lo, hi = d // 2, d - d // 2
    n = 1 << d
    return n * ((1 << hi) + (1 << lo) - 1), n * ((1 << hi) + (1 << lo))


def halfsplit_hl(d: int, graph: Optional[Graph] = None) -> Labeling:
    """L(v) = ids sharing v's first floor(d/2) bits, plus ids sharing v's
    last ceil(d/2) bits. Valid HL, non-hierarchical for d >= 1.

    Hubs are stored deduplicated (v belongs to both families); the
    two-family size formula remains an upper bound, see halfsplit_sizes.
    """
    check_dimension(d)
    check(f"halfsplit_hl(d={d})", halfsplit_sizes(min(d, BITS))[0] * ENTRY_BYTES, "store bytes")
    fingerprint = _fingerprint(d, graph)
    n = 1 << d
    size_a, size_b = 1 << (d - d // 2), 1 << (d // 2)  # family B fixes the last ceil(d/2) bits
    width = size_a + size_b - 1
    # family A of head h holds h * size_a + u, at distance popcount(t ^ u)
    # from v; family B of tail t holds u * size_a + t, at popcount(h ^ u)
    fam_b = [array("i", range(t, n, size_a)) for t in range(size_a)]
    dist_a = [array("i", [popcount(t ^ u) for u in range(size_a)]) for t in range(size_a)]
    offsets = array("q", range(0, n * width + 1, width))
    hubs, dists = array("i", [0]) * (n * width), array("i", [0]) * (n * width)
    pos = 0
    for h in range(size_b):
        # ascending: family B below head, family A (holding v), family B above
        a = array("i", range(h * size_a, (h + 1) * size_a))
        below, above = dist_a[h][:h], dist_a[h][h + 1:size_b]  # size_b <= size_a
        for b, da in zip(fam_b, dist_a):
            hubs[pos:pos + width] = b[:h] + a + b[h + 1:]
            dists[pos:pos + width] = below + da + above
            pos += width
    return Labeling._from_arrays(offsets, hubs, dists, fingerprint)


def halfsplit_common_hub(d: int, s: int, t: int) -> int:
    """The on-path common hub (first half of t, last half of s)."""
    low_mask = (1 << (d - d // 2)) - 1
    return (t & ~low_mask) | (s & low_mask)
