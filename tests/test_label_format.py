"""Property tests for the label text format: round trips and typed rejections."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hublab.labeling import (
    Labeling,
    LabelingFormatError,
    parse_labeling,
    serialize_labeling,
)


@st.composite
def labelings(draw, min_n=0):
    n = draw(st.integers(min_n, 8))
    dist = st.integers(0, (1 << 31) - 1) | st.integers(0, 8)
    labels = [
        [(h, draw(dist)) for h in sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))]
        for _ in range(n)
    ]
    fingerprint = draw(st.none() | st.tuples(
        st.just(n), st.integers(0, 100), st.text("0123456789abcdef", min_size=16, max_size=16)))
    return Labeling(labels, fingerprint=fingerprint)


def split_text(lab):
    """(header lines, one line per vertex) of the serialized labeling."""
    lines = serialize_labeling(lab).splitlines()
    head = 2 if lab.fingerprint is not None else 1
    return lines[:head], lines[head:]


@settings(max_examples=200, deadline=None)
@given(labelings(), st.randoms(use_true_random=False))
def test_roundtrip_any_line_order(lab, rnd):
    again = parse_labeling(serialize_labeling(lab))
    assert again == lab and again.fingerprint == lab.fingerprint
    head, body = split_text(lab)
    rnd.shuffle(body)
    again = parse_labeling("\n".join(head + body) + "\n")
    assert again == lab and again.fingerprint == lab.fingerprint
    assert serialize_labeling(again) == serialize_labeling(lab)


def corrupt(lab, kind, rnd):
    """Label text with one fault of the given kind."""
    head, body = split_text(lab)
    n = lab.n
    rows = [line.split() for line in body]
    full = [r for r in rows if int(r[1]) >= 1]
    pair = [r for r in rows if int(r[1]) >= 2]
    if kind == "bad count":
        r = rnd.choice(rows)
        r[1] = str(int(r[1]) + rnd.choice((1, -1) if int(r[1]) else (1,)))
    elif kind in ("unsorted hubs", "duplicate hub"):
        if not pair:
            return None
        r = rnd.choice(pair)
        if kind == "unsorted hubs":
            r[2:6] = r[4:6] + r[2:4]
        else:
            r[4] = r[2]
    elif kind in ("hub >= n", "hub >= 2^31", "negative distance"):
        if not full:
            return None
        r = rnd.choice(full)
        i = 2 + 2 * rnd.randrange(int(r[1]))
        if kind == "hub >= n":
            r[i] = str(n + rnd.randrange(3))
        elif kind == "hub >= 2^31":
            r[i] = str((1 << 31) + rnd.randrange(3))
        else:
            r[i + 1] = str(-1 - rnd.randrange(3))
    elif kind == "duplicate vertex":
        if not rows:
            return None
        rows.insert(rnd.randrange(len(rows) + 1), list(rnd.choice(rows)))
    elif kind == "missing vertex":
        if not rows:
            return None
        del rows[rnd.randrange(len(rows))]
    rnd.shuffle(rows)
    return "\n".join(head + [" ".join(r) for r in rows]) + "\n"


KINDS = ("bad count", "unsorted hubs", "duplicate hub", "hub >= n", "hub >= 2^31",
         "negative distance", "duplicate vertex", "missing vertex")


@settings(max_examples=100, deadline=None)
@given(labelings(min_n=1), st.sampled_from(KINDS), st.randoms(use_true_random=False))
def test_malformed_text_raises_format_error(lab, kind, rnd):
    text = corrupt(lab, kind, rnd)
    if text is None:  # the labeling has no entry of the shape this fault needs
        return
    with pytest.raises(LabelingFormatError):
        parse_labeling(text)


@settings(max_examples=300, deadline=None)
@given(st.text("HLgraph#-0123456789 \n", max_size=80))
def test_arbitrary_text_parses_or_raises_format_error(body):
    for text in (body, "HL 3\n" + body):
        try:
            lab = parse_labeling(text)
        except LabelingFormatError:
            continue
        assert parse_labeling(serialize_labeling(lab)) == lab


def test_corruptions_cover_every_kind():
    # each kind of fault is actually produced for a labeling that has room for it
    lab = Labeling([[(0, 0), (1, 1), (2, 1)], [(0, 1), (1, 0)], [(2, 0)]])
    rnd = random.Random(0)
    for kind in KINDS:
        text = corrupt(lab, kind, rnd)
        assert text is not None and text != serialize_labeling(lab)
        with pytest.raises(LabelingFormatError):
            parse_labeling(text)
