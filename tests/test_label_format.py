"""Property tests for the label text format: round trips and typed rejections."""
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hublab.constructions import halfsplit_hl, subset_hhl
from hublab.labeling import (
    Labeling,
    LabelingFormatError,
    load_labeling,
    parse_labeling,
    save_labeling,
    serialize_labeling,
)

from conftest import with_extra_lines


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


# --- files: written and read one line at a time, as the text is ---

FILE_TEST = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(read, source):
    """(labeling, fingerprint) read from source, or the format error's message."""
    try:
        lab = read(source)
    except LabelingFormatError as e:
        return str(e)
    return lab, lab.fingerprint


def assert_file_reads_as_text(text, path):
    with open(path, "w", newline="") as f:  # keep the text's own line endings
        f.write(text)
    assert outcome(load_labeling, path) == outcome(parse_labeling, text)


@FILE_TEST
@given(labelings(), st.randoms(use_true_random=False))
def test_file_roundtrip_equals_text(tmp_path, lab, rnd):
    path = tmp_path / "lab.hl"
    save_labeling(lab, path)
    assert path.read_bytes() == serialize_labeling(lab).encode()
    assert outcome(load_labeling, path) == (lab, lab.fingerprint)
    head, body = split_text(lab)
    rnd.shuffle(body)
    assert_file_reads_as_text(with_extra_lines("\n".join(head + body), rnd), path)


@FILE_TEST
@given(labelings(min_n=1), st.sampled_from(KINDS), st.randoms(use_true_random=False))
def test_load_of_malformed_file_equals_parse(tmp_path, lab, kind, rnd):
    text = corrupt(lab, kind, rnd)
    if text is None:
        return
    assert_file_reads_as_text(with_extra_lines(text, rnd), tmp_path / "bad.hl")


@FILE_TEST
@given(st.text("HLgraph#-0123456789 \n\r", max_size=80))
def test_load_of_arbitrary_file_equals_parse(tmp_path, body):
    for text in (body, "HL 3\n" + body):
        assert_file_reads_as_text(text, tmp_path / "any.hl")


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_newlines_end_a_file_line(tmp_path, sep):
    # str.splitlines ends a line at sep, a file line runs on through it
    # (str.split still takes sep as a blank between fields)
    text = f"HL 2\n0 1 0 0{sep}1 1 1 0\n"
    assert parse_labeling(text) == Labeling([[(0, 0)], [(1, 0)]])
    path = tmp_path / "sep.hl"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(LabelingFormatError, match="^line 2: declared 1 hubs, found 3$"):
        load_labeling(path)


def test_save_and_load_stay_near_the_store_size(tmp_path):
    # neither holds the whole text in memory: peak traced allocations of
    # each stay below 2.5x the store's own bytes
    lab = halfsplit_hl(10)
    store = sum(a.itemsize * len(a) for a in (lab.offsets, lab.hubs, lab.dists))
    path = tmp_path / "h10.hl"
    tracemalloc.start()
    try:
        save_labeling(lab, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        again = load_labeling(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert again == lab
    assert save_peak < 2.5 * store and load_peak < 2.5 * store, (save_peak, load_peak, store)


def test_save_peak_is_one_label_not_the_store(tmp_path):
    # the subset labeling of Q10 stores 59,049 entries (0.45 MiB of hubs and
    # dists) and its largest label has 1,024; the writer holds the text of
    # each distinct value and one label's line (about 0.15 MiB), not a copy
    # of the store interleaved (0.6 MiB)
    lab = subset_hhl(10)
    largest = max(b - a for a, b in zip(lab.offsets, lab.offsets[1:]))
    tracemalloc.start()
    try:
        save_labeling(lab, tmp_path / "s10.hl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (1 << 18) + 32 * largest, (peak, largest)
