"""Property tests for the graph text format: round trips and typed rejections."""
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hublab.graph import (
    MAX_GRAPH_N,
    BudgetError,
    Graph,
    GraphFormatError,
    hypercube,
    load_graph,
    parse_graph,
    serialize_graph,
)

from conftest import with_extra_lines


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(0, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    # either orientation and any order: the graph normalizes both
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    return Graph(n, edges)


def assert_same(a, b):
    assert (a.n, a.edges, a.is_hypercube) == (b.n, b.edges, b.is_hypercube)
    assert a.fingerprint() == b.fingerprint()


@settings(max_examples=200, deadline=None)
@given(simple_graphs() | st.integers(0, 6).map(hypercube))
def test_roundtrip(g):
    again = parse_graph(serialize_graph(g))
    assert_same(again, g)
    assert serialize_graph(again) == serialize_graph(g)


def corrupt(g, kind, rnd):
    """Graph text with one fault of the given kind."""
    lines = serialize_graph(g).splitlines()
    head = 1 if g.is_hypercube is not None else 0
    n, m = g.n, g.m
    edges = [line.split() for line in lines[head + 1:]]
    if kind == "vertex count not an integer":
        lines[head] = f"{rnd.choice(['two', '1.5', '0x4', ''])} {m}"
    elif kind == "negative vertex count":
        lines[head] = f"{-1 - rnd.randrange(4)} {m}"
    elif kind == "edge count not an integer":
        lines[head] = f"{n} {rnd.choice(['x', '1e3', '-'])}"
    elif kind == "negative edge count":
        lines[head] = f"{n} {-1 - rnd.randrange(4)}"
    elif kind == "wrong edge count":
        lines[head] = f"{n} {m + rnd.choice((1, -1) if m else (1,))}"
    elif kind == "header fields":
        lines[head] = f"{n} {m} {rnd.randrange(9)}"
    elif kind in ("endpoint not an integer", "endpoint out of range",
                  "self-loop", "duplicate edge", "edge fields"):
        if not edges:
            return None
        e = rnd.choice(edges)
        i = rnd.randrange(2)
        if kind == "endpoint not an integer":
            e[i] = rnd.choice(["a", "1.0", "--1"])
        elif kind == "endpoint out of range":
            e[i] = str(rnd.choice([n + rnd.randrange(3), -1 - rnd.randrange(3)]))
        elif kind == "self-loop":
            e[1 - i] = e[i]
        elif kind == "duplicate edge":
            edges.append(list(reversed(e)) if i else list(e))
            lines[head] = f"{n} {m + 1}"
        else:
            e.append("1")
        lines = lines[:head + 1] + [" ".join(e) for e in edges]
    elif kind in ("hypercube dimension not an integer", "negative hypercube dimension",
                  "wrong hypercube dimension"):
        if g.is_hypercube is None:
            return None
        lines[0] = "# hypercube d=" + {
            "hypercube dimension not an integer": rnd.choice(["x", "2.0", ""]),
            "negative hypercube dimension": str(-1 - rnd.randrange(4)),
            "wrong hypercube dimension": str(g.is_hypercube + rnd.choice((1, 2, 40))),
        }[kind]
    elif kind == "missing header":
        lines = lines[:head]
    return "\n".join(lines) + "\n"


KINDS = (
    "vertex count not an integer", "negative vertex count", "edge count not an integer",
    "negative edge count", "wrong edge count", "header fields", "endpoint not an integer",
    "endpoint out of range", "self-loop", "duplicate edge", "edge fields",
    "hypercube dimension not an integer", "negative hypercube dimension",
    "wrong hypercube dimension", "missing header",
)


@settings(max_examples=300, deadline=None)
@given(simple_graphs() | st.integers(0, 5).map(hypercube), st.sampled_from(KINDS),
       st.randoms(use_true_random=False))
def test_malformed_text_raises_format_error(g, kind, rnd):
    text = corrupt(g, kind, rnd)
    if text is None:  # the graph has no part of the shape this fault needs
        return
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_corruptions_cover_every_kind():
    rnd = random.Random(0)
    g = hypercube(2)
    for kind in KINDS:
        text = corrupt(g, kind, rnd)
        assert text is not None and text != serialize_graph(g)
        with pytest.raises(GraphFormatError):
            parse_graph(text)


@pytest.mark.parametrize("text", [
    "-3 0\n", "two 1\n", "0 x\n", "# hypercube d=x\n1 0\n", "# hypercube d=-1\n1 0\n",
    "# hypercube d=99999999999\n1 0\n", "3 1\n0 y\n", "",
])
def test_reported_inputs_raise_format_error(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_vertex_count_over_budget():
    with pytest.raises(BudgetError):
        parse_graph(f"{MAX_GRAPH_N + 1} 0\n")
    with pytest.raises(BudgetError):
        parse_graph("9" * 60 + " 0\n")


# lines of small integers and header words, so every parsed graph stays tiny
WORDS = st.integers(-2, 9).map(str) | st.sampled_from(
    ["#", "hypercube", "d=0", "d=1", "d=2", "d=-1", "d=x", "x", "1.5", "--1"])
TEXTS = st.lists(st.lists(WORDS, max_size=4).map(" ".join), max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_arbitrary_text_parses_or_raises_format_error(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    assert_same(parse_graph(serialize_graph(g)), g)


# --- files: read one line at a time by the parser of the text ---

FILE_TEST = settings(max_examples=50, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(read, source):
    """The graph read from source as comparable fields, or the error's type and message."""
    try:
        g = read(source)
    except (GraphFormatError, BudgetError) as e:
        return type(e), str(e)
    return g.n, g.edges, g.is_hypercube, g.fingerprint()


def assert_file_reads_as_text(text, path):
    with open(path, "w", newline="") as f:  # keep the text's own line endings
        f.write(text)
    assert outcome(load_graph, path) == outcome(parse_graph, text)


@FILE_TEST
@given(simple_graphs() | st.integers(0, 5).map(hypercube),
       st.sampled_from((None,) + KINDS), st.randoms(use_true_random=False))
def test_load_equals_parse(tmp_path, g, kind, rnd):
    text = serialize_graph(g) if kind is None else corrupt(g, kind, rnd)
    if text is None:
        return
    assert_file_reads_as_text(with_extra_lines(text, rnd), tmp_path / "g.txt")


@FILE_TEST
@given(TEXTS)
def test_load_of_arbitrary_file_equals_parse(tmp_path, text):
    assert_file_reads_as_text(text, tmp_path / "any.txt")
    assert_file_reads_as_text(text.replace("\n", "\r\n"), tmp_path / "any.txt")
