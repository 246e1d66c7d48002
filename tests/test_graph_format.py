"""Property tests for the graph text format: round trips and typed rejections."""
import random
import tracemalloc

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
    save_graph,
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


# a graph without the hypercube header, for the errors of plain graph files
PLAIN6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])

#: The error each single fault raises, by graph and kind; `corrupt` draws
#: its fault with random.Random(0). The hypercube kinds need a flagged graph.
SINGLE_FAULT_ERRORS = {
    ("Q3", "vertex count not an integer"): "line 2: expected 'n m' header",
    ("Q3", "negative vertex count"): "line 2: negative vertex count -4",
    ("Q3", "edge count not an integer"): "line 2: edge count '1e3' is not an integer",
    ("Q3", "negative edge count"): "line 2: negative edge count -4",
    ("Q3", "wrong edge count"): "header declares 11 edges, found 12",
    ("Q3", "header fields"): "line 2: expected 'n m' header",
    ("Q3", "endpoint not an integer"): "line 9: expected integer endpoints 'u v'",
    ("Q3", "endpoint out of range"): "edge (2,-2) out of range for n=8",
    ("Q3", "self-loop"): "self-loop at vertex 6",
    ("Q3", "duplicate edge"): "duplicate edge (2, 6)",
    ("Q3", "edge fields"): "line 9: expected 'u v'",
    ("Q3", "hypercube dimension not an integer"):
        "line 1: hypercube dimension '2.0' is not an integer",
    ("Q3", "negative hypercube dimension"): "line 1: negative hypercube dimension -4",
    ("Q3", "wrong hypercube dimension"): "hypercube d=4 needs 2^4 vertices, got 8",
    ("Q3", "missing header"): "missing 'n m' header",
    ("plain6", "vertex count not an integer"): "line 1: expected 'n m' header",
    ("plain6", "negative vertex count"): "line 1: negative vertex count -4",
    ("plain6", "edge count not an integer"): "line 1: edge count '1e3' is not an integer",
    ("plain6", "negative edge count"): "line 1: negative edge count -4",
    ("plain6", "wrong edge count"): "header declares 6 edges, found 7",
    ("plain6", "header fields"): "line 1: expected 'n m' header",
    ("plain6", "endpoint not an integer"): "line 8: expected integer endpoints 'u v'",
    ("plain6", "endpoint out of range"): "edge (4,-1) out of range for n=6",
    ("plain6", "self-loop"): "self-loop at vertex 5",
    ("plain6", "duplicate edge"): "duplicate edge (4, 5)",
    ("plain6", "edge fields"): "line 8: expected 'u v'",
    ("plain6", "missing header"): "missing 'n m' header",
}


@pytest.mark.parametrize("name,kind", SINGLE_FAULT_ERRORS)
def test_single_fault_error_is_pinned(name, kind):
    g = {"Q3": hypercube(3), "plain6": PLAIN6}[name]
    text = corrupt(g, kind, random.Random(0))
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert (type(err.value), str(err.value)) == (GraphFormatError, SINGLE_FAULT_ERRORS[name, kind])


def test_pinned_errors_cover_every_applicable_kind():
    for name, g in (("Q3", hypercube(3)), ("plain6", PLAIN6)):
        applicable = {k for k in KINDS if corrupt(g, k, random.Random(0)) is not None}
        assert applicable == {k for n, k in SINGLE_FAULT_ERRORS if n == name}


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


@pytest.mark.parametrize("g", [hypercube(d) for d in range(9)] + [PLAIN6, Graph(0, [])])
def test_save_graph_writes_the_text(tmp_path, g):
    path = tmp_path / "g.txt"
    save_graph(g, path)
    assert path.read_bytes() == serialize_graph(g).encode()


def test_load_holds_only_the_adjacency(tmp_path):
    # Q10 held 0.75 MiB and peaked at 1.7 MiB while an edge tuple, per-edge
    # int copies in the adjacency and a set of seen edges were kept; now
    # about 0.15 and 0.23 MiB
    path = tmp_path / "q10.g"
    save_graph(hypercube(10), path)
    tracemalloc.start()
    try:
        g = load_graph(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.is_hypercube == 10
    assert held < 0.3 * (1 << 20) and peak < 0.5 * (1 << 20), (held, peak)
