import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from maxkcut.buckets import SearchState
from maxkcut.graph import (
    Graph,
    GraphFormatError,
    _header_line,
    parse_instance,
    triples,
    write_instance,
)
from maxkcut.partition import random_initial

TRIANGLE_TEXT = "3 3\n1 2 1\n1 3 2\n2 3 3"


def test_parse_triangle():
    g = parse_instance(TRIANGLE_TEXT)
    assert g.n == 3
    assert set(triples(g.edges)) == {(0, 1, 1), (0, 2, 2), (1, 2, 3)}


def test_parse_empty_edge_set():
    g = parse_instance("2 0")
    assert g.n == 2
    assert g.edges == ()
    assert g.max_degree == 0


def test_parse_ignores_blank_lines():
    g = parse_instance("\n3 3\n\n1 2 1\n1 3 2\n\n2 3 3\n\n")
    assert g.m == 3


def test_vertex_id_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range at line 2"):
        parse_instance("3 1\n1 4 1")


def test_self_loop_rejected():
    with pytest.raises(GraphFormatError, match="self-loop at line 2"):
        parse_instance("3 1\n2 2 1")


def test_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError, match="duplicate edge at line 4"):
        parse_instance("3 2\n1 2 1\n\n2 1 5")


def test_from_edges_error_carries_edge_index():
    with pytest.raises(GraphFormatError) as err:
        Graph.from_edges(3, [(0, 1, 1), (2, 2, 1)])
    assert (err.value.reason, err.value.edge) == ("self-loop", 1)
    assert "in edge 1" in str(err.value)
    with pytest.raises(GraphFormatError, match="out of range in edge 0"):
        Graph.from_edges(2, [(0, 2, 1)])


@pytest.mark.parametrize("edge", [(0, 2, 1.5), (0.9, 2, 2), ("1", 2, 1), (1, 2, None)])
def test_from_edges_rejects_non_integers(edge):
    # truncating 1.5 to 1 or parsing "1" would make a different graph
    with pytest.raises(GraphFormatError, match="not an integer in edge 1"):
        Graph.from_edges(3, [(0, 1, 1), edge])


@pytest.mark.parametrize("edge", [(0, 1), (0, 1, 1, 2), 5])
def test_from_edges_rejects_non_triples(edge):
    with pytest.raises(GraphFormatError) as err:
        Graph.from_edges(3, [(0, 2, 1), edge])
    assert (err.value.reason, err.value.edge) == ("edge is not a (u, v, w) triple", 1)


@pytest.mark.parametrize("n", [2.5, "3", None])
def test_from_edges_rejects_non_integer_vertex_count(n):
    with pytest.raises(ValueError, match=f"vertex count {n!r} is not an integer"):
        Graph.from_edges(n, [])


def test_from_edges_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph.from_edges(-1, [])


def test_from_edges_accepts_integer_subclasses():
    g = Graph.from_edges(3, [(0, 1, True), (0, 2, 2)])
    assert g.edges == (0, 1, 1, 0, 2, 2)
    assert all(type(x) is int for x in g.edges)


def test_token_errors_are_reported_before_edge_checks():
    # edge lines are tokenized before Graph.from_edges validates them
    with pytest.raises(GraphFormatError, match="malformed edge.* at line 3"):
        parse_instance("3 2\n1 4 1\n1 x 1")


def test_edge_count_mismatch():
    with pytest.raises(GraphFormatError, match="promised 3 edges, found 2"):
        parse_instance("3 3\n1 2 1\n1 3 2")


def test_malformed_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse_instance("hello world extra")
    with pytest.raises(GraphFormatError, match="header"):
        parse_instance("3")


@pytest.mark.parametrize("text,message", [
    ("", "empty input"),
    ("\n  \n", "empty input"),
    ("3 x\n", "malformed header, expected 'n m' at line 1"),
    ("\n3 -1\n", "negative count in header at line 2"),
    ("3 1\n1 2\n", "malformed edge, expected 'u v w' at line 2"),
    ("3 1\n1 2 1 4\n", "malformed edge, expected 'u v w' at line 2"),
    # line 3 repeats line 2's edge; the malformed line 5 is still reported
    ("3 3\n1 2 1\n2 1 1\n\n1 x 1\n", "malformed edge, expected integers 'u v w' at line 5"),
    # the edge error comes first and valid lines follow it
    ("2 3\n1 5 1\n1 2 1\n2 1 1\n", "vertex id out of range at line 2$"),
], ids=["empty", "blank", "header-non-integer", "header-negative",
        "edge-two-fields", "edge-four-fields", "edge-error-then-malformed-line",
        "edge-error-then-valid-lines"])
def test_parse_rejects_malformed_text(text, message):
    with pytest.raises(GraphFormatError, match=message):
        parse_instance(text)


def test_negative_weights_allowed():
    g = parse_instance("2 1\n1 2 -7")
    assert g.edges == (0, 1, -7)
    assert g.max_abs_incident_weight == g.max_abs_weight == 7


def test_adjacency_symmetric():
    g = parse_instance(TRIANGLE_TEXT)
    for u in range(g.n):
        for v, w in g.adjacency[u]:
            assert (u, w) in g.adjacency[v]


def test_isolated_vertices_permitted():
    g = parse_instance("5 1\n1 2 1")
    assert g.n == 5
    assert g.adjacency[4] == ()


def test_stats_triangle():
    g = parse_instance(TRIANGLE_TEXT)
    assert (g.n, g.m) == (3, 3)
    assert g.max_degree == 2
    assert g.max_abs_incident_weight == 5


def test_stats_edgeless():
    g = parse_instance("2 0")
    assert (g.n, g.m) == (2, 0)
    assert g.max_degree == 0
    assert g.max_abs_incident_weight == 0


def test_stats_star():
    g = Graph.from_edges(5, [(0, i, 1) for i in range(1, 5)])
    assert g.max_degree == 4
    assert g.max_abs_incident_weight == 4


def test_nonzero_edges_drop_zero_weights_in_order():
    g = Graph.from_edges(4, [(0, 1, 2), (1, 2, 0), (2, 3, -1), (0, 3, 0), (0, 2, 5)])
    assert g.edges == (0, 1, 2, 1, 2, 0, 2, 3, -1, 0, 3, 0, 0, 2, 5)
    assert g.nonzero_edges == (0, 1, 2, 2, 3, -1, 0, 2, 5)
    assert g.m == 5


def test_nonzero_edges_alias_edges_without_zero_weights():
    g = Graph.from_edges(3, [(0, 1, 1), (1, 2, -3)])
    assert g.edges == (0, 1, 1, 1, 2, -3)
    assert g.nonzero_edges is g.edges
    assert Graph.from_edges(3, [(0, 1, 1), (1, 2, 0)]).nonzero_edges == (0, 1, 1)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    edges = [(u, v, draw(st.integers(min_value=-9, max_value=9))) for u, v in chosen]
    return Graph.from_edges(n, edges)


@given(graphs())
def test_roundtrip(g):
    assert parse_instance(write_instance(g)) == g


@given(graphs())
def test_adjacency_weight_sum_is_double_edge_sum(g):
    adj_total = sum(w for a in g.adjacency for _, w in a)
    assert adj_total == 2 * sum(g.edges[2::3])


@given(graphs())
def test_from_edges_reads_an_iterator(g):
    assert Graph.from_edges(g.n, triples(g.edges)) == g


@given(graphs())
def test_nonzero_edges_filter_edges(g):
    kept = [e for e in triples(g.edges) if e[2] != 0]
    assert list(triples(g.nonzero_edges)) == kept


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("last,reason", [
    ("1 4 1", "vertex id out of range"),
    ("3 3 1", "self-loop"),
    ("2 1 5", "duplicate edge"),
])
def test_edge_errors_report_their_line_past_blank_lines(newline, last, reason):
    # lines 1-2 blank before the header, 4 and 6-7 between edges, 9-10
    # just before the offending last edge on line 11
    lines = ["", " \t ", "3 3", "\t", "1 2 1", "  ", "", "2 3 1", " ", "", f" {last} ", ""]
    with pytest.raises(GraphFormatError) as err:
        parse_instance(newline.join(lines))
    assert (err.value.reason, err.value.line) == (reason, 11)


# Every line break str.splitlines knows.
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
]


@pytest.mark.parametrize("brk", ["\x0b", "\u2028"], ids=["x0b", "u2028"])
def test_edge_error_after_an_unusual_header_break_keeps_its_line(brk):
    # The header is read off a prefix of the text, the edges off the whole
    # text; both count the same lines, blank ones included.
    with pytest.raises(GraphFormatError) as err:
        parse_instance(f"3 1{brk}1 x 1\n")
    assert (err.value.reason, err.value.line) == ("malformed edge, expected integers 'u v w'", 2)
    with pytest.raises(GraphFormatError) as err:
        parse_instance(f"{brk} {brk}3 2{brk}1 2 1{brk}{brk}1 4 1{brk}")
    assert (err.value.reason, err.value.line) == ("vertex id out of range", 6)


@given(
    pad=st.lists(st.sampled_from([" ", "\t"] + LINE_BREAKS), max_size=80),
    header=st.sampled_from(["3 1", "x", "3 1 " + "9" * 70]),
    ends=st.lists(st.sampled_from(LINE_BREAKS), min_size=1, max_size=3),
    rest=st.sampled_from(["", "1 2 1", "\r\n1 2 1\n"]),
)
def test_header_line_is_the_first_non_blank_line_of_the_whole_text(pad, header, ends, rest):
    # Blank padding puts the header, and breaks such as \r\n, on each side
    # of the first prefix's end (64 characters) and of its doublings.
    text = "".join(pad) + header + "".join(ends) + rest
    first = next((i, line) for i, line in enumerate(text.splitlines(), 1) if line.strip())
    assert _header_line(text) == first


def test_header_refusal_reads_only_a_prefix():
    # A check_n that refuses the header ends the parse before the text is
    # split into lines: the peak does not grow with the 4.1 MB of edge lines
    # (splitting first peaked at 21.1 MB).
    text = "100000 300000\n" + "".join(
        f"{v + 1} {v % 99_999 + 2} 1\n" for v in range(300_000))
    assert len(text) > 4_000_000

    def refuse(n):
        raise ValueError(f"n={n} refused")

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n=100000 refused"):
            parse_instance(text, refuse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1e6


def _random_instance_text(n: int, m: int, weights, seed: int) -> str:
    rng = random.Random(seed)
    pairs = set()
    lines = [f"{n} {m}"]
    while len(pairs) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        if (u, v) not in pairs:
            pairs.add((u, v))
            lines.append(f"{u} {v} {rng.choice(weights)}")
    return "\n".join(lines) + "\n"


# On CPython 3.11 the graph holds 1.58 MB (sparse) and 0.82 MB (dense), and
# the parse peaks at 3.96 and 3.41 MB.  A tuple per edge made them 2.05 and
# 1.74 MB held and 4.44 and 4.28 MB peak, over every bound here.  The bounds
# leave ~20 % (held) and ~11 % (peak) for other CPython versions.
@pytest.mark.parametrize("n,m,weights,max_held,max_peak", [
    (10_000, 9999, [1], 1.9e6, 4.4e6),
    (800, 19176, [1, -1], 1.0e6, 3.8e6),
], ids=["sparse-large-shape", "dense-shape"])
def test_parsed_graph_memory(n, m, weights, max_held, max_peak):
    text = _random_instance_text(n, m, weights, seed=5)
    tracemalloc.start()
    try:
        g = parse_instance(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= max_held
    assert peak <= max_peak
    entries = [pair for adj in g.adjacency for pair in adj]
    assert len({id(pair) for pair in entries}) == len(set(entries))
    ids = [x for i, x in enumerate(g.edges) if i % 3 != 2] + [v for v, _ in entries]
    assert len({id(v) for v in ids}) == len(set(ids))


def test_search_state_memory():
    # The gain table of the sparse shape above, k = 2: one list of n cell
    # indices per subset.  On CPython 3.11 the built state holds 0.83 MB; a
    # list per vertex made it 1.47 MB.  The bound leaves ~30 % for other
    # CPython versions.
    g = parse_instance(_random_instance_text(10_000, 9999, [1], seed=5))
    p = random_initial(g, 2, random.Random(5))
    tracemalloc.start()
    try:
        s = SearchState(g, p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert s.f > 0
    assert held <= 1.1e6
