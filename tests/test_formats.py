import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from girthlab import formats
from girthlab.errors import ParseError, Unsupported
from girthlab.formats import (
    from_edge_json,
    graph6_decode,
    graph6_encode,
    load_graph,
    to_dot,
    to_edge_json,
)
from girthlab.graph import Graph
from girthlab.rng import XorShift64Star


@st.composite
def graphs(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


def test_single_edge_bytes():
    assert graph6_encode(Graph(2, [(0, 1)])) == b"A_"
    assert bytes([65, 95]) == b"A_"


def test_triangle_bytes():
    assert graph6_encode(Graph(3, [(0, 1), (0, 2), (1, 2)])) == b"Bw"


def test_round_trip_500_random():
    rng = XorShift64Star(2024)
    for _ in range(500):
        n = rng.below(63)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.bernoulli(40, 100)
        ]
        g = Graph(n, edges)
        assert graph6_decode(graph6_encode(g)) == g


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_round_trip_property(g):
    assert graph6_decode(graph6_encode(g)) == g


def _nx_graph(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


@given(graphs(max_n=15))
@settings(max_examples=60, deadline=None)
def test_matches_networkx(g):
    """networkx is the independent encoder oracle."""
    ours = graph6_encode(g)
    theirs = nx.to_graph6_bytes(_nx_graph(g), header=False).strip()
    assert ours == theirs


def test_decode_rejects_garbage():
    with pytest.raises(ParseError):
        graph6_decode(b"")
    with pytest.raises(ParseError):
        graph6_decode(b"\x01\x02")
    with pytest.raises(ParseError):
        graph6_decode(b"B")  # truncated body
    with pytest.raises(ParseError):
        graph6_decode(b"A`")  # nonzero padding


def test_header_prefix_accepted():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert graph6_decode(b">>graph6<<Bw\n") == g


def test_large_graph_rejected():
    with pytest.raises(Unsupported):
        graph6_encode(Graph(63))
    with pytest.raises(Unsupported):
        graph6_decode(bytes([126, 66, 66, 66]))


def test_edge_json_round_trip():
    g = Graph(4, [(0, 2), (1, 3)])
    assert from_edge_json(to_edge_json(g)) == g


def test_edge_json_errors():
    with pytest.raises(ParseError):
        from_edge_json("not json")
    with pytest.raises(ParseError):
        from_edge_json('{"edges": []}')


@pytest.mark.parametrize("text", [
    '{"n": 1e400, "edges": []}', '{"n": 3, "edges": [[0, -1e400]]}',
    '{"n": 3, "edges": [[0, NaN]]}', "[" * 100_000, b'{"n": \xff}',
    '{"n": 1' + "0" * 5000 + ', "edges": []}'])
def test_edge_json_errors_are_parse_errors(text):
    with pytest.raises(ParseError):
        from_edge_json(text)


def test_undecodable_json_file_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"n": 1, "edges": []}\xff')
    with pytest.raises(ParseError):
        load_graph(str(path))
    path.write_bytes(b' {"n": 2, "edges": [[0, 1]]}\n')
    assert load_graph(str(path)) == Graph(2, [(0, 1)])


def test_non_ascii_graph6_text_is_a_parse_error():
    with pytest.raises(ParseError):
        graph6_decode("\u00e9")


def _fails_cleanly(parse, data):
    """A parser returns a graph or raises ParseError or Unsupported;
    anything else escaping it is a crash."""
    try:
        assert isinstance(parse(data), Graph)
    except (ParseError, Unsupported):
        pass


@given(st.one_of(st.binary(max_size=40), st.text(max_size=40),
                 st.builds(lambda g, tail: graph6_encode(g) + tail,
                           graphs(max_n=12), st.binary(max_size=3))))
@settings(max_examples=400, deadline=None)
def test_graph6_decode_fuzz(data):
    _fails_cleanly(graph6_decode, data)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


# n stays small whatever int() makes of it: a large n is a valid request
# for a large graph
_bounded_n = st.one_of(
    st.integers(-3, 40), st.floats(max_value=40),
    st.sampled_from([float("inf"), float("-inf")]), st.text(max_size=1),
    st.none(), st.booleans(), st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


@given(st.one_of(
    st.text(max_size=60),
    st.builds(json.dumps, st.fixed_dictionaries(
        {"n": _bounded_n,
         "edges": st.one_of(
             st.lists(st.lists(st.one_of(st.integers(-2, 45), st.floats(),
                                         st.text(max_size=3)),
                               max_size=3), max_size=6),
             _json_values)}))))
@settings(max_examples=400, deadline=None)
def test_from_edge_json_fuzz(text):
    _fails_cleanly(from_edge_json, text)


def test_dot_output():
    text = to_dot(Graph(3, [(0, 1)]))
    assert "0 -- 1;" in text and "2;" in text


def test_edge_json_vertex_cap():
    cap = formats._EDGE_JSON_MAX_N
    assert cap >= 8738  # the W(3,16) incidence graph
    assert from_edge_json(json.dumps({"n": cap, "edges": [[0, 1]]})).n == cap
    with pytest.raises(Unsupported):
        from_edge_json(json.dumps({"n": cap + 1, "edges": []}))
