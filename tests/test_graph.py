import random
import types

import pytest
from hypothesis import given, strategies as st

import blockslide
from blockslide import (
    BlockslideError,
    DuplicateEdgeError,
    Graph,
    NotIndependentError,
    SelfLoopError,
    TokenSet,
    VertexOutOfRangeError,
    connected_components,
)
from blockslide.oracle import mask_of
from conftest import fuzz_corpus
from reference_instance import reference_graph


def test_basic_adjacency(path3):
    assert path3.n == 3
    assert path3.adjacency == ((1,), (0, 2), (1,))
    assert path3.m == 2


def test_edge_normalisation():
    g = Graph(3, [(2, 0)])
    assert g.edges == frozenset({(0, 2)})
    assert g.m == 1 and repr(g) == "Graph(n=3, m=1)"


def test_graph_matches_tuple_keyed_reference():
    """m, adjacency and the lazily built edge set equal those of the
    tuple-keyed construction, for edges given in random order and
    orientation; equality and hashing follow the edge set."""
    rng = random.Random(5)
    for inst in fuzz_corpus(300):
        edge_list = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in inst.graph.edges]
        rng.shuffle(edge_list)
        g = Graph(inst.graph.n, edge_list)
        ref = reference_graph(inst.graph.n, edge_list)
        assert g.m == len(edge_list) == len(ref.edges)
        assert g.adjacency == ref.adjacency
        assert g.edges == ref.edges == {(min(e), max(e)) for e in edge_list}
        assert g == inst.graph and hash(g) == hash(inst.graph)
        assert all(v in g.adjacency[u] and u in g.adjacency[v] for u, v in edge_list)
    assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])


def _faulty_edge_list(rng):
    """A random simple edge list in random orientation and order, with zero
    to three faults put in at random places: a negative id, an id of n or
    more, a self-loop, or an edge given again in either orientation.  The
    vertex count is sometimes large enough to leave most vertices isolated."""
    n = rng.choice([rng.randint(0, 12), rng.randint(20, 80)])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n)))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.randrange(4)
        w = rng.randrange(n) if n else 0
        if kind == 0:
            bad = rng.randint(-n - 3, -1)
        elif kind == 1:
            bad = rng.randint(n, n + 3)
        if kind < 2:
            fault = (bad, w) if rng.random() < 0.5 else (w, bad)
        elif kind == 2:
            fault = (w, w)
        elif edges:
            u, v = rng.choice(edges)
            fault = (v, u) if rng.random() < 0.5 else (u, v)
        else:
            continue
        edges.insert(rng.randint(0, len(edges)), fault)
    return n, edges


def _graph_outcome(build, n, edges):
    try:
        g = build(n, edges)
    except BlockslideError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", g.adjacency, len(g.edges), g.edges)


def test_graph_matches_per_edge_reference_on_faulty_edge_lists():
    """The bulk checks after the append loop raise what the per-edge checks
    of the reference raise, the first fault in edge order, or build the
    same graph; for edges given as a list, a tuple or a one-shot iterator.
    Every isolated vertex shares one empty tuple."""
    rng = random.Random(77)
    seen = set()
    for i in range(6000):
        n, edges = _faulty_edge_list(rng)
        expected = _graph_outcome(reference_graph, n, edges)
        given_as = [list, tuple, iter, lambda es: (e for e in es)][i % 4]
        got = _graph_outcome(lambda n, es: Graph(n, given_as(es)), n, edges)
        assert got == expected, (n, edges)
        seen.add(expected[1].__name__ if expected[0] == "error" else "ok")
        if got[0] == "ok":
            g = Graph(n, edges)
            assert g.m == len(edges)
            assert len({id(row) for row in g.adjacency if not row}) <= 1
    assert seen == {
        "ok", "VertexOutOfRangeError", "SelfLoopError", "DuplicateEdgeError"
    }, seen


def test_duplicate_edge_reports_normalised_pair():
    with pytest.raises(DuplicateEdgeError) as exc:
        Graph(5, [(1, 4), (0, 2), (4, 1)])
    assert exc.value.edge == (1, 4)
    assert str(exc.value) == "duplicate edge (1, 4)"


def test_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        Graph(2, [(1, 1)])


def test_rejects_duplicate_edge_either_orientation():
    with pytest.raises(DuplicateEdgeError):
        Graph(2, [(0, 1), (1, 0)])


def test_rejects_out_of_range():
    with pytest.raises(VertexOutOfRangeError):
        Graph(2, [(0, 2)])
    with pytest.raises(VertexOutOfRangeError):
        Graph(2, [(-1, 0)])


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0
    assert connected_components(g) == []


def test_induced_subgraph(k4_pendant):
    sub, to_sub, to_orig = k4_pendant.induced([0, 1, 4])
    assert sub.n == 3
    assert sub.edges == frozenset({(0, 1), (0, 2)})  # 0-1 and 0-4 survive
    assert to_orig == [0, 1, 4]
    assert to_sub == {0: 0, 1: 1, 4: 2}


def test_token_set_validates_independence(path3):
    with pytest.raises(NotIndependentError):
        TokenSet(path3, [0, 1])
    ts = TokenSet(path3, [2, 0])
    assert ts.vertices == (0, 2)
    assert mask_of(ts) == 0b101
    assert ts == TokenSet(path3, [0, 2]) and hash(ts) == hash(TokenSet(path3, [0, 2]))
    assert ts != TokenSet(path3, [0]) and ts != (0, 2)
    assert 0 in ts and 1 not in ts
    assert len(ts) == 2


def test_token_set_error_carries_which(path3):
    with pytest.raises(NotIndependentError) as exc:
        TokenSet(path3, [0, 1], which="target")
    assert exc.value.which == "target"


def test_connected_components_ordering():
    g = Graph(5, [(3, 4), (0, 1)])
    comps = connected_components(g)
    assert comps == [frozenset({0, 1}), frozenset({2}), frozenset({3, 4})]


def test_connected_components_without_vertices():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert connected_components(g, without={1}) == [
        frozenset({0}), frozenset({2, 3}), frozenset({4, 5})
    ]
    assert connected_components(g, without=frozenset({0, 1, 2, 3})) == [
        frozenset({4, 5})
    ]


@given(st.integers(0, 8), st.data())
def test_components_partition_vertices(n, data):
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    g = Graph(n, edges)
    comps = connected_components(g)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == list(range(n))
    for u, v in edges:
        assert any(u in comp and v in comp for comp in comps)


def test_package_exports_no_submodules():
    for name in blockslide.__all__:
        assert not isinstance(getattr(blockslide, name), types.ModuleType), name


def test_package_all_names_resolve_once():
    assert len(set(blockslide.__all__)) == len(blockslide.__all__)
    for name in blockslide.__all__:
        assert hasattr(blockslide, name), name
