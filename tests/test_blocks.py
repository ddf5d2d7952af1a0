import random
import signal

import pytest

from blockslide import (
    Graph,
    InternalError,
    InvalidPairError,
    Pair,
    TO_BLOCK,
    TO_VERTEX,
    decompose,
    is_block_graph,
)
from conftest import fuzz_corpus, slow_beta, slow_kappa


def test_path3_decomposition(path3):
    bd = decompose(path3)
    assert bd.blocks == (frozenset({0, 1}), frozenset({1, 2}))
    assert bd.cut_vertices == frozenset({1})
    # By id, the rooted order from B0: the sides below a tree edge, children
    # first, then their reverses.
    assert bd.pairs() == (
        Pair(TO_VERTEX, 1, 1),
        Pair(TO_BLOCK, 1, 0),
        Pair(TO_VERTEX, 1, 0),
        Pair(TO_BLOCK, 1, 1),
    )


def test_single_clique_has_no_pairs():
    g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    bd = decompose(g)
    assert bd.blocks == (frozenset({0, 1, 2, 3}),)
    assert bd.cut_vertices == frozenset()
    assert bd.pairs() == ()


def test_isolated_vertices_are_singleton_blocks():
    g = Graph(3, [(0, 1)])
    bd = decompose(g)
    assert frozenset({2}) in bd.blocks


def test_star_decomposition(star):
    bd = decompose(star)
    assert bd.blocks == (
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({0, 3}),
    )
    assert bd.cut_vertices == frozenset({0})
    assert len(bd.pairs()) == 6


def test_k4_pendant_sides(k4_pendant):
    bd = decompose(k4_pendant)
    # blocks sorted lexicographically: K4 before the pendant edge
    assert bd.blocks == (frozenset({0, 1, 2, 3}), frozenset({0, 4}))
    p = Pair(TO_VERTEX, 0, 0)  # the K4 seen from cut vertex 0
    assert bd.side_vertices(p) == frozenset({0, 1, 2, 3})
    q = Pair(TO_BLOCK, 0, 0)  # everything but the K4's interior
    assert bd.side_vertices(q) == frozenset({0, 4})
    assert bd.kappa(0, 0) == frozenset()
    assert bd.beta(0, 0) == (1,)


def test_side_walk_raises_on_a_cyclic_index(k4_pendant):
    """A leaf whose into list holds its own pair instead of its reverse
    makes the side walk loop: it raises InternalError within a second."""
    bd = decompose(k4_pendant)
    ix = bd.index()
    leaf = 1  # the pendant edge {0, 4}
    (q,) = ix.into[leaf]  # (0,B1); its reverse (B1,0) is the leaf's own pair
    ix.into = ix.into[:leaf] + ((ix.last - q,),) + ix.into[leaf + 1:]

    def timeout(signum, frame):
        raise TimeoutError("the side walk ran past a second")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(InternalError, match="does not end"):
            bd.side(Pair(TO_VERTEX, 0, leaf))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_check_pair_rejects_non_cut_base(k4_pendant):
    """pair_id is the one check of a pair, and kappa and beta go through it."""
    bd = decompose(k4_pendant)
    bad = (Pair(TO_VERTEX, 1, 0), Pair(TO_VERTEX, 0, 7), Pair(TO_BLOCK, 0, 7),
           Pair(TO_BLOCK, 9, 0), Pair(TO_BLOCK, -1, 0))
    for p in bad:
        with pytest.raises(InvalidPairError):
            bd.pair_id(p)
        with pytest.raises(InvalidPairError):
            bd.kappa(p.block, p.base)
        with pytest.raises(InvalidPairError):
            bd.beta(p.base, p.block)


def test_is_block_graph():
    assert is_block_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not is_block_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # C4
    assert is_block_graph(Graph(1, []))


def test_is_block_graph_matches_clique_check():
    """The edge count agrees with checking every pair of every block."""
    rng = random.Random(20)
    non_block = 0
    for _ in range(2_000):
        n = rng.randint(1, 9)
        density = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < density])
        cliques = all(
            v in g.adjacency[u] for b in decompose(g).blocks for u in b for v in b if u < v
        )
        assert is_block_graph(g) == cliques
        non_block += not cliques
    assert 500 < non_block < 1_500


def test_diamond_is_single_non_clique_block():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    bd = decompose(g)
    assert bd.blocks == (frozenset({0, 1, 2, 3}),)
    assert not is_block_graph(g)


def test_blocks_match_networkx():
    """On general graphs, not only block graphs, the blocks are networkx's
    biconnected components plus a singleton per isolated vertex."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    non_block = several = 0
    for _ in range(6_000):
        n = rng.randint(1, 14)
        density = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        g = Graph(n, edges)
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        expected = [sorted(c) for c in nx.biconnected_components(h)]
        expected += [[v] for v in range(n) if h.degree(v) == 0]
        blocks = decompose(g).blocks
        assert [sorted(b) for b in blocks] == sorted(expected)
        non_block += not is_block_graph(g)
        several += len(blocks) >= 3
    assert non_block > 1_000 and several > 1_000


def test_long_path_decomposes_without_recursion():
    """A 100,000-vertex path is one DFS branch; an explicit stack takes it
    where a recursive DFS would pass Python's recursion limit."""
    n = 100_000
    bd = decompose(Graph(n, [(i, i + 1) for i in range(n - 1)]))
    assert len(bd.blocks) == n - 1
    assert bd.blocks[0] == frozenset({0, 1})
    assert bd.blocks[-1] == frozenset({n - 2, n - 1})
    assert bd.cut_vertices == frozenset(range(1, n - 1))


CORPUS = fuzz_corpus(120, seed=11)


@pytest.mark.parametrize("idx", range(0, 120, 3))
def test_block_edge_partition(idx):
    """Every edge lies in exactly one block (blocks partition the edges)."""
    g = CORPUS[idx].graph
    bd = decompose(g)
    for u, v in g.edges:
        homes = [b for b in bd.blocks if u in b and v in b]
        assert len(homes) == 1


@pytest.mark.parametrize("idx", range(0, 120, 3))
def test_kappa_beta_match_definitional_recomputation(idx):
    """The closed forms agree with re-decomposing the actual side graphs."""
    g = CORPUS[idx].graph
    bd = decompose(g)
    for p in bd.pairs():
        if p.is_to_vertex:
            assert bd.kappa(p.block, p.base) == slow_kappa(bd, p.block, p.base)
        else:
            assert frozenset(bd.beta(p.base, p.block)) == slow_beta(
                bd, p.base, p.block
            )


@pytest.mark.parametrize("idx", range(0, 120, 4))
def test_opposite_sides_cover_graph(idx):
    """G[B,u] and G[u,B] overlap exactly in u and cover all of V."""
    g = CORPUS[idx].graph
    bd = decompose(g)
    for u in sorted(bd.cut_vertices):
        for bid in bd.blocks_of[u]:
            a = bd.side_vertices(Pair(TO_VERTEX, u, bid))
            b = bd.side_vertices(Pair(TO_BLOCK, u, bid))
            assert a & b == frozenset({u})
            # corpus graphs are connected, so the two sides cover V
            assert a | b == frozenset(range(g.n))


def check_pair_index(bd):
    """The rooted-id contract: pairs() by id, each pair's reverse at
    last - p, its direction from node[p], its dependencies at lower ids,
    and every into[x] in canonical order."""
    pairs = bd.pairs()
    ix = bd.index()
    nblocks = len(bd.members)
    assert ix.last == len(pairs) - 1 == len(ix.node) - 1
    assert len(set(pairs)) == len(pairs)
    for i, p in enumerate(pairs):
        assert bd.pair_id(p) == i
        assert pairs[ix.last - i] == p.reverse()
        assert (ix.base[i], ix.block[i]) == (p.base, p.block)
        assert (ix.node[i] < nblocks) == p.is_to_vertex
        assert ix.node[i] == (p.block if p.is_to_vertex else ix.node_of[p.base])
        if p.is_to_vertex:
            deps = [Pair(TO_BLOCK, v, p.block) for v in bd.kappa(p.block, p.base)]
        else:
            deps = [Pair(TO_VERTEX, p.base, b) for b in bd.beta(p.base, p.block)]
        dep_ids = {bd.pair_id(q) for q in deps}
        assert dep_ids == set(ix.into[ix.node[i]]) - {ix.last - i}
        assert all(q < i for q in dep_ids)
    # a block's (v,B) pairs by cut vertex, a cut vertex's (B,u) pairs by block
    for x, qs in enumerate(ix.into):
        key = [pairs[q].base if x < nblocks else pairs[q].block for q in qs]
        assert key == sorted(set(key))
        assert all(pairs[q].is_to_vertex == (x >= nblocks) for q in qs)


@pytest.mark.parametrize("idx", range(0, 120, 4))
def test_pair_index_matches_pairs(idx):
    check_pair_index(decompose(CORPUS[idx].graph))


def test_pair_index_on_a_forest():
    # two P3s, a K3 with a pendant, and an isolated vertex
    g = Graph(11, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (6, 8), (8, 9)])
    check_pair_index(decompose(g))


@pytest.mark.parametrize("idx", range(0, 120, 4))
def test_blocks_in_side_counts(idx):
    g = CORPUS[idx].graph
    bd = decompose(g)
    m = len(bd.blocks)
    for p in bd.pairs():
        k = bd.blocks_in_side(p)
        assert 1 <= k <= m
        # the two orientations split the block set exactly
        assert k + bd.blocks_in_side(p.reverse()) == m
