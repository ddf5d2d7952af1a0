import random

import pytest

from blockslide import (
    Graph,
    InvalidPairError,
    Pair,
    TO_BLOCK,
    TO_VERTEX,
    decompose,
    is_block_graph,
)
from blockslide.oracle import beta, kappa, side
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
    assert side(bd, p)[1] == frozenset({0, 1, 2, 3})
    q = Pair(TO_BLOCK, 0, 0)  # everything but the K4's interior
    assert side(bd, q)[1] == frozenset({0, 4})
    assert kappa(bd, 0, 0) == frozenset()
    assert beta(bd, 0, 0) == (1,)


def test_side_kappa_and_beta_read_no_into_list(k4_pendant):
    """side, kappa and beta read the adjacency, members and blocks_of, not
    the into lists of the pair index that the solver walks: a leaf whose
    into list holds its own pair instead of its reverse, on which a walk
    of into would not end, changes none of their values."""
    def values(bd):
        return [
            (side(bd, p), kappa(bd, p.block, p.base), beta(bd, p.base, p.block))
            for p in bd.pairs()
        ]

    expected = values(decompose(k4_pendant))
    bd = decompose(k4_pendant)  # a second decomposition, with its own index
    ix = bd.index()
    leaf = 1  # the pendant edge {0, 4}
    (q,) = ix.into[leaf]  # (0,B1); its reverse (B1,0) is the leaf's own pair
    ix.into = ix.into[:leaf] + ((ix.last - q,),) + ix.into[leaf + 1:]
    assert values(bd) == expected


def test_check_pair_rejects_non_cut_base(k4_pendant):
    """pair_id is the one check of a pair, and kappa and beta go through it."""
    bd = decompose(k4_pendant)
    bad = (Pair(TO_VERTEX, 1, 0), Pair(TO_VERTEX, 0, 7), Pair(TO_BLOCK, 0, 7),
           Pair(TO_BLOCK, 9, 0), Pair(TO_BLOCK, -1, 0))
    for p in bad:
        with pytest.raises(InvalidPairError):
            bd.pair_id(p)
        with pytest.raises(InvalidPairError):
            kappa(bd, p.block, p.base)
        with pytest.raises(InvalidPairError):
            beta(bd, p.base, p.block)


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
            assert kappa(bd, p.block, p.base) == slow_kappa(bd, p.block, p.base)
        else:
            assert frozenset(beta(bd, p.base, p.block)) == slow_beta(
                bd, p.base, p.block
            )


@pytest.mark.parametrize("idx", range(0, 120, 4))
def test_opposite_sides_cover_graph(idx):
    """G[B,u] and G[u,B] overlap exactly in u and cover all of V."""
    g = CORPUS[idx].graph
    bd = decompose(g)
    for u in sorted(bd.cut_vertices):
        for bid in bd.blocks_of[u]:
            a = side(bd, Pair(TO_VERTEX, u, bid))[1]
            b = side(bd, Pair(TO_BLOCK, u, bid))[1]
            assert a & b == frozenset({u})
            # corpus graphs are connected, so the two sides cover V
            assert a | b == frozenset(range(g.n))


def check_pair_index(bd):
    """The rooted-id contract: pairs() by id, each pair's reverse at
    last - p, its direction from node[p], its block and base cut vertex
    from node[p] and node[last - p], its dependencies at lower ids, every
    into[x] in canonical order, and the cut vertices in order in cuts."""
    pairs = bd.pairs()
    ix = bd.index()
    nblocks = len(bd.members)
    assert ix.last == len(pairs) - 1 == len(ix.node) - 1
    assert ix.cuts == sorted(bd.cut_vertices)
    assert len(set(pairs)) == len(pairs)
    for i, p in enumerate(pairs):
        assert bd.pair_id(p) == i
        assert pairs[ix.last - i] == p.reverse()
        assert p.base in bd.members[p.block]
        assert (ix.node[i] < nblocks) == p.is_to_vertex
        assert ix.node[i] == (p.block if p.is_to_vertex else ix.node_of[p.base])
        assert ix.node[ix.last - i] == (ix.node_of[p.base] if p.is_to_vertex else p.block)
        if p.is_to_vertex:
            deps = [Pair(TO_BLOCK, v, p.block) for v in kappa(bd, p.block, p.base)]
        else:
            deps = [Pair(TO_VERTEX, p.base, b) for b in beta(bd, p.base, p.block)]
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
        k = side(bd, p)[0]
        assert 1 <= k <= m
        # the two orientations split the block set exactly
        assert k + side(bd, p.reverse())[0] == m
