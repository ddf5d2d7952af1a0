from blockslide import (
    Graph,
    Pair,
    TO_BLOCK,
    TO_VERTEX,
    compute_depths,
    compute_ua,
    decompose,
)
from conftest import fuzz_corpus, slow_depth, slow_ua

import pytest


def tables(g):
    """bd, and the depth and the ua of a Pair, read by its pair id."""
    bd = decompose(g)
    d = compute_depths(bd)
    ua = compute_ua(bd, d).array
    return bd, lambda p: d[bd.pair_id(p)], lambda p: ua[bd.pair_id(p)]


def test_path3_depth_ua(path3):
    bd, d, ua = tables(path3)
    for bid in (0, 1):
        assert d(Pair(TO_VERTEX, 1, bid)) == 0
        assert d(Pair(TO_BLOCK, 1, bid)) == 1
    # every side of a P3 can be evacuated
    assert all(ua(p) for p in bd.pairs())


def test_star_depth_ua(star):
    bd, d, ua = tables(star)
    for bid in range(3):
        assert d(Pair(TO_VERTEX, 0, bid)) == 0
        assert ua(Pair(TO_VERTEX, 0, bid))
        assert d(Pair(TO_BLOCK, 0, bid)) == 1
        assert ua(Pair(TO_BLOCK, 0, bid))


def test_k4_pendant_depth_ua(k4_pendant):
    bd, d, ua = tables(k4_pendant)
    k4 = Pair(TO_VERTEX, 0, 0)
    pend = Pair(TO_VERTEX, 0, 1)
    assert d(k4) == 0 and ua(k4)
    assert d(pend) == 0 and ua(pend)
    assert d(Pair(TO_BLOCK, 0, 0)) == 1
    assert d(Pair(TO_BLOCK, 0, 1)) == 1


def test_path5_nested_depths():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    bd, d, ua = tables(g)
    # blocks: {0,1},{1,2},{2,3},{3,4}; depth alternates +1 along the path
    assert d(Pair(TO_VERTEX, 1, 0)) == 0
    assert d(Pair(TO_BLOCK, 1, 0)) == 5
    assert d(Pair(TO_VERTEX, 1, 1)) == 4
    assert d(Pair(TO_BLOCK, 3, 3)) == 5


def test_ua_on_path5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    bd, d, ua = tables(g)
    # a block made of exactly the base plus evacuable cut vertices is
    # itself not evacuable; an evacuable far side flips it back
    assert not ua(Pair(TO_VERTEX, 2, 1))  # block {1,2} from 2: 1's far side clears
    assert not ua(Pair(TO_VERTEX, 2, 2))  # symmetric
    assert not ua(Pair(TO_BLOCK, 2, 1))
    assert ua(Pair(TO_VERTEX, 1, 1))  # block {1,2} from 1: 2's side is stuck
    assert ua(Pair(TO_BLOCK, 1, 0))


CORPUS = fuzz_corpus(100, seed=23)


@pytest.mark.parametrize("idx", range(0, 100, 4))
def test_depth_ua_match_definitions(idx):
    g = CORPUS[idx].graph
    bd, d, ua = tables(g)
    for p in bd.pairs():
        assert d(p) == slow_depth(bd, p)
        assert ua(p) == slow_ua(bd, p)


@pytest.mark.parametrize("idx", range(0, 100, 4))
def test_depth_zero_iff_no_inner_cuts(idx):
    g = CORPUS[idx].graph
    bd, d, ua = tables(g)
    for p in bd.pairs():
        if p.is_to_vertex:
            assert (d(p) == 0) == (not bd.kappa(p.block, p.base))
        else:
            assert d(p) >= 1
        if d(p) == 0:
            assert ua(p)


def test_relabelling_invariance():
    """Depths and ua depend only on graph structure, not vertex names."""
    g = CORPUS[7].graph
    perm = list(range(g.n))
    perm.reverse()
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    bd_g, d_g, ua_g = tables(g)
    bd_h, d_h, ua_h = tables(h)
    for p in bd_g.pairs():
        members = frozenset(perm[v] for v in bd_g.blocks[p.block])
        (hbid,) = [i for i, b in enumerate(bd_h.blocks) if b == members]
        q = Pair(p.direction, perm[p.base], hbid)
        assert d_g(p) == d_h(q)
        assert ua_g(p) == ua_h(q)


def test_deep_path_does_not_recurse():
    """A 600-vertex path needs depth ~600; must not hit the call stack."""
    n = 600
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    bd, d, ua = tables(g)
    assert d(Pair(TO_BLOCK, 1, 0)) == 2 * (n - 2) - 1
