"""Shared fixtures and definitional re-implementations used as test oracles.

The "slow" oracles here recompute depth/ua/capacity straight from their
recursive definitions on the actual side subgraphs, with none of the closed
forms or bitmask shortcuts the package uses.  Agreement between the two is
what most of the suite checks.
"""

import pytest

from blockslide import (
    GenParams,
    Graph,
    Instance,
    TokenSet,
    TO_BLOCK,
    TO_VERTEX,
    Pair,
    decompose,
    gen_block_graph,
)
from blockslide.fuzz import FuzzEnvelope, gen_fuzz_instance


# --- hand-built graphs ----------------------------------------------------

@pytest.fixture
def path3():
    return Graph(3, [(0, 1), (1, 2)])


@pytest.fixture
def star():
    # K_{1,3}, centre 0
    return Graph(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def k4_pendant():
    # K4 on {0,1,2,3} with a pendant vertex 4 attached to 0
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, 4)]
    return Graph(5, edges)


CHAIN_NAMES = {
    "y2": 0, "y1": 1, "v1": 2, "x1": 3, "v2": 4,
    "x2": 5, "u1": 6, "w1": 7, "u2": 8, "w2": 9,
}

CHAIN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (2, 6), (2, 7), (3, 7), (4, 8), (4, 9), (5, 9),
]


@pytest.fixture
def chain_k2():
    """Two-link chain gadget: placing a token on y2 requires first draining
    the region A2 = {y1,y2,x1,u1,v1,w1,x2,u2,v2,w2} down to two tokens."""
    g = Graph(10, CHAIN_EDGES)
    tokens = TokenSet(g, [CHAIN_NAMES[s] for s in ("u1", "w1", "u2", "w2")])
    return g, tokens


def _caterpillar(n):
    spine = n // 2
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(n - spine)]
    return Graph(n, edges)


def _k4_chain(n):
    links = (n - 1) // 3
    edges = []
    for k in range(links):
        vs = range(3 * k, 3 * k + 4)
        edges += [(a, b) for a in vs for b in vs if a < b]
    return Graph(3 * links + 1, edges)


# The five shapes of the benchmark's ladder, by vertex count.  The star is
# the case a per-node sum serves worst: its centre's list holds every block.
LADDER = {
    "path": lambda n: Graph(n, [(i, i + 1) for i in range(n - 1)]),
    "caterpillar": _caterpillar,
    "star": lambda n: Graph(n, [(0, i) for i in range(1, n)]),
    "k4_chain": _k4_chain,
    "random_blocks": lambda n: gen_block_graph(GenParams(3, n // 2, 5)),
}


def fuzz_corpus(count, seed=0, env=FuzzEnvelope()):
    return [gen_fuzz_instance(seed + i, env) for i in range(count)]


def disjoint_union(instances):
    """One instance holding the given ones side by side, each one's vertex
    ids shifted past those of the instances before it."""
    edges, source, target, offset = [], [], [], 0
    for inst in instances:
        edges += [(u + offset, v + offset) for u, v in inst.graph.edges]
        source += [v + offset for v in inst.source]
        target += [v + offset for v in inst.target]
        offset += inst.graph.n
    g = Graph(offset, edges)
    return Instance(g, TokenSet(g, source), TokenSet(g, target))


def shuffled(inst, rng):
    """inst with its vertex ids permuted by rng, so components interleave."""
    perm = list(range(inst.graph.n))
    rng.shuffle(perm)
    g = Graph(inst.graph.n, [(perm[u], perm[v]) for u, v in inst.graph.edges])
    return Instance(
        g,
        TokenSet(g, [perm[v] for v in inst.source]),
        TokenSet(g, [perm[v] for v in inst.target]),
    )


def union_corpus(count, seed=0):
    """Unions of two small fuzz instances, which the oracle still searches
    quickly."""
    env = FuzzEnvelope(max_vertices=6, max_tokens=2)
    return [
        disjoint_union([gen_fuzz_instance(seed + 2 * i + j, env) for j in (0, 1)])
        for i in range(count)
    ]


def shuffled_unions(rng):
    """60 unions of two small fuzz instances and 30 of six fuzz-sized ones,
    each with its vertex ids permuted by rng."""
    unions = union_corpus(60)
    unions += [disjoint_union(fuzz_corpus(6, seed=7000 + 6 * i)) for i in range(30)]
    return [shuffled(inst, rng) for inst in unions]


# --- definitional recomputations ------------------------------------------

def side_subgraph(bd, p):
    """(subgraph of G[p], id of the base vertex inside it)."""
    verts = sorted(bd.side_vertices(p))
    sub, to_sub, _ = bd.graph.induced(verts)
    return sub, to_sub[p.base]


def slow_depth(bd, p):
    if p.is_to_vertex:
        kap = bd.kappa(p.block, p.base)
        if not kap:
            return 0
        return 1 + max(slow_depth(bd, Pair(TO_BLOCK, v, p.block)) for v in kap)
    return 1 + max(
        slow_depth(bd, Pair(TO_VERTEX, p.base, b))
        for b in bd.beta(p.base, p.block)
    )


def slow_ua(bd, p):
    if slow_depth(bd, p) == 0:
        return True
    if p.is_to_vertex:
        kap = bd.kappa(p.block, p.base)
        inner = all(slow_ua(bd, Pair(TO_BLOCK, v, p.block)) for v in kap)
        return not (inner and bd.blocks[p.block] == kap | {p.base})
    return any(
        slow_ua(bd, Pair(TO_VERTEX, p.base, b))
        for b in bd.beta(p.base, p.block)
    )


def slow_capacity(bd, c, p):
    """cap(C[p]) straight from the two-branch recursion, no tables."""
    if p.is_to_vertex:
        bid, u = p.block, p.base
        in_block = sum(
            1 for v in bd.blocks[bid] if v != u and v in c
        )
        return (
            sum(slow_capacity(bd, c, Pair(TO_BLOCK, v, bid))
                for v in bd.kappa(bid, u))
            + int(slow_ua(bd, p))
            - in_block
        )
    u, bid = p.base, p.block
    children = [Pair(TO_VERTEX, u, b) for b in bd.beta(u, bid)]
    if any(slow_capacity(bd, c, q) == 0 and slow_ua(bd, q) for q in children):
        return 0
    return (
        sum(slow_capacity(bd, c, q) - int(slow_ua(bd, q)) for q in children)
        + int(slow_ua(bd, p))
    )


def slow_kappa(bd, bid, u):
    """Cut vertices of the side graph G[B,u] that lie in B, computed by
    actually decomposing the side graph."""
    p = Pair(TO_VERTEX, u, bid)
    verts = sorted(bd.side_vertices(p))
    sub, to_sub, to_orig = bd.graph.induced(verts)
    sub_bd = decompose(sub)
    return frozenset(
        to_orig[v] for v in sub_bd.cut_vertices if to_orig[v] in bd.blocks[bid]
    )


def slow_beta(bd, u, bid):
    """Blocks of the side graph G[u,B] that contain u, matched back to the
    ambient decomposition's block ids."""
    p = Pair(TO_BLOCK, u, bid)
    verts = sorted(bd.side_vertices(p))
    sub, to_sub, to_orig = bd.graph.induced(verts)
    sub_bd = decompose(sub)
    out = []
    for b in sub_bd.blocks:
        if to_sub[u] not in b:
            continue
        members = frozenset(to_orig[v] for v in b)
        matches = [i for i, amb in enumerate(bd.blocks) if amb == members]
        assert len(matches) == 1, "side block does not match an ambient block"
        out.append(matches[0])
    return frozenset(out)
