"""Every block graph on at most 6 vertices, every independent set.

The graphs are grown from K1..K6 by gluing a clique at one vertex, with
labelled duplicates removed but not isomorphic copies.  The oracle classes
join the independent sets one slide apart with union-find.  Two token sets
are in one class exactly when they have the same rigid set and the same
token count in every part of G - R, which decide(g, c, c).details lists.
On the same graphs, ua without the paper's depth-0 rule equals the
reference that keeps it.
"""

from itertools import combinations

from blockslide import Graph, TokenSet, compute_ua, decide, decompose
from blockslide.oracle import adjacency_masks, vertices_of
from reference_passes import reference_depths, reference_ua

MAX_N = 6


def block_graphs(max_n):
    """(n, edges) of every connected block graph on at most max_n vertices
    that gluing cliques at one vertex grows from a clique, each labelled
    graph once."""
    def clique(vs):
        return frozenset(combinations(vs, 2))

    graphs = [(s, clique(range(s))) for s in range(1, max_n + 1)]
    seen = set(graphs)
    frontier = graphs[:]
    while frontier:
        grown = []
        for n, edges in frontier:
            for v in range(n):
                for t in range(2, max_n - n + 2):  # glue K_t at v
                    g = (n + t - 1, edges | clique([v, *range(n, n + t - 1)]))
                    if g not in seen:
                        seen.add(g)
                        grown.append(g)
        graphs += grown
        frontier = grown
    return graphs


def independent_sets(n, adjacency):
    """Every independent set of the graph, as a bitmask."""
    return [
        m for m in range(1 << n)
        if not any(m >> u & 1 and adjacency[u] & m for u in range(n))
    ]


def oracle_classes(n, adjacency, sets):
    """Per independent set, the root of its class under single slides."""
    parent = {m: m for m in sets}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for m in sets:
        for u in range(n):
            if not m >> u & 1:
                continue
            for w in range(n):
                if adjacency[u] >> w & 1 and not m >> w & 1:
                    slid = m & ~(1 << u) | 1 << w
                    if not adjacency[w] & slid:
                        parent[find(slid)] = find(m)
    return {m: find(m) for m in sets}


def cases():
    """(graph, token set per mask, oracle class per mask) per graph."""
    for n, edges in block_graphs(MAX_N):
        g = Graph(n, sorted(edges))
        adjacency = adjacency_masks(g)
        sets = independent_sets(n, adjacency)
        yield g, {m: TokenSet(g, vertices_of(m)) for m in sets}, oracle_classes(n, adjacency, sets)


CASES = list(cases())


def test_enumeration_counts():
    assert len(CASES) == 437
    assert sum(len(tokens) for _, tokens, _ in CASES) == 8081


def test_ua_needs_no_depth():
    """A pair at depth 0 is a (B,u) whose block holds a vertex that is not
    a cut vertex, so the (B,u) rule alone makes it True."""
    for g, _, _ in CASES:
        bd = decompose(g)
        assert compute_ua(bd).array == reference_ua(bd, reference_depths(bd)), g.n


def class_key(g, c):
    """The rigid set and the token count of every part of G - R."""
    details = decide(g, c, c).details
    assert details["rigid_source"] == details["rigid_target"]
    counts = tuple((part, a) for part, a, b in details["component_counts"])
    assert all(a == b for _, a, b in details["component_counts"])
    return details["rigid_source"], counts


def test_key_partition_equals_oracle_classes():
    for g, tokens, root in CASES:
        keys = {}
        for m, c in tokens.items():
            key = class_key(g, c)
            assert keys.setdefault(root[m], key) == key, (g.n, m)
        assert len(set(keys.values())) == len(keys), g.n


def test_decide_matches_oracle_classes():
    """decide(c, r) for every set c and one representative r of each class
    of c's size."""
    no = 0
    for g, tokens, root in CASES:
        reps = set(root.values())
        for m, c in tokens.items():
            for r in reps:
                if r.bit_count() == m.bit_count():
                    verdict = decide(g, c, tokens[r])
                    assert verdict.reachable == (root[m] == r), (g.n, m, r)
                    no += not verdict.reachable
    assert no > 0
