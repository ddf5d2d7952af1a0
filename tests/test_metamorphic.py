"""Metamorphic checks at sizes the brute-force oracle cannot reach.

On each large graph, a target reached from the source by a random walk of
legal slides must decide YES; for an arbitrary second token set of the same
size, swapping source and target and relabelling the vertices must both
keep the verdict, and every token set along the walk must keep the source's
rigid set.  A disjoint union of such graphs is decided component by
component.
"""

import random

import pytest

from blockslide import (
    GenParams,
    Graph,
    Instance,
    TokenSet,
    compute_potentials,
    compute_ua,
    decide,
    decompose,
    gen_block_graph,
    gen_independent_set,
    rigid_vertices,
)
from conftest import disjoint_union


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def k4_chain(links):
    """K4s in a row, each sharing one vertex with the next."""
    edges = []
    for k in range(links):
        vs = range(3 * k, 3 * k + 4)
        edges += [(a, b) for a in vs for b in vs if a < b]
    return Graph(3 * links + 1, edges)


# name: (graph, tokens for the walk, tokens for the second set).  On the
# star, two leaf tokens pin the centre, so its walk moves a single token.
CASES = {
    "path-20000": (lambda: path(20_000), 4_000, 4_000),
    "star-3000": (lambda: star(3_000), 1, 2),
    "k4-chain": (lambda: k4_chain(2_000), 700, 700),
    "random-blocks": (lambda: gen_block_graph(GenParams(5, 4_000, 5)), 1_500, 1_500),
}


def random_walk(g, tokens, steps, rng):
    """Token set after `steps` attempted random slides, each kept only when
    legal: the target vertex is free and has no token-carrying neighbour
    other than the sliding token."""
    placed = list(tokens)
    occupied = set(placed)
    for _ in range(steps):
        i = rng.randrange(len(placed))
        u = placed[i]
        v = rng.choice(g.adjacency[u])
        if v in occupied or any(w in occupied for w in g.adjacency[v] if w != u):
            continue
        occupied.remove(u)
        occupied.add(v)
        placed[i] = v
    return TokenSet(g, placed)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, k_walk, k_other = CASES[request.param]
    g = make()
    assert g.n >= 3_000
    return g, random.Random(request.param), k_walk, k_other


def test_random_walk_target_is_reachable(case):
    g, rng, k, _ = case
    source = gen_independent_set(11, g, k)
    target = random_walk(g, source, 5 * k + 100, rng)
    assert len(target) == k
    assert decide(g, source, target).reachable


def test_rigid_set_is_constant_along_a_walk(case):
    """Slides never move a rigid vertex's tokens away, nor onto it: the
    rigid set is the same for every token set reachable from C.  Checked at
    ten points of the walk, since each check is one potential pass."""
    g, rng, k, _ = case
    bd = decompose(g)
    ua = compute_ua(bd)

    def rigid(c):
        return rigid_vertices(bd, ua, compute_potentials(bd, ua, c))

    source = tokens = gen_independent_set(11, g, k)
    expected = rigid(source)
    for _ in range(10):
        tokens = random_walk(g, tokens, (5 * k + 100) // 10, rng)
        assert rigid(tokens) == expected
    assert tokens != source


def test_swap_and_relabel_keep_verdict(case):
    g, rng, _, k = case
    source = gen_independent_set(12, g, k)
    target = gen_independent_set(13, g, k)
    verdict = decide(g, source, target).reachable
    assert decide(g, target, source).reachable == verdict

    perm = list(range(g.n))
    rng.shuffle(perm)
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    relabelled = decide(h, [perm[v] for v in source], [perm[v] for v in target])
    assert relabelled.reachable == verdict


def test_disjoint_union_is_decided_per_component():
    parts = [path(2_000), star(500), k4_chain(300)]
    rng = random.Random("union")
    # tokens per part: the star's two leaf tokens usually pin its centre
    for seed, sizes in enumerate([(400, 1, 100), (300, 2, 80), (500, 2, 120)]):
        insts = [
            Instance(g, *(gen_independent_set(2 * seed + j, g, k) for j in (0, 1)))
            for g, k in zip(parts, sizes)
        ]
        union = disjoint_union(insts)
        assert union.graph.n >= 3_000
        walked = random_walk(union.graph, union.source, 2_000, rng)
        assert decide(union.graph, union.source, walked).reachable

        verdict = decide(union.graph, union.source, union.target)
        alone = [decide(i.graph, i.source, i.target) for i in insts]
        reachable = [v.reachable for v in alone]
        assert verdict.reachable == all(reachable)
        # the union's details are the parts' in the union's vertex ids:
        # whole-graph rigid sets, and the parts' lists up to the first NO
        stop = reachable.index(False) + 1 if False in reachable else len(alone)
        assert verdict.reason is alone[stop - 1].reason
        expected = {"rigid_source": set(), "rigid_target": set(), "component_counts": []}
        offset = 0
        for i, (g, v) in enumerate(zip(parts, alone)):
            for key in ("rigid_source", "rigid_target"):
                expected[key] |= {u + offset for u in v.details[key]}
            if i < stop:
                expected["component_counts"] += [
                    (frozenset(u + offset for u in part), a, b)
                    for part, a, b in v.details["component_counts"]
                ]
            if i == stop - 1 and not v.reachable:
                expected["component"] = frozenset(range(offset, offset + g.n))
            offset += g.n
        assert verdict.details == expected
