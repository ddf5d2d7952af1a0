import random
import tracemalloc

import pytest

from blockslide import (
    Graph,
    NotABlockGraphError,
    NotIndependentError,
    Reason,
    TokenSet,
    VertexOutOfRangeError,
    YES,
    compute_depths,
    connected_components,
    compute_potentials,
    compute_ua,
    decide,
    decide_connected,
    decompose,
    oracle_reachable,
    parse_instance,
    render_instance,
    rigid_vertices,
)
from conftest import fuzz_corpus, shuffled_unions, union_corpus


def test_path3_slide_across(path3):
    v = decide(path3, TokenSet(path3, [0]), TokenSet(path3, [2]))
    assert v.reachable
    assert v.reason is Reason.REACHABLE


def test_star_counterexample(star):
    c1 = TokenSet(star, [1, 2])
    c2 = TokenSet(star, [1, 3])
    v = decide(star, c1, c2)
    assert not v.reachable
    assert v.reason is Reason.COMPONENT_COUNT_MISMATCH


def test_star_rigid_centre(star):
    bd = decompose(star)
    d = compute_depths(bd)
    ua = compute_ua(bd, d)
    pot = compute_potentials(bd, ua, TokenSet(star, [1, 2]))
    assert rigid_vertices(bd, ua, pot) == frozenset({0})


def test_unequal_sizes(path3):
    v = decide(path3, TokenSet(path3, [0]), TokenSet(path3, [0, 2]))
    assert not v.reachable
    assert v.reason is Reason.UNEQUAL_SIZE


def test_identical_sets_trivially_reachable(k4_pendant):
    c = TokenSet(k4_pendant, [1, 4])
    assert decide(k4_pendant, c, c).reachable


def test_empty_sets_reachable(path3):
    e = TokenSet(path3, [])
    assert decide(path3, e, e).reachable


def test_rejects_non_block_graph():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(NotABlockGraphError):
        decide(c4, TokenSet(c4, [0]), TokenSet(c4, [1]))


def test_rejects_dependent_raw_sets(path3):
    with pytest.raises(NotIndependentError):
        decide(path3, [0, 1], [0, 2])
    with pytest.raises(NotIndependentError):
        decide(path3, [0, 2], [1, 2])


def test_token_sets_of_another_graph_are_checked_again(path3):
    """A TokenSet is independent in the graph it was built on; decide
    checks one built on another graph again, on its own graph."""
    empty = Graph(3, [])
    with pytest.raises(NotIndependentError) as raised:
        decide(path3, TokenSet(empty, [0, 1]), TokenSet(empty, [0, 2]))
    assert raised.value.which == "source"
    with pytest.raises(NotIndependentError) as raised:
        decide(path3, TokenSet(path3, [0]), TokenSet(empty, [1, 2]))
    assert raised.value.which == "target"
    wider = Graph(5, [])
    with pytest.raises(VertexOutOfRangeError) as raised:
        decide(path3, TokenSet(path3, [0]), TokenSet(wider, [4]))
    assert raised.value.vertex == 4
    # an equal graph built apart gives the verdict of path3's own sets
    twin = Graph(3, [(0, 1), (1, 2)])
    assert decide(path3, TokenSet(twin, [0]), TokenSet(twin, [2])).reachable


def test_accepts_raw_iterables(path3):
    assert decide(path3, [0], [2]).reachable


def test_one_shot_iterables_decide_like_lists(path3):
    """Each token set is read once, so a generator or an iterator gives
    the verdict of the same vertices in a list."""
    for c1, c2 in (([0], [2]), ([0], [1]), ([0, 2], [0]), ([0, 2], [2, 0]), ([], [])):
        expected = decide(path3, c1, c2)
        assert decide(path3, (v for v in c1), iter(c2)) == expected
        assert decide(path3, iter(c1), (v for v in c2)) == expected
    for c1, c2, which in (([0, 1], [2], "source"), ([2], [1, 2], "target")):
        with pytest.raises(NotIndependentError) as raised:
            decide(path3, iter(c1), (v for v in c2))
        assert raised.value.which == which


def test_clique_rotation():
    g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert decide(g, TokenSet(g, [1]), TokenSet(g, [3])).reachable


def test_disconnected_per_component_counts():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two P3s
    # token must not teleport between components
    v = decide(g, TokenSet(g, [0]), TokenSet(g, [3]))
    assert not v.reachable
    assert v.reason is Reason.UNEQUAL_SIZE
    assert v.details == {"component": frozenset({0, 1, 2}), "counts": (1, 0)}
    # the first component in order of least vertex whose counts differ
    v = decide(g, TokenSet(g, [0, 5]), TokenSet(g, [3, 5]))
    assert v.details == {"component": frozenset({0, 1, 2}), "counts": (1, 0)}
    v = decide(g, TokenSet(g, [1, 3]), TokenSet(g, [0, 2]))
    assert v.details == {"component": frozenset({0, 1, 2}), "counts": (1, 2)}
    # matching per-component counts: both components slide internally
    v = decide(g, TokenSet(g, [0, 3]), TokenSet(g, [2, 5]))
    assert v.reachable


def test_decide_connected_requires_equal_sizes(path3):
    bd = decompose(path3)
    with pytest.raises(ValueError):
        decide_connected(path3, bd, TokenSet(path3, [0]), TokenSet(path3, [0, 2]))


def test_verdict_details_present(star):
    v = decide(star, TokenSet(star, [1, 2]), TokenSet(star, [1, 3]))
    # the leaf tokens pin the centre, and the leaves' counts differ
    assert v.reason is Reason.COMPONENT_COUNT_MISMATCH
    assert v.details == {
        "rigid_source": {0},
        "rigid_target": {0},
        "component_counts": [
            (frozenset({1}), 1, 1), (frozenset({2}), 1, 0), (frozenset({3}), 0, 1)
        ],
        "component": {0, 1, 2, 3},
    }


def test_component_details_use_original_ids():
    # a P4 on 0..3 and a star centred at 4; tokens 5 and 6 pin the centre
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)])
    v = decide(g, [0, 5, 6], [0, 5, 6])
    assert v.reachable
    # the path holds one token, so it has no rigid vertex and is one part
    assert v.details == {
        "rigid_source": frozenset({4}),
        "rigid_target": frozenset({4}),
        "component_counts": [
            (frozenset({0, 1, 2, 3}), 1, 1),
            (frozenset({5}), 1, 1), (frozenset({6}), 1, 1), (frozenset({7}), 0, 0),
        ],
    }


def test_decide_copies_no_subgraph(monkeypatch):
    """Every component is decided on the decomposition of the whole graph."""
    def induced(self, vertices):
        raise AssertionError("decide copied a subgraph")

    monkeypatch.setattr(Graph, "induced", induced)
    # two P3s and a star centred at 6, whose centre two leaf tokens pin
    g = Graph(10, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (6, 8), (6, 9)])
    assert decide(g, [0, 3, 7, 8], [2, 5, 7, 8]).reachable
    v = decide(g, [0, 3, 7, 8], [2, 5, 7, 9])
    assert v.reason is Reason.COMPONENT_COUNT_MISMATCH
    assert v.details["component"] == {6, 7, 8, 9}
    assert v.details["rigid_source"] == v.details["rigid_target"] == {6}


def test_decide_reads_no_edge_set(monkeypatch):
    """Parsing and deciding work on adjacency and the edge count alone."""
    def edges(self):
        raise AssertionError("Graph.edges was read")

    texts = [render_instance(inst) for inst in fuzz_corpus(200) + union_corpus(20)]
    texts.append("p 4 2\ne 1 2\ne 3 4\ns 1\nt 3\n")  # unequal per component
    monkeypatch.setattr(Graph, "edges", property(edges))
    verdicts = set()
    for text in texts:
        inst = parse_instance(text)
        verdicts.add(decide(inst.graph, inst.source, inst.target).reason)
    assert len(verdicts) == len(Reason)
    with pytest.raises(NotABlockGraphError):
        decide(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [], [])


UNIONS = union_corpus(120)


@pytest.mark.parametrize("start", range(0, 120, 20))
def test_union_decision_matches_oracle(start):
    for inst in UNIONS[start:start + 20]:
        v = decide(inst.graph, inst.source, inst.target)
        ans = oracle_reachable(inst.graph, inst.source, inst.target)
        assert v.reachable == (ans == YES)


CORPUS = fuzz_corpus(150, seed=51)


@pytest.mark.parametrize("idx", range(0, 150, 3))
def test_decision_is_symmetric(idx):
    inst = CORPUS[idx]
    fwd = decide(inst.graph, inst.source, inst.target)
    bwd = decide(inst.graph, inst.target, inst.source)
    assert fwd.reachable == bwd.reachable


@pytest.mark.parametrize("idx", range(0, 150, 5))
def test_decision_matches_oracle_sample(idx):
    inst = CORPUS[idx]
    v = decide(inst.graph, inst.source, inst.target)
    ans = oracle_reachable(inst.graph, inst.source, inst.target)
    assert v.reachable == (ans == YES)


@pytest.mark.parametrize("idx", range(0, 150, 5))
def test_rigid_sets_equal_when_reachable(idx):
    inst = CORPUS[idx]
    v = decide(inst.graph, inst.source, inst.target)
    if v.reachable:
        assert v.details["rigid_source"] == v.details["rigid_target"]


def _decide_path_peak(n):
    """tracemalloc peak of building a path, its token sets and deciding."""
    tracemalloc.start()
    try:
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        verdict = decide(g, TokenSet(g, range(0, n, 4)), TokenSet(g, range(1, n, 4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.reachable
    return peak


def test_memory_grows_linearly():
    """Four times the vertices take at most 4.6 times the memory.  With one
    n-bit mask per vertex, block and token set the ratio was 6.8; without
    them it is about 4.1.  tracemalloc counts the same bytes on every run."""
    small, large = _decide_path_peak(4_096), _decide_path_peak(16_384)
    assert large <= 4.6 * small, (small, large)


def test_a_held_verdict_keeps_no_pair_index():
    """The details are built when read, from what the verdict holds: the
    graph, the two token sets, the rigid sets and the counts, and no
    decomposition or pair index.  On a 16,384-vertex path with every
    fourth vertex a token, DFS already run, the bytes still allocated
    after decide are the two token sets decide builds from the lists
    (about 330 kB) plus freed small tuples that CPython keeps for reuse
    (about 110 kB): 442,656 bytes with Python 3.11.  With the details an
    eager dict holding the path's vertex set, the same count was 638,544."""
    n = 16_384
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    decompose(g)
    s = list(range(0, n, 4))
    tracemalloc.start()
    try:
        v = decide(g, s, s)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 526_400, held
    assert v.details["component_counts"] == [(frozenset(range(n)), n // 4, n // 4)]


@pytest.mark.parametrize("corpus", ["fuzz", "unions"])
def test_parts_split_only_components_with_rigid_vertices(corpus):
    """A component's parts, as the search over the whole graph minus the
    rigid vertices finds them, for fuzz seeds 0..2999 and the shuffled
    unions; the verdict lists exactly those of each component with
    tokens, in order of least vertex, up to the component that decides."""
    if corpus == "fuzz":
        insts = fuzz_corpus(3000)
    else:
        insts = shuffled_unions(random.Random("parts"))
    split = 0
    for inst in insts:
        g, c1, c2 = inst.graph, inst.source, inst.target
        verdict = decide(g, c1, c2)
        if "rigid_source" not in verdict.details:
            continue
        rigid = verdict.details["rigid_source"]
        decided = verdict.details.get("component")
        expected = []
        for comp in connected_components(g):
            if comp.isdisjoint(c1):
                continue
            if comp == decided and verdict.reason is Reason.RIGID_MISMATCH:
                break  # lists no parts
            expected += [
                (part, sum(v in part for v in c1), sum(v in part for v in c2))
                for part in connected_components(g, without=rigid)
                if part <= comp
            ]
            split += not rigid.isdisjoint(comp)
            if comp == decided:
                break
        assert verdict.details["component_counts"] == expected
    assert split > 10
