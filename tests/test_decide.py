import random
import tracemalloc

import pytest

from blockslide import (
    CountMismatch,
    Graph,
    NotABlockGraphError,
    NotIndependentError,
    Reachable,
    Reason,
    RigidMismatch,
    TokenSet,
    UnequalSize,
    Verdict,
    VertexOutOfRangeError,
    YES,
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
from blockslide.fuzz import gen_fuzz_instance
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
    ua = compute_ua(bd)
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
    assert v.certificate == UnequalSize(component=(0, 1, 2), counts=(1, 0))
    # the first component in order of least vertex whose counts differ
    v = decide(g, TokenSet(g, [0, 5]), TokenSet(g, [3, 5]))
    assert v.certificate == UnequalSize((0, 1, 2), (1, 0))
    v = decide(g, TokenSet(g, [1, 3]), TokenSet(g, [0, 2]))
    assert v.certificate == UnequalSize((0, 1, 2), (1, 2))
    # unequal totals: the first component whose counts differ, here the second
    v = decide(g, TokenSet(g, [0, 3]), TokenSet(g, [2]))
    assert v.certificate == UnequalSize((3, 4, 5), (1, 0))
    # matching per-component counts: both components slide internally
    v = decide(g, TokenSet(g, [0, 3]), TokenSet(g, [2, 5]))
    assert v.reachable


def test_decide_connected_certifies_unequal_totals(path3):
    """Unequal totals differ in some component, so they are certified as
    any other per-component counts are."""
    v = decide_connected(decompose(path3), TokenSet(path3, [0]), TokenSet(path3, [0, 2]))
    assert v == Verdict(False, Reason.UNEQUAL_SIZE, UnequalSize((0, 1, 2), (1, 2)))


def test_verdict_details_present(star):
    v = decide(star, TokenSet(star, [1, 2]), TokenSet(star, [1, 3]))
    # the leaf tokens pin the centre; of the parts {1}, {2} and {3}, the
    # first whose counts differ is {2}
    assert v.reason is Reason.COMPONENT_COUNT_MISMATCH
    assert v.certificate == CountMismatch(part=(2,), counts=(1, 0))


def test_rigid_mismatch_names_the_vertex_and_its_two_sides():
    """A star centred at 0 whose leaf 1 has a pendant 2.  The leaf tokens
    3 and 4 pin the centre for the target only, as token 1 can leave for
    2: the centre's sides (B,0) at potential 0 with ua are the blocks
    {0, 3} and {0, 4}, whose leaves hold the tokens."""
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    v = decide(g, [1, 4], [3, 4])
    assert v.reason is Reason.RIGID_MISMATCH
    assert v.certificate == RigidMismatch(
        vertex=0, rigid_for="target", sides=(((0, 3), 0), ((0, 4), 0))
    )


def test_component_details_use_original_ids():
    # a P4 on 0..3 and a star centred at 4; tokens 5 and 6 pin the centre
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)])
    v = decide(g, [0, 5, 6], [0, 5, 6])
    assert v.reachable
    # the path holds one token, so it has no rigid vertex and is one part;
    # the star's are {5}, {6} and {7}
    assert v.certificate == Reachable(rigid=(4,), parts=4)


def test_adjacent_rigid_vertices_leave_a_piece_with_no_vertex():
    """On fuzz seed 1637 the rigid vertices 2 and 3 are adjacent, so the
    block {2, 3} is a piece of the cut tree that holds no vertex of
    G - R, and is not a part."""
    inst = gen_fuzz_instance(1637)
    g = inst.graph
    assert sorted(g.edges) == [
        (0, 1), (0, 2), (1, 2), (2, 3), (2, 6), (3, 4), (3, 5), (3, 7), (4, 5)
    ]
    v = decide(g, inst.source, inst.target)
    assert v.certificate == Reachable(rigid=(2, 3), parts=4)
    assert connected_components(g, without={2, 3}) == [
        frozenset({0, 1}), frozenset({4, 5}), frozenset({6}), frozenset({7})
    ]


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
    # the leaves 7 and 8 pin the centre 6, and the part {8}'s counts differ
    assert v.certificate == CountMismatch((8,), (1, 0))


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
    """A YES certifies one rigid set, each set's on the full forest."""
    inst = CORPUS[idx]
    v = decide(inst.graph, inst.source, inst.target)
    if v.reachable:
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        for c in (inst.source, inst.target):
            rigid = rigid_vertices(bd, ua, compute_potentials(bd, ua, c))
            assert v.certificate.rigid == tuple(sorted(rigid))


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
    """A held verdict keeps its certificate alone: no graph, token set,
    decomposition or pair index.  On a 16,384-vertex path with every
    fourth vertex a token, DFS already run, the bytes still allocated
    after decide are mostly freed small tuples that CPython keeps for
    reuse: 114,024 bytes with Python 3.11.  When the verdict kept the two
    token sets decide builds from the lists (about 330 kB), to build its
    details on first read, the count was 442,656; with the details an
    eager dict holding the path's vertex set, it was 638,544."""
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
    assert held <= 135_600, held
    assert v.certificate == Reachable(rigid=(), parts=1)


@pytest.mark.parametrize("corpus", ["fuzz", "unions"])
def test_parts_split_only_components_with_rigid_vertices(corpus):
    """The parts of G - R, as the search over the whole graph minus the
    full forest's rigid vertices finds them in the components with
    tokens, for fuzz seeds 0..2999 and the shuffled unions: a Reachable
    counts exactly those, and a CountMismatch names one of them."""
    if corpus == "fuzz":
        insts = fuzz_corpus(3000)
    else:
        insts = shuffled_unions(random.Random("parts"))
    split = 0
    for inst in insts:
        g, c1, c2 = inst.graph, inst.source, inst.target
        cert = decide(g, c1, c2).certificate
        if not isinstance(cert, (Reachable, CountMismatch)):
            continue
        bd = decompose(g)
        ua = compute_ua(bd)
        rigid = rigid_vertices(bd, ua, compute_potentials(bd, ua, c1))
        held = [comp for comp in connected_components(g) if not comp.isdisjoint(c1)]
        parts = [
            part for part in connected_components(g, without=rigid)
            if any(part <= comp for comp in held)
        ]
        if isinstance(cert, Reachable):
            assert cert == Reachable(tuple(sorted(rigid)), len(parts))
        else:
            part = frozenset(cert.part)
            assert part in parts
            assert cert.counts == (sum(v in part for v in c1), sum(v in part for v in c2))
        split += any(not rigid.isdisjoint(comp) for comp in held)
    assert split > 10
