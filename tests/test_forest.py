"""One block DFS per graph, and what is read off the block-cut forest.

The graph keeps the member tuples its first decomposition builds, so
decide, `blockslide potentials` and the fuzz checks run the DFS once per
graph.  The same DFS labels each vertex with its connected component, in
order of least vertex; the fixed point's per-node zero counts give the
rigid vertices.  Each is checked against the BFS of connected_components
or against the recount of reference_passes.
"""

import io
import random

import pytest

import blockslide.blocks as blocks
from blockslide import (
    Graph,
    Instance,
    InternalError,
    TokenSet,
    compute_potentials,
    compute_ua,
    decide,
    decompose,
    parse_instance,
    render_instance,
    rigid_vertices,
)
from blockslide.cli import main
from blockslide.fuzz import evaluate_instance
from blockslide.gen import gen_token_sets
from blockslide.graph import connected_components
from conftest import LADDER, fuzz_corpus, shuffled, shuffled_unions, union_corpus
from reference_passes import reference_rigid, reference_totals


@pytest.fixture
def dfs_calls(monkeypatch):
    """The graphs _biconnected_blocks runs on, in call order."""
    calls = []
    original = blocks._biconnected_blocks

    def counted(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(blocks, "_biconnected_blocks", counted)
    return calls


def _texts():
    """Instance texts that reach every reason, one or several components."""
    rng = random.Random("forest-texts")
    insts = fuzz_corpus(40) + [shuffled(inst, rng) for inst in union_corpus(10)]
    texts = [render_instance(inst) for inst in insts]
    texts.append("p 4 2\ne 1 2\ne 3 4\ns 1\nt 3\n")  # unequal per component
    return texts


def test_decide_runs_one_dfs_per_graph(dfs_calls):
    reasons = set()
    for text in _texts():
        inst = parse_instance(text)
        dfs_calls.clear()
        reasons.add(decide(inst.graph, inst.source, inst.target).reason)
        assert dfs_calls == [inst.graph]
    assert len(reasons) == 4


def test_potentials_command_runs_one_dfs(dfs_calls, tmp_path):
    path = tmp_path / "inst.ts"
    for text in _texts()[::5]:
        path.write_text(text)
        for which in ("source", "target"):
            dfs_calls.clear()
            assert main(["potentials", str(path), "--set", which], out=io.StringIO()) == 0
            assert len(dfs_calls) == 1


def test_fuzz_checks_run_one_dfs_per_instance(dfs_calls):
    for inst in fuzz_corpus(60):
        dfs_calls.clear()
        assert not evaluate_instance(inst).violations
        assert dfs_calls == [inst.graph]


def test_decompositions_of_one_graph_share_members(dfs_calls):
    g = parse_instance("p 6 5\ne 1 2\ne 2 3\ne 1 3\ne 3 4\ne 5 6\ns 1\nt 2\n").graph
    first, second = decompose(g), decompose(g)
    assert first is not second
    assert first.members is second.members == ((0, 1, 2), (2, 3), (4, 5))
    assert dfs_calls == [g]


def component_labels(g, components):
    """Per vertex of g, the index of its part in `components`."""
    label = [None] * g.n
    for i, comp in enumerate(components):
        for v in comp:
            label[v] = i
    return label


def check_trees(g):
    """The block DFS's component labels, and the vertex sets read off
    them, equal the components the BFS finds, in the same order."""
    bd = decompose(g)
    comps = connected_components(g)
    assert bd.trees == len(comps)
    assert bd.components() == comps
    assert bd.component == component_labels(g, comps)
    holding = {i for i in range(len(comps)) if i % 3}
    assert bd.components(holding) == [
        c if i in holding else None for i, c in enumerate(comps)
    ]


@pytest.mark.parametrize("start", range(0, 12_000, 2_000))
def test_trees_are_components_on_fuzz_corpus(start):
    for inst in fuzz_corpus(2_000, seed=start):
        check_trees(inst.graph)


def test_trees_are_components_on_shuffled_unions():
    for inst in shuffled_unions(random.Random("forest-unions")):
        check_trees(inst.graph)


@pytest.mark.parametrize("seed", range(4))
def test_trees_are_components_on_general_graphs(seed):
    """20,000 graphs in all, of every density: non-block graphs, isolated
    vertices and several components."""
    rng = random.Random(f"forest-{seed}")
    for _ in range(5_000):
        n = rng.randint(1, 14)
        density = rng.random() * rng.random()
        check_trees(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < density]))


def test_trees_are_components_of_a_bare_header():
    g = parse_instance("p 1000 0\ns\nt\n").graph
    check_trees(g)
    assert decompose(g).components() == [frozenset({v}) for v in range(1000)]


def check_rigid(inst):
    """rigid_vertices and the fixed point's zero counts against the
    recount; returns the rigid vertices found over both token sets."""
    bd = decompose(inst.graph)
    ua = compute_ua(bd)
    found = 0
    for c in (inst.source, inst.target):
        pot = compute_potentials(bd, ua, c)
        assert pot.zeros == reference_totals(bd, ua.array, pot.array)[1]
        rigid = rigid_vertices(bd, ua, pot)
        assert rigid == reference_rigid(bd, ua.array, pot.array)
        found += len(rigid)
    return found


@pytest.mark.parametrize("start", range(0, 12_000, 2_000))
def test_rigid_sets_match_recount_on_fuzz_corpus(start):
    assert sum(map(check_rigid, fuzz_corpus(2_000, seed=start))) > 100


def test_rigid_sets_match_recount_on_shuffled_unions():
    unions = shuffled_unions(random.Random("forest-rigid"))
    assert sum(map(check_rigid, unions)) > 10


def _maximal_independent_set(g, rng):
    """A greedy maximal independent set over a shuffled vertex order: every
    vertex holds a token or neighbours one, so many tokens are frozen."""
    order = list(range(g.n))
    rng.shuffle(order)
    blocked = bytearray(g.n)
    chosen = []
    for v in order:
        if not blocked[v]:
            chosen.append(v)
            blocked[v] = 1
            for w in g.adjacency[v]:
                blocked[w] = 1
    return TokenSet(g, chosen)


@pytest.mark.parametrize("shape", sorted(LADDER))
def test_rigid_sets_match_recount_on_ladder_shapes(shape):
    """A quarter of the vertices as tokens, then two maximal sets.  Only
    the star and the random blocks freeze tokens this way: on the chains a
    gap of two free vertices lets every token slide."""
    g = LADDER[shape](4096)
    rng = random.Random(shape)
    found = check_rigid(Instance(g, *gen_token_sets(g, g.n // 4, 1, 2)))
    maximal = [_maximal_independent_set(g, rng) for _ in range(2)]
    found += check_rigid(Instance(g, *maximal))
    assert (found > 0) == (shape in ("random_blocks", "star"))


def test_rigid_check_fires_on_a_false_count(star):
    """A zero count that claims two frozen sides where the fixed point has
    none trips the per-vertex check; it is a plain raise, so it survives
    python -O."""
    bd = decompose(star)
    ua = compute_ua(bd)
    pot = compute_potentials(bd, ua, TokenSet(star, [1]))
    assert rigid_vertices(bd, ua, pot) == frozenset()
    centre = bd.index().node_of[0]
    pot.zeros = pot.zeros[:centre] + [2]
    with pytest.raises(InternalError, match="rigid vertex 0"):
        rigid_vertices(bd, ua, pot)
