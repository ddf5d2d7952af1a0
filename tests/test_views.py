"""The decomposition's views against the eager reference, and what a solve
keeps.

BlockDecomposition keeps its member tuples only and builds blocks,
blocks_of and cut_vertices on first read; PairIndex fills flat lists and
int tuples.  reference_blocks builds the same tables eagerly, the way they
were built before.  Views, pairs and index must equal it, decide must read
no view, and a decomposition plus its index must keep no garbage-collected
container per block or per vertex, nor a per-pair list it does not need.
"""

import gc
import random
import tracemalloc

import pytest

from blockslide import (
    BlockDecomposition,
    Graph,
    NotABlockGraphError,
    Reason,
    decide,
    decompose,
    parse_instance,
    render_instance,
)
from conftest import LADDER, fuzz_corpus, union_corpus
from reference_blocks import check_against_reference


@pytest.mark.parametrize("start", range(0, 12_000, 2_000))
def test_views_match_reference_on_fuzz_corpus(start):
    for inst in fuzz_corpus(2_000, seed=start):
        check_against_reference(decompose(inst.graph))


@pytest.mark.parametrize("seed", range(4))
def test_views_match_reference_on_general_graphs(seed):
    """Graphs that are not block graphs too: 20,000 in all, of every density,
    with isolated vertices and several components."""
    rng = random.Random(f"views-{seed}")
    for _ in range(5_000):
        n = rng.randint(1, 14)
        density = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        check_against_reference(decompose(Graph(n, edges)))


@pytest.mark.parametrize("shape", sorted(LADDER))
def test_views_match_reference_on_ladder_shapes(shape):
    check_against_reference(decompose(LADDER[shape](4096)))


def test_decide_builds_no_view(monkeypatch):
    """Parsing and deciding read the member tuples and the pair index only,
    for every reason a verdict can give."""
    def view(self):
        raise AssertionError("a decomposition view was read")

    texts = [render_instance(inst) for inst in fuzz_corpus(200) + union_corpus(20)]
    texts.append("p 4 2\ne 1 2\ne 3 4\ns 1\nt 3\n")  # unequal per component
    for name in ("blocks", "blocks_of", "cut_vertices"):
        monkeypatch.setattr(BlockDecomposition, name, property(view))
    verdicts = set()
    for text in texts:
        inst = parse_instance(text)
        verdicts.add(decide(inst.graph, inst.source, inst.target).reason)
    assert verdicts == set(Reason)
    with pytest.raises(NotABlockGraphError):
        decide(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), [], [])


def _tracked_growth(g):
    """Objects the garbage collector tracks, after decompose(g).index(),
    minus those it tracked before."""
    gc.collect()
    before = len(gc.get_objects())
    bd = decompose(g)
    bd.index()
    gc.collect()
    return len(gc.get_objects()) - before


HEADERS = {
    "path": "\n".join(
        ["p 65536 65535"] + [f"e {i} {i + 1}" for i in range(1, 65536)]
    ),
    "isolated": "p 65536 0",
}


@pytest.mark.parametrize("shape", sorted(HEADERS))
def test_decomposition_keeps_no_container_per_block(shape):
    """A 65,536-vertex path has 65,535 blocks and as many cut vertices; the
    header alone gives 65,536 isolated vertices.  Each block's members and
    each node's pairs are int tuples, which the collector stops tracking,
    so neither graph leaves more than a few dozen tracked objects."""
    g = parse_instance(HEADERS[shape] + "\ns\nt\n").graph
    assert _tracked_growth(g) <= 40


@pytest.mark.parametrize("shape", ["path", "star"])
def test_index_keeps_no_extra_per_pair_list(shape):
    """The index of a 65,536-vertex path or star retains at most 100 bytes
    per pair, as tracemalloc counts them: about 90 with node, into,
    node_of and cuts.  Two more lists by pair id, each pair's block and
    base, took it to 112 on the path and 122 on the star."""
    bd = decompose(LADDER[shape](65_536))  # the DFS runs before the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ix = bd.index()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 100 * len(ix.node), retained / len(ix.node)
