"""decide analyses only the block-cut trees holding two tokens or more.

A component with fewer tokens has no rigid vertex (see blockslide.decide),
so decide builds the pair index and runs the passes over the other trees'
blocks alone.  Its verdicts must equal those of the full-forest pass in
reference_decide, certificates included, and a tree it leaves out must
cost no pair.
"""

import importlib
import random
from collections import Counter

import pytest

import blockslide.blocks as blocks
from blockslide import (
    Graph,
    Instance,
    Reachable,
    Reason,
    TokenSet,
    decide,
    decide_connected,
    decompose,
)
from blockslide.fuzz import FuzzEnvelope, gen_fuzz_instance
from blockslide.gen import gen_token_sets
from conftest import LADDER, disjoint_union, fuzz_corpus, shuffled, shuffled_unions
from reference_decide import reference_decide_connected

# The package attribute blockslide.decide is the function.
decide_mod = importlib.import_module("blockslide.decide")


def mixed_unions(count, seed=0):
    """Shuffled unions of three to six fuzz graphs, each component given 0,
    1 or 2-3 tokens of each set.  One union in four deals the target counts
    out to the components in another order, so that per-component counts
    differ where the totals agree."""
    rng = random.Random(f"mixed-{seed}")
    env = FuzzEnvelope(max_vertices=8)
    unions = []
    for i in range(count):
        graphs = [gen_fuzz_instance(rng.randrange(1 << 30), env).graph
                  for _ in range(rng.randint(3, 6))]
        counts = [rng.choice((0, 1, 1, 2, 3)) for _ in graphs]
        dealt = counts[:]
        if i % 4 == 3:
            rng.shuffle(dealt)
        parts = []
        for g, k, j in zip(graphs, counts, dealt):
            src = gen_token_sets(g, k, rng.randrange(1 << 60), 0)[0]
            tgt = gen_token_sets(g, j, 0, rng.randrange(1 << 60))[1]
            parts.append(Instance(g, src, tgt))
        unions.append(shuffled(disjoint_union(parts), rng))
    return unions


MIXED = mixed_unions(400)


@pytest.fixture
def searches(monkeypatch):
    """Calls, by name, of the graph search for components and of the depth
    pass, neither of which decide runs."""
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(decide_mod, "connected_components")
    count(decide_mod, "compute_depths")
    return calls


def check_against_reference(insts, searches):
    """decide_connected equals the full-forest reference on every instance,
    certificate included, and runs no graph search and no depth pass;
    returns the reasons seen."""
    reasons = set()
    for inst in insts:
        g, c1, c2 = inst.graph, inst.source, inst.target
        got = decide_connected(decompose(g), c1, c2)
        assert not searches, searches
        assert got == reference_decide_connected(g, decompose(g), c1, c2)
        reasons.add(got.reason)
    return reasons


@pytest.mark.parametrize("start", range(0, 3000, 500))
def test_verdicts_equal_reference_on_fuzz_corpus(start, searches):
    check_against_reference(fuzz_corpus(500, seed=start), searches)


def test_verdicts_equal_reference_on_shuffled_unions(searches):
    check_against_reference(shuffled_unions(random.Random("pruning")), searches)


def test_verdicts_equal_reference_on_mixed_unions(searches):
    assert check_against_reference(MIXED, searches) == set(Reason)


@pytest.mark.parametrize("shape", sorted(LADDER))
def test_verdicts_equal_reference_on_ladder_shapes(shape, searches):
    """A quarter of the vertices as tokens, at 64 and 1,024 vertices."""
    insts = []
    for n in (64, 1024):
        g = LADDER[shape](n)
        insts.append(Instance(g, *gen_token_sets(g, g.n // 4, 1, 2)))
        insts.append(Instance(g, insts[-1].source, insts[-1].source))
    check_against_reference(insts, searches)


def token_counts(inst, c):
    """Per component of inst's graph, the tokens of c in it."""
    bd = decompose(inst.graph)
    counts = [0] * bd.trees
    for v in c:
        counts[bd.component[v]] += 1
    return counts


def test_mixed_unions_mix_token_counts():
    """Most mixed unions hold components with 0, 1 and 2+ tokens at once."""
    full = 0
    for inst in MIXED:
        counts = token_counts(inst, inst.source)
        full += {0, 1} <= set(counts) and max(counts) >= 2
    assert full >= 100


@pytest.fixture
def indices(monkeypatch):
    """The number of pairs of each PairIndex built, in order."""
    built = []
    original = blocks.PairIndex.__init__

    def init(self, bd):
        original(self, bd)
        built.append(len(self.node))

    monkeypatch.setattr(blocks.PairIndex, "__init__", init)
    return built


def test_no_index_without_a_two_token_component(indices):
    """Instances whose components each hold at most one token of each set,
    and every UNEQUAL_SIZE answer, build no pair index at all."""
    insts = [
        inst for inst in MIXED
        if max(token_counts(inst, inst.source) + token_counts(inst, inst.target)) <= 1
    ]
    assert len(insts) >= 20
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    insts.append(Instance(g, TokenSet(g, [0]), TokenSet(g, [3])))
    insts.append(Instance(g, TokenSet(g, [0, 2]), TokenSet(g, [3, 5])))
    indices.clear()
    reasons = {decide(inst.graph, inst.source, inst.target).reason for inst in insts}
    assert indices == []
    assert reasons == {Reason.REACHABLE, Reason.UNEQUAL_SIZE}


def test_index_covers_only_the_trees_with_two_tokens(indices):
    """A token-free 10,000-vertex path beside a P3 whose leaves hold the
    tokens: the one index built holds the P3's 4 pairs."""
    n = 10_003
    g = Graph(n, [(0, 1), (1, 2)] + [(v, v + 1) for v in range(3, n - 1)])
    verdict = decide(g, [0, 2], [0, 2])
    assert indices == [4]
    assert verdict.reachable
    # the path holds no token, so only the P3's parts {0} and {2} count
    assert verdict.certificate == Reachable(rigid=(1,), parts=2)
