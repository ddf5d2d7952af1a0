"""Fault injection into evaluate_instance: a fault in what one category
checks is reported under that category and no other."""

import importlib
import os
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import blockslide
import blockslide.fuzz as fuzz_mod
from blockslide import (
    Graph,
    Instance,
    InternalError,
    Reachable,
    Reason,
    TokenSet,
    compute_potentials,
    compute_ua,
    decide,
    decompose,
)
from blockslide.blocks import PairIndex
from blockslide.fuzz import evaluate_instance, gen_fuzz_instance

# The package attribute blockslide.decide is the function.
decide_mod = importlib.import_module("blockslide.decide")


def oracle_from_empty_start(monkeypatch):
    """Oracle potentials measured from the empty token set, not from c."""
    original = fuzz_mod.oracle_potential_table

    def table(g, bd, ua, c, *args, **kwargs):
        return original(g, bd, ua, (), *args, **kwargs)

    monkeypatch.setattr(fuzz_mod, "oracle_potential_table", table)


def negative_capacities(monkeypatch):
    """A capacity table that reads -1 for every pair."""
    monkeypatch.setattr(fuzz_mod, "capacity_table", lambda bd, ua, c: defaultdict(lambda: -1))


def empty_kappa(monkeypatch):
    """kappa(B,u) loses every cut vertex, so (B,u) depends on nothing."""
    monkeypatch.setattr(fuzz_mod, "kappa", lambda bd, bid, u: frozenset())


def runaway_iteration_count(monkeypatch):
    """The fixed point reports far more increases than its bound allows."""
    original = fuzz_mod.compute_potentials

    def compute_potentials(bd, ua, c):
        pot = original(bd, ua, c)
        pot.iteration_count = 10**9
        return pot

    monkeypatch.setattr(fuzz_mod, "compute_potentials", compute_potentials)


def every_vertex_rigid(monkeypatch):
    """Every vertex of the graph is called rigid."""
    monkeypatch.setattr(
        fuzz_mod, "rigid_vertices", lambda bd, ua, pot: frozenset(range(bd.graph.n))
    )


FAULTS = {
    "potential": oracle_from_empty_start,
    "capacity": negative_capacities,
    "fixedpoint": empty_kappa,
    "iteration": runaway_iteration_count,
    "rigid": every_vertex_rigid,
}

# A fuzz instance with cut vertices and a token off them, so every fault
# above shows on it.
SEED = 2


@pytest.mark.parametrize("category", sorted(FAULTS))
def test_injected_fault_is_reported_under_its_category(category, monkeypatch):
    inst = gen_fuzz_instance(SEED)
    assert evaluate_instance(inst).violations == []
    FAULTS[category](monkeypatch)
    report = evaluate_instance(inst)
    assert report.violations
    assert {found for found, _ in report.violations} == {category}


def zero_sides_off_tokens(monkeypatch):
    """Every (B,u) with ua whose block holds no token but u is put at
    potential 0, which only a rigid vertex's sides may be.  Returns the
    list that the pairs it lowers from a positive value are appended to."""
    original = fuzz_mod.compute_potentials
    lowered = []

    def compute_potentials(bd, ua, c):
        pot = original(bd, ua, c)
        for p, pair in enumerate(bd.pairs()):
            if not pair.is_to_vertex:
                continue
            block = bd.members[pair.block]
            if ua.array[p] and not any(v in c for v in block if v != pair.base):
                if pot.array[p]:
                    lowered.append(pair)
                pot.array[p] = 0
        return pot

    monkeypatch.setattr(fuzz_mod, "compute_potentials", compute_potentials)
    return lowered


def test_zero_side_without_a_token_is_reported(monkeypatch):
    """The check decide's pruning rests on fires under rigid.  The faulty
    potentials break their equations too, so other categories fire with
    it."""
    inst = gen_fuzz_instance(SEED)
    lowered = zero_sides_off_tokens(monkeypatch)
    report = evaluate_instance(inst)
    assert lowered, "the injection lowered no (B,u) pair"
    assert any(
        found == "rigid" and "holds no token of its block" in message
        for found, message in report.violations
    )


def swapped_into_entries(monkeypatch):
    """Every pair index, once built, swaps the first entries of the into
    lists of its two lowest blocks that have one, so each of those blocks
    holds a (v,B) pair of the other in place of its own."""
    original = PairIndex.__init__

    def init(self, bd):
        original(self, bd)
        held = [x for x in range(len(bd.members)) if self.into[x]][:2]
        if len(held) == 2:
            a, b = held
            into = list(self.into)
            into[a], into[b] = (into[b][0], *into[a][1:]), (into[a][0], *into[b][1:])
            self.into = tuple(into)

    monkeypatch.setattr(PairIndex, "__init__", init)


def test_a_fault_in_the_into_lists_is_reported(monkeypatch):
    """On fuzz seed 131, the swapped into entries leave two of the
    source's potentials short of the fixed point: the worklist requeues
    the dependants of a pair that rises through into.  The checks read
    each pair's dependencies from kappa and beta and its side from a
    graph search, none of which reads into, so they do not share the
    fault and report it."""
    inst = gen_fuzz_instance(131)

    def potentials():
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        return [compute_potentials(bd, ua, c).array for c in (inst.source, inst.target)]

    clean = potentials()
    assert evaluate_instance(inst).violations == []
    swapped_into_entries(monkeypatch)
    assert potentials() != clean
    report = evaluate_instance(inst)
    assert {found for found, _ in report.violations} == {"fixedpoint", "potential"}


def test_decide_rigid_set_off_the_full_forest_is_reported(monkeypatch):
    """decide's pruned rigid sets are compared with those of the full
    forest: on a YES instance with a rigid vertex, decide losing the least
    one still answers YES, and only that check fires."""
    inst = gen_fuzz_instance(0)
    report = evaluate_instance(inst)
    assert report.violations == [] and report.verdict.certificate.rigid
    original = decide_mod.rigid_vertices

    def rigid_vertices(bd, ua, pot):
        rigid = original(bd, ua, pot)
        return rigid - {min(rigid)} if rigid else rigid

    monkeypatch.setattr(decide_mod, "rigid_vertices", rigid_vertices)
    report = evaluate_instance(inst)
    assert report.verdict.reachable
    assert report.violations == [("rigid", "decide's rigid sets differ from the full forest's")]


def test_count_mismatch_on_a_part_that_varies_is_reported(monkeypatch):
    """A COMPONENT_COUNT_MISMATCH names a part whose count each set's
    states keep.  decide calling every cut vertex rigid that holds no
    token turns a true RIGID_MISMATCH into a COMPONENT_COUNT_MISMATCH:
    still NO, so the oracle's answer agrees, but the part's count varies.
    (A token on its own rigid vertex raises; see below.)"""
    inst = gen_fuzz_instance(66)
    report = evaluate_instance(inst)
    assert report.violations == [] and report.verdict.reason is Reason.RIGID_MISMATCH
    tokens = {*inst.source, *inst.target}
    monkeypatch.setattr(
        decide_mod, "rigid_vertices", lambda bd, ua, pot: bd.cut_vertices - tokens
    )
    report = evaluate_instance(inst)
    assert report.verdict.reason is Reason.COMPONENT_COUNT_MISMATCH
    assert report.oracle_yes is False
    assert ("decision", "source: part [1, 2, 3] does not hold 0 tokens in every state") in report.violations


def test_token_on_its_own_rigid_vertex_raises(monkeypatch):
    """decide counts each token in the part of its node, which a token on
    a rigid vertex has none of: a rigid set holding a token of its own set
    raises InternalError, a plain raise that python -O keeps."""
    inst = gen_fuzz_instance(0)
    original = decide_mod.rigid_vertices
    token = inst.source.vertices[0]
    monkeypatch.setattr(
        decide_mod, "rigid_vertices", lambda bd, ua, pot: original(bd, ua, pot) | {token}
    )
    with pytest.raises(InternalError, match=f"source token on its own rigid vertex {token}"):
        decide(inst.graph, inst.source, inst.target)


def test_a_rigid_vertex_off_the_analysed_trees_is_reported(monkeypatch):
    """The certificate is checked against the full forest and a graph
    search.  A P3 with both leaves as tokens is analysed; beside it a P3
    holding one token of each set, on different leaves, is not.  Calling
    the second P3's centre rigid leaves decide's answer YES, since it has
    no node in the analysed trees, and its parts uncut; the full forest
    has no such rigid vertex, and the search splits that P3 in two."""
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    inst = Instance(g, TokenSet(g, [0, 2, 3]), TokenSet(g, [0, 2, 5]))
    original = decide_mod.rigid_vertices
    monkeypatch.setattr(
        decide_mod, "rigid_vertices", lambda bd, ua, pot: original(bd, ua, pot) | {4}
    )
    report = evaluate_instance(inst)
    assert report.verdict.certificate == Reachable(rigid=(1, 4), parts=3)
    assert report.violations == [
        ("rigid", "decide's rigid sets differ from the full forest's"),
        ("decision", "3 parts of G - R certified, 4 found"),
    ]


def with_certificate(monkeypatch, **fields):
    """decide in evaluate_instance returns its certificate with fields
    replaced."""
    def decide(g, c1, c2):
        verdict = decide_mod.decide(g, c1, c2)
        return replace(verdict, certificate=replace(verdict.certificate, **fields))

    monkeypatch.setattr(fuzz_mod, "decide", decide)


def test_a_rigid_mismatch_side_off_potential_zero_is_reported(monkeypatch):
    """A star centred at 0 whose leaf 1 has a pendant 2: the leaf tokens
    3 and 4 pin the centre for the target alone.  A certified side
    (B,0) with B = {0, 1}, whose potential is not 0, is reported."""
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (0, 4)])
    inst = Instance(g, TokenSet(g, [1, 4]), TokenSet(g, [3, 4]))
    assert evaluate_instance(inst).violations == []
    with_certificate(monkeypatch, sides=(((0, 3), 0), ((0, 1), 0)))
    assert evaluate_instance(inst).violations == [
        ("rigid", "target: (((0, 3), 0), ((0, 1), 0)) are not the sides of 0 at 0 with ua"),
    ]


def test_a_count_mismatch_part_off_the_graph_search_is_reported(monkeypatch):
    """The star's leaf tokens pin its centre 0, and the part {2}'s counts
    differ.  A certified part {1, 2}, which the centre's removal splits,
    is reported even with the counts it holds in every state."""
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    inst = Instance(g, TokenSet(g, [1, 2]), TokenSet(g, [1, 3]))
    assert evaluate_instance(inst).violations == []
    with_certificate(monkeypatch, part=(1, 2), counts=(2, 1))
    assert evaluate_instance(inst).violations == [
        ("decision", "[1, 2] is not a component of G - R whose counts differ"),
    ]


def test_the_checks_fire_under_optimize():
    """The raise on a token on its own rigid vertex, and the certificate
    checks of evaluate_instance, still fire under python -O."""
    script = (
        "import importlib, sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from blockslide import Graph, Instance, InternalError, TokenSet, decide\n"
        "from blockslide.fuzz import evaluate_instance\n"
        "dm = importlib.import_module('blockslide.decide')\n"
        "g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])\n"
        "original = dm.rigid_vertices\n"
        "dm.rigid_vertices = lambda bd, ua, pot: original(bd, ua, pot) | {0}\n"
        "try:\n"
        "    decide(g, [0, 2, 3], [0, 2, 5])\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
        "dm.rigid_vertices = lambda bd, ua, pot: original(bd, ua, pot) | {4}\n"
        "inst = Instance(g, TokenSet(g, [0, 2, 3]), TokenSet(g, [0, 2, 5]))\n"
        "for _, message in evaluate_instance(inst).violations:\n"
        "    print(message)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(blockslide.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "source token on its own rigid vertex 0",
        "decide's rigid sets differ from the full forest's",
        "3 parts of G - R certified, 4 found",
    ]
