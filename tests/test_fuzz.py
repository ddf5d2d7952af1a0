"""Fault injection into evaluate_instance: a fault in what one category
checks is reported under that category and no other."""

import importlib
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import blockslide
import blockslide.fuzz as fuzz_mod
from blockslide import BlockDecomposition, Graph, InternalError, Reason, decide
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
    monkeypatch.setattr(BlockDecomposition, "kappa", lambda self, bid, u: frozenset())


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
    potential 0, which only a rigid vertex's sides may be."""
    original = fuzz_mod.compute_potentials

    def compute_potentials(bd, ua, c):
        pot = original(bd, ua, c)
        ix = bd.index()
        for p in range(0, len(pot.array), 2):
            block = bd.members[ix.block[p]]
            if ua.array[p] and not any(v in c for v in block if v != ix.base[p]):
                pot.array[p] = 0
        return pot

    monkeypatch.setattr(fuzz_mod, "compute_potentials", compute_potentials)


def test_zero_side_without_a_token_is_reported(monkeypatch):
    """The check decide's pruning rests on fires under rigid.  The faulty
    potentials break their equations too, so other categories fire with
    it."""
    inst = gen_fuzz_instance(SEED)
    zero_sides_off_tokens(monkeypatch)
    report = evaluate_instance(inst)
    assert any(
        found == "rigid" and "holds no token of its block" in message
        for found, message in report.violations
    )


def test_decide_rigid_set_off_the_full_forest_is_reported(monkeypatch):
    """decide's pruned rigid sets are compared with those of the full
    forest: on a YES instance with a rigid vertex, decide losing the least
    one still answers YES, and only that check fires."""
    inst = gen_fuzz_instance(0)
    report = evaluate_instance(inst)
    assert report.violations == [] and report.verdict.details["rigid_source"]
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


def test_details_that_disagree_with_the_labels_raise(monkeypatch):
    """The details' graph search cross-checks the labels' verdict when read.
    A P3 with both leaves as tokens is analysed; beside it a P3 holding one
    token of each set, on different leaves, is not.  Calling the second
    P3's centre rigid leaves the labels' answer YES, since it has no node
    in the analysed trees, while the search splits that P3 into two parts
    whose counts differ."""
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    original = decide_mod.rigid_vertices
    monkeypatch.setattr(
        decide_mod, "rigid_vertices", lambda bd, ua, pot: original(bd, ua, pot) | {4}
    )
    verdict = decide(g, [0, 2, 3], [0, 2, 5])
    assert verdict.reachable
    with pytest.raises(InternalError, match="the graph search stops at"):
        verdict.details["component_counts"]


def test_the_checks_fire_under_optimize():
    """Both checks are plain raises, so they still fire under python -O."""
    script = (
        "import importlib, sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from blockslide import Graph, InternalError, decide\n"
        "dm = importlib.import_module('blockslide.decide')\n"
        "g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])\n"
        "original = dm.rigid_vertices\n"
        "for extra in (0, 4):\n"
        "    dm.rigid_vertices = lambda bd, ua, pot: original(bd, ua, pot) | {extra}\n"
        "    try:\n"
        "        decide(g, [0, 2, 3], [0, 2, 5]).details['component_counts']\n"
        "    except InternalError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(blockslide.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2, lines
    assert lines[0] == "source token on its own rigid vertex 0"
    assert lines[1].startswith("the graph search stops at")
