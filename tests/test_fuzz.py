"""Fault injection into evaluate_instance: a fault in what one category
checks is reported under that category and no other."""

import importlib
from collections import defaultdict

import pytest

import blockslide.fuzz as fuzz_mod
from blockslide import BlockDecomposition, Reason
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
    states keep.  decide calling every cut vertex rigid turns a true
    RIGID_MISMATCH into a COMPONENT_COUNT_MISMATCH: still NO, so the
    oracle's answer agrees, but the part's count varies."""
    inst = gen_fuzz_instance(26)
    report = evaluate_instance(inst)
    assert report.violations == [] and report.verdict.reason is Reason.RIGID_MISMATCH
    monkeypatch.setattr(
        decide_mod, "rigid_vertices", lambda bd, ua, pot: frozenset(bd.cut_vertices)
    )
    report = evaluate_instance(inst)
    assert report.verdict.reason is Reason.COMPONENT_COUNT_MISMATCH
    assert report.oracle_yes is False
    assert ("decision", "source: part [7] does not hold 0 tokens in every state") in report.violations
