"""The running-total passes against the per-node re-summing reference.

compute_depths, compute_ua and the capacity pass add each pair's value to
its holder's totals once; reference_passes sums every node's list again.
Both must give the same depth, ua and capacity lists, and the fixed point
started from either must give the same potentials and iteration_count.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blockslide
import blockslide.potential as potential
from blockslide import (
    Instance,
    compute_depths,
    compute_potentials,
    compute_ua,
    decompose,
)
from blockslide.gen import gen_token_sets
from conftest import LADDER, fuzz_corpus, shuffled_unions, union_corpus
from reference_passes import (
    reference_capacities,
    reference_depths,
    reference_potentials,
    reference_short_pairs,
    reference_totals,
    reference_ua,
)


def _reference_start(bd, ua, const):
    cap = reference_capacities(bd, ua.array, const)
    return (cap, *reference_totals(bd, ua.array, cap))


def check_against_reference(inst):
    """Depth, ua, capacity and potential lists, zeros and iteration_count
    of both token sets equal those from the reference passes.  Right after
    the capacity pass, every pair below its equation is one of the pairs
    compute_potentials seeds: a (u,B) of a cut vertex with one zero side."""
    bd = decompose(inst.graph)
    d = compute_depths(bd)
    ref_d = reference_depths(bd)
    assert d == ref_d
    ua = compute_ua(bd)
    assert ua.array == reference_ua(bd, ref_d)
    ix = bd.index()
    for c in (inst.source, inst.target):
        const = potential._constants(bd, ua, c.vertices)
        cap, _, zeros = potential._capacities(bd, ua, const)
        assert cap == reference_capacities(bd, ua.array, const)
        seeds = {ix.last - q for x, z in enumerate(zeros) if z == 1 for q in ix.into[x]}
        assert seeds.issuperset(reference_short_pairs(bd, ua.array, const, cap))
        pot = compute_potentials(bd, ua, c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(potential, "_capacities", _reference_start)
            ref = compute_potentials(bd, ua, c)
        assert pot.array == ref.array
        assert pot.iteration_count == ref.iteration_count
        ref = reference_potentials(bd, ua, c)
        assert (pot.array, pot.zeros, pot.iteration_count) == (
            ref.array, ref.zeros, ref.iteration_count
        )


@pytest.mark.parametrize("start", range(0, 3000, 500))
def test_passes_match_reference_on_fuzz_seeds(start):
    for inst in fuzz_corpus(500, seed=start):
        check_against_reference(inst)


def test_passes_match_reference_on_shuffled_unions():
    for inst in shuffled_unions(random.Random("passes")):
        check_against_reference(inst)


@pytest.mark.parametrize("shape", sorted(LADDER))
def test_passes_match_reference_on_ladder_shapes(shape):
    # At 336 vertices, random_blocks makes a pair the fixed point's scan has
    # just taken rise again while its stack drains: it must go on the stack.
    for n in (336, 4096):
        g = LADDER[shape](n)
        assert g.n >= n - 2
        check_against_reference(Instance(g, *gen_token_sets(g, g.n // 4, 1, 2)))


def test_capacity_totals_equal_fresh_sums():
    """The totals the fixed point starts from are the node sums of the
    capacities the same pass returns."""
    for inst in fuzz_corpus(500) + union_corpus(40):
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        for c in (inst.source, inst.target):
            const = potential._constants(bd, ua, c.vertices)
            cap, total, zeros = potential._capacities(bd, ua, const)
            assert (total, zeros) == reference_totals(bd, ua.array, cap)


def test_capacity_checks_fire_under_optimize():
    """Both InternalError checks of the capacity pass are plain raises, so
    they still fire under python -O."""
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from blockslide import Graph, InternalError, compute_ua, decompose\n"
        "from blockslide.potential import _capacities\n"
        "bd = decompose(Graph(3, [(0, 1), (1, 2)]))\n"
        "ua = compute_ua(bd)\n"
        "ix = bd.index()\n"
        "sides = ix.into[2]  # the cut vertex's (B,u) pairs\n"
        "for const, into in (([-5] * 4, sides), ([0] * 4, sides[:1])):\n"
        "    ix.into = ix.into[:2] + (into,)\n"
        "    try:\n"
        "        _capacities(bd, ua, const)\n"
        "    except InternalError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(blockslide.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "negative capacity at pair id 0",
        "beta is empty at pair id 1",
    ]
