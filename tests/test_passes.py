"""The running-total passes against the per-node re-summing reference.

compute_depths, compute_ua, the capacity pass and the potentials' sweep add
each pair's value to its holder's totals once; reference_passes sums every
node's list again.  Both must give the same depth, ua, capacity and sweep
lists, and the fixed point started from either sweep must give the same
potentials, zeros and iteration_count.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import blockslide
import blockslide.oracle as oracle
import blockslide.potential as potential
from blockslide import (
    Instance,
    capacity_table,
    compute_depths,
    compute_potentials,
    compute_ua,
    decide,
    decompose,
)
from blockslide.gen import gen_token_sets
from conftest import LADDER, fuzz_corpus, shuffled_unions, union_corpus
from reference_passes import (
    reference_capacities,
    reference_capacity_potentials,
    reference_constants,
    reference_depths,
    reference_potentials,
    reference_short_pairs,
    reference_sweep,
    reference_totals,
    reference_ua,
)


def _reference_start(const):
    """In place of _sweep, the reference sweep from the constants const,
    with fresh node sums, seeding exactly the pairs below their
    equation."""
    def start(bd, ua, tok):
        y = reference_sweep(bd, ua.array, const)
        return (y, *reference_totals(bd, ua.array, y),
                reference_short_pairs(bd, ua.array, const, y))
    return start


def check_against_reference(inst):
    """Depth, ua, capacity, sweep and potential lists, zeros and
    iteration_count of both token sets equal those from the reference
    passes, and the sweep's running totals equal fresh node sums of its
    values.  Right after the sweep, every pair below its equation is one of
    the pairs compute_potentials seeds.  The fixed point from the
    capacities, every pair queued, takes at least as many increases."""
    bd = decompose(inst.graph)
    d = compute_depths(bd)
    ref_d = reference_depths(bd)
    assert d == ref_d
    ua = compute_ua(bd)
    assert ua.array == reference_ua(bd, ref_d)
    for c in (inst.source, inst.target):
        const = reference_constants(bd, ua.array, c)
        assert capacity_table(bd, ua, c) == reference_capacities(bd, ua.array, const)
        y, total, zeros, seeds = potential._sweep(bd, ua, potential._marks(bd, c))
        assert y == reference_sweep(bd, ua.array, const)
        assert (total, zeros) == reference_totals(bd, ua.array, y)
        assert set(seeds).issuperset(reference_short_pairs(bd, ua.array, const, y))
        pot = compute_potentials(bd, ua, c)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(potential, "_sweep", _reference_start(const))
            ref = compute_potentials(bd, ua, c)
        assert (pot.array, pot.zeros, pot.iteration_count) == (
            ref.array, ref.zeros, ref.iteration_count
        )
        ref = reference_potentials(bd, ua, c)
        assert (pot.array, pot.zeros, pot.iteration_count) == (
            ref.array, ref.zeros, ref.iteration_count
        )
        ref = reference_capacity_potentials(bd, ua, c)
        assert (pot.array, pot.zeros) == (ref.array, ref.zeros)
        assert pot.iteration_count <= ref.iteration_count


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
    """The totals the capacity pass ends with are the node sums of the
    capacities the same pass returns."""
    for inst in fuzz_corpus(500) + union_corpus(40):
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        for c in (inst.source, inst.target):
            cap, total, zeros = oracle._capacities(bd, ua, potential._marks(bd, c))
            assert (total, zeros) == reference_totals(bd, ua.array, cap)


def test_decide_runs_no_capacity_pass():
    """The fixed point starts from the sweep: decide never calls the
    capacity pass, which stays for the checker and matches its reference."""
    ladder = []
    for shape in sorted(LADDER):
        g = LADDER[shape](336)
        ladder.append(Instance(g, *gen_token_sets(g, g.n // 4, 1, 2)))
    corpus = fuzz_corpus(500) + ladder

    def refuse(*args):
        raise AssertionError("decide ran the capacity pass")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_capacities", refuse)
        for inst in corpus:
            decide(inst.graph, inst.source, inst.target)
    for inst in corpus:
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        for c in (inst.source, inst.target):
            const = reference_constants(bd, ua.array, c)
            assert capacity_table(bd, ua, c) == reference_capacities(bd, ua.array, const)


def _run_checks_under_optimize(module, name):
    """Feed the pass `name` of blockslide.`module` a token mark on a block
    whose (B,u) pair has its ua patched to False, so that its constant is
    negative, and then an index whose cut vertex has one side only, under
    python -O, and return the InternalError messages it printed."""
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from blockslide import Graph, InternalError, compute_ua, decompose\n"
        "from blockslide.potential import _marks\n"
        f"from blockslide.{module} import {name} as run\n"
        "bd = decompose(Graph(3, [(0, 1), (1, 2)]))\n"
        "ua = compute_ua(bd)\n"
        "ix = bd.index()\n"
        "sides = ix.into[2]  # the cut vertex's (B,u) pairs\n"
        "(q,) = ix.into[1]  # block {1, 2}'s (1,B); last - q is its (B,1)\n"
        "for a, tokens, into in ((False, [2], sides), (True, [], sides[:1])):\n"
        "    ua.array[ix.last - q] = a\n"
        "    ix.into = ix.into[:2] + (into,)\n"
        "    try:\n"
        "        run(bd, ua, _marks(bd, tokens))\n"
        "    except InternalError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(blockslide.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_capacity_checks_fire_under_optimize():
    """Both InternalError checks of the capacity pass are plain raises, so
    they still fire under python -O."""
    assert _run_checks_under_optimize("oracle", "_capacities") == [
        "negative capacity at pair id 0",
        "beta is empty at pair id 1",
    ]


def test_sweep_checks_fire_under_optimize():
    """Both InternalError checks of the potentials' sweep are plain raises,
    so they still fire under python -O."""
    assert _run_checks_under_optimize("potential", "_sweep") == [
        "negative sweep value at pair id 0",
        "beta is empty at pair id 1",
    ]
