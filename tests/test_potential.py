import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockslide
from blockslide import (
    BlockslideError,
    Graph,
    NotIndependentError,
    TokenSet,
    capacity_table,
    compute_potentials,
    compute_ua,
    VertexOutOfRangeError,
    decompose,
    oracle_potential,
    oracle_potential_table,
)
from conftest import fuzz_corpus, slow_capacity, union_corpus
from reference_potential import restart_sweep_potentials


def setup(g):
    bd = decompose(g)
    ua = compute_ua(bd)
    return bd, ua


def test_path3_capacities(path3):
    bd, ua = setup(path3)
    c = TokenSet(path3, [0])
    # by pair id: (B1,1), (1,B0), (B0,1), (1,B1)
    assert capacity_table(bd, ua, c) == [1, 1, 0, 0]


def test_path3_potentials(path3):
    bd, ua = setup(path3)
    c = TokenSet(path3, [0])
    pot = compute_potentials(bd, ua, c)
    assert pot.array == [1, 1, 0, 0]
    # the sweep already reaches the fixed point: no increase
    assert pot.iteration_count == 1
    # the restart sweep from 0 needs two increases
    ref = restart_sweep_potentials(bd, ua, c)
    assert ref.array == [1, 1, 0, 0]
    assert ref.iteration_count == 3


def test_empty_token_set_capacity_equals_potential(k4_pendant):
    bd, ua = setup(k4_pendant)
    c = TokenSet(k4_pendant, [])
    # nothing can move, so the best reachable capacity is the current one
    assert compute_potentials(bd, ua, c).array == capacity_table(bd, ua, c)


CORPUS = fuzz_corpus(80, seed=37)


def corpus_setups():
    for inst in CORPUS:
        bd = decompose(inst.graph)
        ua = compute_ua(bd)
        yield inst, bd, ua


@pytest.mark.parametrize("idx", range(0, 80, 4))
def test_capacity_matches_definitional_recursion(idx):
    inst = CORPUS[idx]
    bd, ua = setup(inst.graph)
    for c in (inst.source, inst.target):
        table = capacity_table(bd, ua, c)
        assert capacity_table(bd, ua, list(c)) == table
        assert table == [slow_capacity(bd, c, p) for p in bd.pairs()]


@pytest.mark.parametrize("idx", range(0, 80, 4))
def test_potential_dominates_capacity(idx):
    """C itself is reachable from C, so pot(C,p) >= cap(C[p])."""
    inst = CORPUS[idx]
    bd, ua = setup(inst.graph)
    for c in (inst.source, inst.target):
        pot = compute_potentials(bd, ua, c)
        table = capacity_table(bd, ua, c)
        for p, x, cap in zip(bd.pairs(), pot.array, table, strict=True):
            assert x >= cap >= 0
            assert x <= bd.blocks_in_side(p)


@pytest.mark.parametrize("idx", range(0, 80, 8))
def test_potentials_match_brute_force(idx):
    inst = CORPUS[idx]
    g = inst.graph
    bd, ua = setup(g)
    for c in (inst.source, inst.target):
        pot = compute_potentials(bd, ua, c)
        assert pot.array == [oracle_potential(g, bd, ua, c, p) for p in bd.pairs()]


@pytest.mark.parametrize("start", range(0, 120, 40))
def test_potentials_on_unions_match_oracle(start):
    """A disconnected graph needs no split: no equation crosses components."""
    for inst in union_corpus(20, seed=start):
        g = inst.graph
        bd, ua = setup(g)
        for c in (inst.source, inst.target):
            assert compute_potentials(bd, ua, c).array == (
                oracle_potential_table(g, bd, ua, c)
            )


@pytest.mark.parametrize("start", range(0, 3000, 500))
def test_potentials_match_restart_sweep(start):
    """The worklist from the starting sweep reaches the restart sweep's values
    on fuzz seeds 0..2999, both token sets."""
    for inst in fuzz_corpus(500, seed=start):
        bd, ua = setup(inst.graph)
        for c in (inst.source, inst.target):
            assert compute_potentials(bd, ua, c).array == (
                restart_sweep_potentials(bd, ua, c).array
            )


@pytest.mark.parametrize("idx", range(0, 80, 4))
def test_iteration_count_within_bound(idx):
    inst = CORPUS[idx]
    bd, ua = setup(inst.graph)
    m = len(bd.blocks)
    ncut = len(bd.cut_vertices)
    for c in (inst.source, inst.target):
        pot = compute_potentials(bd, ua, c)
        assert 1 <= pot.iteration_count <= 2 * m * (ncut + m - 1) + 1


def test_single_clique_trivial():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    bd, ua = setup(g)
    pot = compute_potentials(bd, ua, TokenSet(g, [1]))
    assert pot.array == []
    assert pot.iteration_count == 1



# Per token set on the P3 {3, 4, 5} kept beside the P3 {0, 1, 2}, the error
# both passes raise: vertex 0 lies in no kept block, -1 and 99 in no graph,
# and 3 and 4 share a block.
BAD_TOKENS = [
    ([0], BlockslideError, "token 0 lies outside the decomposition's blocks"),
    ([-1], VertexOutOfRangeError, "vertex -1 out of range for graph with 6 vertices"),
    ([99], VertexOutOfRangeError, "vertex 99 out of range for graph with 6 vertices"),
    ([3, 4], NotIndependentError, "set is not an independent set"),
]


def test_tokens_outside_the_decomposition_are_rejected():
    """A token outside the index's blocks or the graph, or a second token
    in one block, raises for both passes instead of being read as a token
    elsewhere; the checks are plain raises, so they also fire under
    python -O."""
    bd = decompose(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])).within({1})
    ua = compute_ua(bd)
    assert bd.members == ((3, 4), (4, 5))
    for tokens, error, message in BAD_TOKENS:
        for run in (compute_potentials, capacity_table):
            with pytest.raises(BlockslideError) as exc:
                run(bd, ua, tokens)
            assert (type(exc.value), str(exc.value)) == (error, message)
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "from blockslide import *\n"
        "bd = decompose(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])).within({1})\n"
        "ua = compute_ua(bd)\n"
        f"for tokens in {[tokens for tokens, _, _ in BAD_TOKENS]}:\n"
        "    for run in (compute_potentials, capacity_table):\n"
        "        try:\n"
        "            run(bd, ua, tokens)\n"
        "        except BlockslideError as exc:\n"
        "            print(type(exc).__name__, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(Path(blockslide.__file__).parents[1])),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    expected = [f"{error.__name__} {message}" for _, error, message in BAD_TOKENS]
    assert result.stdout.splitlines() == [line for line in expected for _ in range(2)]
