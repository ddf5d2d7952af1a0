import pytest

from blockslide import (
    Graph,
    NO,
    OracleLimits,
    TokenSet,
    TruncatedSpaceError,
    UNKNOWN,
    YES,
    compute_ua,
    decompose,
    enumerate_reachable,
    never_token_vertices,
    oracle_potential,
    oracle_potential_table,
    oracle_reachable,
    successors,
)
from conftest import fuzz_corpus


def test_successors_path3(path3):
    c = TokenSet(path3, [0])
    succ = successors(path3, c)
    assert [s.vertices for s in succ] == [(1,)]


def test_successors_respect_independence(path3):
    c = TokenSet(path3, [0, 2])
    # both tokens are pinned: moving either onto 1 attacks the other
    assert successors(path3, c) == []


def test_enumerate_path3(path3):
    space = enumerate_reachable(path3, TokenSet(path3, [0]))
    assert space.visited == {0b001, 0b010, 0b100}
    assert not space.truncated


def test_oracle_yes_no(path3, star):
    assert oracle_reachable(path3, TokenSet(path3, [0]), TokenSet(path3, [2])) == YES
    c1 = TokenSet(star, [1, 2])
    c2 = TokenSet(star, [1, 3])
    assert oracle_reachable(star, c1, c2) == NO


def test_oracle_size_mismatch_is_no(path3):
    assert (
        oracle_reachable(path3, TokenSet(path3, [0]), TokenSet(path3, [0, 2])) == NO
    )


def test_oracle_truncation_gives_unknown(path3):
    lim = OracleLimits(max_states=1, max_millis=60_000)
    ans = oracle_reachable(path3, TokenSet(path3, [0]), TokenSet(path3, [2]), lim)
    assert ans == UNKNOWN


def test_limits_validation():
    with pytest.raises(ValueError):
        OracleLimits(max_states=0)
    with pytest.raises(ValueError):
        OracleLimits(max_millis=-1)


def test_never_token_star(star):
    space = enumerate_reachable(star, TokenSet(star, [1, 2]))
    assert never_token_vertices(space) == frozenset({0, 3})


def test_never_token_requires_complete_space(path3):
    lim = OracleLimits(max_states=1)
    space = enumerate_reachable(path3, TokenSet(path3, [0]), lim)
    assert space.truncated
    with pytest.raises(TruncatedSpaceError):
        never_token_vertices(space)


def test_stop_at_short_circuits(path3):
    c = TokenSet(path3, [0])
    space = enumerate_reachable(path3, c, stop_at=0b010)
    assert 0b010 in space.visited
    assert 0b100 not in space.visited  # search stopped one level early


def test_potential_table_matches_per_pair():
    inst = fuzz_corpus(1, seed=99)[0]
    g = inst.graph
    bd = decompose(g)
    ua = compute_ua(bd)
    table = oracle_potential_table(g, bd, ua, inst.source)
    assert table == [oracle_potential(g, bd, ua, inst.source, p) for p in bd.pairs()]


def test_potential_none_on_truncation(path3):
    bd = decompose(path3)
    ua = compute_ua(bd)
    lim = OracleLimits(max_states=1)
    c = TokenSet(path3, [0])
    p = bd.pairs()[0]
    assert oracle_potential(path3, bd, ua, c, p, lim) is None
    assert oracle_potential_table(path3, bd, ua, c, lim) is None


def test_reachability_is_symmetric_small():
    """Slides are reversible, so the visited sets agree on membership."""
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    c1 = TokenSet(g, [0, 3])
    c2 = TokenSet(g, [2, 4])
    fwd = oracle_reachable(g, c1, c2)
    bwd = oracle_reachable(g, c2, c1)
    assert fwd == bwd


def test_state_count_is_conserved():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    c = TokenSet(g, [0, 3])
    space = enumerate_reachable(g, c)
    for mask in space.visited:
        assert bin(mask).count("1") == 2
