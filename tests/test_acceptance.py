"""End-to-end acceptance suite.

A single 12,000-seed corpus is evaluated once (module-scoped fixture) and
the per-category tallies back the first six checks; the remaining checks
use dedicated fixtures.  Each test emits one PASS/FAIL line directly to the
terminal, bypassing capture, so a full run reads as a scorecard.
"""

import time
from collections import Counter

import pytest

from blockslide import (
    GenParams,
    Graph,
    Reason,
    TokenSet,
    compute_potentials,
    compute_ua,
    decide,
    decompose,
    enumerate_reachable,
    gen_block_graph,
    gen_independent_set,
    oracle_reachable,
    rigid_vertices,
    NO,
)
from blockslide.fuzz import evaluate_instance, gen_fuzz_instance
from blockslide.oracle import _successor_masks, adjacency_masks, mask_of
from conftest import CHAIN_EDGES, CHAIN_NAMES

# 10,000 seeds at the default envelope yield slightly under 500 NO
# outcomes; two thousand extra seeds clear the quota with margin.
CORPUS_SIZE = 12_000


@pytest.fixture(scope="module")
def corpus():
    """Tallies from running every check on seeds 0..CORPUS_SIZE-1."""
    tally = Counter()
    yes = no = 0
    for seed in range(CORPUS_SIZE):
        report = evaluate_instance(gen_fuzz_instance(seed))
        for category, _ in report.violations:
            tally[category] += 1
        if report.oracle_yes is True:
            yes += 1
        elif report.oracle_yes is False:
            no += 1
    return {"tally": tally, "yes": yes, "no": no}


def scorecard(capsys, label, ok, detail=""):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_decision_matches_oracle_on_corpus(corpus, capsys):
    t = corpus["tally"]
    ok = (
        t["decision"] == 0
        and t["truncated"] == 0
        and corpus["yes"] >= 500
        and corpus["no"] >= 500
    )
    scorecard(
        capsys,
        f"decision agrees with oracle on {CORPUS_SIZE} instances",
        ok,
        f"{t['decision']} disagreements, {corpus['yes']} YES / {corpus['no']} NO",
    )


def test_potentials_match_oracle_on_corpus(corpus, capsys):
    t = corpus["tally"]
    scorecard(
        capsys,
        "fixed-point potentials equal brute-force potentials on every pair",
        t["potential"] == 0,
        f"{t['potential']} mismatches",
    )


def test_capacity_invariants_on_corpus(corpus, capsys):
    t = corpus["tally"]
    scorecard(
        capsys,
        "capacity nonnegative; positive when ua holds and base is unattacked",
        t["capacity"] == 0,
        f"{t['capacity']} violations",
    )


def test_fixed_point_equations_on_corpus(corpus, capsys):
    t = corpus["tally"]
    scorecard(
        capsys,
        "final tables satisfy both recurrences and the per-side block bound",
        t["fixedpoint"] == 0,
        f"{t['fixedpoint']} violations",
    )


def test_iteration_bound_on_corpus_and_large_graphs(corpus, capsys):
    t = corpus["tally"]
    large_ok = True
    for blocks, seed in ((50, 1), (200, 2), (500, 3)):
        g = gen_block_graph(GenParams(seed, blocks, 4))
        bd = decompose(g)
        ua = compute_ua(bd)
        c = gen_independent_set(seed, g, g.n // 5)
        pot = compute_potentials(bd, ua, c)
        m = len(bd.blocks)
        ncut = len(bd.cut_vertices)
        if pot.iteration_count > 2 * m * (ncut + m - 1) + 1:
            large_ok = False
    scorecard(
        capsys,
        "sweep count stays within 2m(n+m-1)+1 up to 500 blocks",
        t["iteration"] == 0 and large_ok,
        f"{t['iteration']} corpus violations, large graphs ok={large_ok}",
    )


def test_rigid_vertices_never_carry_tokens(corpus, capsys):
    t = corpus["tally"]
    scorecard(
        capsys,
        "rigid vertices are a subset of never-token vertices (one-sided)",
        t["rigid"] == 0,
        f"{t['rigid']} violations",
    )


def test_chain_gadget_drain_requirement(capsys):
    """Reaching y2 in the two-link chain requires an intermediate state with
    at most 2 tokens inside the region A2."""
    g = Graph(10, CHAIN_EDGES)
    start = TokenSet(g, [CHAIN_NAMES[s] for s in ("u1", "w1", "u2", "w2")])
    a2_mask = sum(1 << CHAIN_NAMES[s]
                  for s in ("y1", "y2", "x1", "u1", "v1", "w1", "x2", "u2", "v2", "w2"))
    y2_bit = 1 << CHAIN_NAMES["y2"]

    t0 = time.monotonic()
    # BFS with predecessors so each state's path back to the start is known
    parent = {mask_of(start): None}
    frontier = [mask_of(start)]
    adjacency = adjacency_masks(g)

    while frontier:
        nxt = []
        for mask in frontier:
            for succ in _successor_masks(g, adjacency, mask):
                if succ not in parent:
                    parent[succ] = mask
                    nxt.append(succ)
        frontier = nxt

    ok = True
    for mask in parent:
        if not mask & y2_bit:
            continue
        node, drained = mask, False
        while node is not None:
            if (node & a2_mask).bit_count() <= 2:
                drained = True
                break
            node = parent[node]
        if not drained:
            ok = False

    target = TokenSet(g, [CHAIN_NAMES[s] for s in ("y2", "u1", "w1", "u2")])
    verdict = decide(g, start, target)
    oracle = oracle_reachable(g, start, target)
    ok = ok and verdict.reachable == (oracle == "yes")
    elapsed = time.monotonic() - t0
    scorecard(
        capsys,
        "chain gadget: y2 only via a drained A2; decision matches oracle",
        ok and elapsed < 5.0,
        f"{len(parent)} states, {elapsed:.2f}s",
    )


def test_star_counterexample(capsys):
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    c1 = TokenSet(g, [1, 2])
    c2 = TokenSet(g, [1, 3])
    verdict = decide(g, c1, c2)
    bd = decompose(g)
    ua = compute_ua(bd)
    rigid = rigid_vertices(bd, ua, compute_potentials(bd, ua, c1))
    ok = (
        not verdict.reachable
        and verdict.reason is Reason.COMPONENT_COUNT_MISMATCH
        and rigid == frozenset({0})
        and oracle_reachable(g, c1, c2) == NO
    )
    scorecard(
        capsys,
        "star K1,3: NO by component counts, centre rigid, oracle concurs",
        ok,
        f"reason={verdict.reason.value}, rigid={sorted(rigid)}",
    )


def test_large_instance_under_a_minute(capsys):
    g = gen_block_graph(GenParams(7, 450, 5))
    c1 = gen_independent_set(1, g, max(200, g.n // 4))
    c2 = gen_independent_set(2, g, max(200, g.n // 4))
    assert len(g.edges) >= 2000 and len(c1) >= 200 and len(c2) == len(c1)
    t0 = time.monotonic()
    verdict = decide(g, c1, c2)
    elapsed = time.monotonic() - t0
    scorecard(
        capsys,
        "decision on a 2000+-edge, 200+-token instance in under 60s",
        elapsed < 60.0,
        f"{len(g.edges)} edges, {len(c1)} tokens, {verdict.reason.value}, {elapsed:.1f}s",
    )
