"""Cross-validation harness: solver vs brute-force oracle on generated
instances, plus the structural invariants that must hold on every instance.

One seed determines one instance end to end, so a reported failure replays
from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import TO_BLOCK, TO_VERTEX, Pair, decompose
from .decide import decide, rigid_vertices
from .errors import InvalidParamsError
from .gen import GenParams, SplitMix64, gen_block_graph, gen_token_sets
from .instance import Instance
from .invariants import compute_depths, compute_ua
from .oracle import (
    OracleLimits,
    adjacency_masks,
    enumerate_reachable,
    mask_of,
    never_token_vertices,
    oracle_potential_table,
)
from .potential import capacity_table, compute_potentials


@dataclass(frozen=True)
class FuzzEnvelope:
    max_blocks: int = 6
    max_clique: int = 4
    max_tokens: int = 4
    max_vertices: int | None = 12

    def __post_init__(self):
        if self.max_blocks < 1:
            raise InvalidParamsError("max_blocks must be positive")
        if self.max_clique < 2:
            raise InvalidParamsError("max_clique must be at least 2")
        if self.max_tokens < 0:
            raise InvalidParamsError("max_tokens must be nonnegative")


def gen_fuzz_instance(seed, env=FuzzEnvelope()):
    """Deterministic instance for one fuzz seed."""
    rng = SplitMix64(seed)
    blocks = rng.randint(1, env.max_blocks)
    graph_seed = rng.next_u64()
    g = gen_block_graph(GenParams(graph_seed, blocks, env.max_clique))
    while env.max_vertices is not None and g.n > env.max_vertices and blocks > 1:
        blocks -= 1
        g = gen_block_graph(GenParams(graph_seed, blocks, env.max_clique))
    k = rng.randint(0, env.max_tokens)
    seed_src = rng.next_u64()
    seed_tgt = rng.next_u64()
    return Instance(g, *gen_token_sets(g, k, seed_src, seed_tgt))


@dataclass
class InstanceReport:
    violations: list  # (category, message) pairs
    oracle_yes: bool | None = None
    verdict: object = None

    def messages(self):
        return [msg for _, msg in self.violations]


def evaluate_instance(inst, lim=OracleLimits()):
    """All solver-vs-oracle and invariant checks for one instance.

    Violations are tagged with a category so harnesses can tally them:
    decision, potential, capacity, fixedpoint, iteration, rigid, truncated.
    """
    g, c1, c2 = inst.graph, inst.source, inst.target
    failures = []
    bd = decompose(g)
    depths = compute_depths(bd)
    ua = compute_ua(bd, depths)
    pair_list = bd.pairs()
    m = len(bd.blocks)
    ncut = len(bd.cut_vertices)
    iter_bound = 2 * m * (ncut + m - 1) + 1
    adjacency = adjacency_masks(g)
    # per pair, the mask of its side's interior: G[p] without the base
    interior = {p: mask_of(bd.side_vertices(p)) & ~(1 << p.base) for p in pair_list}

    def interior_count(mask, p):
        return (mask & interior[p]).bit_count()

    pots = {}
    for name, c in (("source", c1), ("target", c2)):
        pot = compute_potentials(bd, ua, c)
        pots[name] = pot
        if pot.iteration_count > iter_bound:
            failures.append(
                ("iteration",
                 f"{name}: iteration_count {pot.iteration_count} > bound {iter_bound}")
            )
        caps = capacity_table(bd, ua, c)
        c_mask = mask_of(c)
        for p in pair_list:
            cap = caps[p]
            if cap < 0:
                failures.append(("capacity", f"{name}: negative capacity at {p}"))
            side_tokens = c_mask & interior[p]
            base_attacked = bool(adjacency[p.base] & side_tokens)
            if ua[p] and not base_attacked and cap <= 0:
                failures.append(("capacity", f"{name}: ua and unattacked base but cap=0 at {p}"))
            x = pot[p]
            if x > bd.blocks_in_side(p):
                failures.append(("fixedpoint", f"{name}: potential {x} exceeds block count at {p}"))
            if p.is_to_vertex:
                bid, u = p.block, p.base
                in_block = (c_mask & mask_of(bd.blocks[bid]) & ~(1 << u)).bit_count()
                rhs = (
                    sum(pot[Pair(TO_BLOCK, v, bid)] for v in bd.kappa(bid, u))
                    + int(ua[p])
                    - in_block
                )
                if rhs < 0:
                    failures.append(("fixedpoint", f"{name}: negative fixed-point operand at {p}"))
                if x != rhs:
                    failures.append(("fixedpoint", f"{name}: fixed-point equation fails at {p}"))
                # interiors of the sub-sides partition the interior off-block
                lhs = sum(
                    interior_count(c_mask, Pair(TO_BLOCK, v, bid))
                    for v in bd.kappa(bid, u)
                )
                if lhs != interior_count(c_mask, p) - in_block:
                    failures.append(("fixedpoint", f"{name}: interior sum identity fails at {p}"))
            else:
                u, bid = p.base, p.block
                incident = [Pair(TO_VERTEX, u, b) for b in bd.blocks_of[u]]
                two_zero = (
                    sum(1 for q in incident if pot[q] == 0 and ua[q]) >= 2
                )
                if two_zero:
                    if x != 0:
                        failures.append(
                            ("fixedpoint", f"{name}: fixed-point zero case fails at {p}")
                        )
                else:
                    rhs = (
                        sum(
                            pot[Pair(TO_VERTEX, u, b)]
                            - int(ua[Pair(TO_VERTEX, u, b)])
                            for b in bd.beta(u, bid)
                        )
                        + int(ua[p])
                    )
                    if x != rhs:
                        failures.append(("fixedpoint", f"{name}: fixed-point equation fails at {p}"))
                lhs = sum(
                    interior_count(c_mask, Pair(TO_VERTEX, u, b))
                    for b in bd.beta(u, bid)
                )
                if lhs != interior_count(c_mask, p):
                    failures.append(("fixedpoint", f"{name}: interior sum identity fails at {p}"))

    space1 = enumerate_reachable(g, c1, lim)
    space2 = enumerate_reachable(g, c2, lim)
    if space1.truncated or space2.truncated:
        failures.append(("truncated", "oracle truncated; envelope too large"))
        return InstanceReport(failures)

    oracle_yes = mask_of(c2) in space1.visited
    verdict = decide(g, c1, c2)
    if verdict.reachable != oracle_yes:
        failures.append(
            ("decision",
             f"decide says {verdict.reason.value}, oracle says "
             f"{'yes' if oracle_yes else 'no'}")
        )

    for name, c, space in (("source", c1, space1), ("target", c2, space2)):
        otab = oracle_potential_table(g, bd, ua, c, lim, space=space)
        for p in pair_list:
            if pots[name][p] != otab[p]:
                failures.append(
                    ("potential",
                     f"{name}: potential mismatch at {p}: "
                     f"algorithm {pots[name][p]}, oracle {otab[p]}")
                )

    rigid1 = rigid_vertices(bd, ua, pots["source"])
    rigid2 = rigid_vertices(bd, ua, pots["target"])
    never1 = never_token_vertices(space1)
    never2 = never_token_vertices(space2)
    if not rigid1 <= never1:
        failures.append(("rigid", f"rigid set {sorted(rigid1)} not within never-token set"))
    if not rigid2 <= never2:
        failures.append(("rigid", f"rigid set {sorted(rigid2)} not within never-token set"))
    if oracle_yes and rigid1 != rigid2:
        failures.append(("rigid", "reachable sets have different rigid sets"))

    return InstanceReport(failures, oracle_yes=oracle_yes, verdict=verdict)


def check_instance(inst, lim=OracleLimits()):
    """Violation messages for one instance; empty means all checks passed."""
    return evaluate_instance(inst, lim).messages()


def run_fuzz(count, env=FuzzEnvelope(), seed=0, lim=OracleLimits(), on_failure=None):
    """Run `count` seeded instances; stop at the first failing one.

    Returns (instances_run, failing_instance_or_None, failures).
    """
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    for i in range(count):
        inst = gen_fuzz_instance(seed + i, env)
        failures = check_instance(inst, lim)
        if failures:
            if on_failure is not None:
                on_failure(seed + i, inst, failures)
            return i, inst, failures
    return count, None, []
