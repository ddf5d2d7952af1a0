"""Cross-validation harness: solver vs brute-force oracle on generated
instances, plus the structural invariants that must hold on every instance.

One seed determines one instance end to end, so a reported failure replays
from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import decompose
from .decide import Reason, decide, rigid_vertices
from .errors import InvalidParamsError
from .gen import GenParams, SplitMix64, gen_block_graph, gen_token_sets
from .instance import Instance
from .invariants import compute_ua
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
        # gen_fuzz_instance drops blocks down to one, of up to max_clique
        # vertices, and never cuts a block down.
        if self.max_vertices is not None and self.max_vertices < self.max_clique:
            raise InvalidParamsError("max_vertices must be at least max_clique")


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
    Under rigid, besides the oracle's never-token set, every (B,u) at
    potential 0 with ua must hold a token of B other than u: decide's
    pruning of the trees with fewer than two tokens rests on it, and its
    rigid sets must equal those of the full forest.
    Per-pair values are read by pair id.  Each pair's dependencies come from
    the closed forms kappa and beta, not from the pair index that the
    solver's passes walk, so the equations are checked independently of it.
    """
    g, c1, c2 = inst.graph, inst.source, inst.target
    failures = []
    bd = decompose(g)
    ua = compute_ua(bd)
    ix = bd.index()
    pairs = bd.pairs()  # for the side walks and the messages
    m = len(bd.members)
    ncut = len(bd.cut_vertices)
    iter_bound = 2 * m * (ncut + m - 1) + 1
    adjacency = adjacency_masks(g)
    block_masks = [mask_of(b) for b in bd.members]
    # per pair id, from one side walk: the blocks of G[p], and the mask of
    # its interior, G[p] without the base
    sides = list(map(bd.side, pairs))
    in_side = [count for count, _ in sides]
    interior = [mask_of(vs) & ~(1 << p.base) for p, (_, vs) in zip(pairs, sides)]
    # per tree edge u--B, the id of (B,u), whose reverse (u,B) is one more;
    # per pair id, the ids of its dependencies: (v,B) for v in kappa(B,u),
    # (B',u) for B' in beta(u,B); per cut vertex u, the ids of all its (B,u)
    edge = {(u, b): i for i, (u, b) in enumerate(zip(ix.base, ix.block)) if not i & 1}
    deps = [
        [edge[u, b] for b in bd.beta(u, bid)] if i & 1
        else [edge[v, bid] + 1 for v in bd.kappa(bid, u)]
        for i, (u, bid) in enumerate(zip(ix.base, ix.block))
    ]
    incident = {u: [edge[u, b] for b in bd.blocks_of[u]] for u in bd.cut_vertices}
    a = ua.array  # ua per pair id

    pots = []
    for name, c in (("source", c1), ("target", c2)):
        pot = compute_potentials(bd, ua, c)
        pots.append(pot)
        if pot.iteration_count > iter_bound:
            failures.append(
                ("iteration",
                 f"{name}: iteration_count {pot.iteration_count} > bound {iter_bound}")
            )
        caps = capacity_table(bd, ua, c)
        y = pot.array
        c_mask = mask_of(c)
        for i, (u, bid) in enumerate(zip(ix.base, ix.block)):
            p, cap, x = pairs[i], caps[i], y[i]
            if cap < 0:
                failures.append(("capacity", f"{name}: negative capacity at {p}"))
            if a[i] and not adjacency[u] & c_mask & interior[i] and cap <= 0:
                failures.append(("capacity", f"{name}: ua and unattacked base but cap=0 at {p}"))
            if x > in_side[i]:
                failures.append(("fixedpoint", f"{name}: potential {x} exceeds block count at {p}"))
            # the interiors of the dependencies' sides partition p's
            # interior, off block B for a (B,u)
            inside = (c_mask & interior[i]).bit_count()
            parts = sum((c_mask & interior[j]).bit_count() for j in deps[i])
            if not i & 1:
                in_block = (c_mask & block_masks[bid] & ~(1 << u)).bit_count()
                rhs = sum(y[j] for j in deps[i]) + a[i] - in_block
                if rhs < 0:
                    failures.append(("fixedpoint", f"{name}: negative fixed-point operand at {p}"))
                if x != rhs:
                    failures.append(("fixedpoint", f"{name}: fixed-point equation fails at {p}"))
                if x == 0 and a[i] and not in_block:
                    failures.append(
                        ("rigid", f"{name}: {p} at 0 with ua holds no token of its block")
                    )
                inside -= in_block
            elif sum(1 for j in incident[u] if y[j] == 0 and a[j]) >= 2:
                if x != 0:
                    failures.append(("fixedpoint", f"{name}: fixed-point zero case fails at {p}"))
            elif x != sum(y[j] - a[j] for j in deps[i]) + a[i]:
                failures.append(("fixedpoint", f"{name}: fixed-point equation fails at {p}"))
            if parts != inside:
                failures.append(("fixedpoint", f"{name}: interior sum identity fails at {p}"))

    space1 = enumerate_reachable(g, c1, lim)
    oracle_yes = mask_of(c2) in space1.visited
    # Slides are reversible: when c1 reaches c2, both reach the same states.
    space2 = space1 if oracle_yes else enumerate_reachable(g, c2, lim)
    if space1.truncated or space2.truncated:
        failures.append(("truncated", "oracle truncated; envelope too large"))
        return InstanceReport(failures)

    verdict = decide(g, c1, c2)
    if verdict.reachable != oracle_yes:
        failures.append(
            ("decision",
             f"decide says {verdict.reason.value}, oracle says "
             f"{'yes' if oracle_yes else 'no'}")
        )

    otabs = [oracle_potential_table(g, bd, ua, c1, lim, space=space1, sides=interior)]
    if oracle_yes:
        # One space, so one maximum of cap + interior tokens over its states
        # per pair: the two tables differ only by the starts' interior tokens.
        m1, m2 = mask_of(c1), mask_of(c2)
        otabs.append([
            o + (m1 & s).bit_count() - (m2 & s).bit_count()
            for o, s in zip(otabs[0], interior)
        ])
    else:
        otabs.append(oracle_potential_table(g, bd, ua, c2, lim, space=space2, sides=interior))
    for name, otab, pot in zip(("source", "target"), otabs, pots):
        for p, x, o in zip(pairs, pot.array, otab):
            if x != o:
                failures.append(
                    ("potential",
                     f"{name}: potential mismatch at {p}: algorithm {x}, oracle {o}")
                )

    spaces = (space1, space2)
    rigids = [rigid_vertices(bd, ua, pot) for pot in pots]
    for rigid, space in zip(rigids, spaces):
        if not rigid <= never_token_vertices(space):
            failures.append(("rigid", f"rigid set {sorted(rigid)} not within never-token set"))
    if oracle_yes and rigids[0] != rigids[1]:
        failures.append(("rigid", "reachable sets have different rigid sets"))
    details = verdict.details
    if "rigid_source" in details and [details["rigid_source"], details["rigid_target"]] != rigids:
        failures.append(("rigid", "decide's rigid sets differ from the full forest's"))
    # A NO proof without potentials: the part's count is the same in every
    # state each set reaches.
    if verdict.reason is Reason.COMPONENT_COUNT_MISMATCH:
        part, *counts = next(t for t in details["component_counts"] if t[1] != t[2])
        mask = mask_of(part)
        for name, k, space in zip(("source", "target"), counts, spaces):
            if any((s & mask).bit_count() != k for s in space.visited):
                failures.append(
                    ("decision", f"{name}: part {sorted(part)} does not hold {k} tokens in every state")
                )

    return InstanceReport(failures, oracle_yes=oracle_yes, verdict=verdict)


def run_fuzz(count, env=FuzzEnvelope(), seed=0, lim=OracleLimits()):
    """Run `count` seeded instances; stop at the first failing one.

    Returns (instances_run, failing_instance_or_None, failures); the
    failing instance, if any, is that of seed + instances_run.
    """
    if count < 0:
        raise InvalidParamsError("count must be nonnegative")
    for i in range(count):
        inst = gen_fuzz_instance(seed + i, env)
        failures = evaluate_instance(inst, lim).messages()
        if failures:
            return i, inst, failures
    return count, None, []
