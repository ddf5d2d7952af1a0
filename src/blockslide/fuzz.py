"""Cross-validation harness: solver vs brute-force oracle on generated
instances, plus the structural invariants that must hold on every instance.

One seed determines one instance end to end, so a reported failure replays
from its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import TO_BLOCK, TO_VERTEX, Pair, decompose
from .decide import CountMismatch, Reachable, Reason, RigidMismatch, UnequalSize
from .decide import decide, rigid_vertices
from .errors import InvalidParamsError
from .gen import GenParams, SplitMix64, gen_block_graph, gen_token_sets
from .graph import connected_components
from .instance import Instance
from .invariants import compute_ua
from .oracle import (
    OracleLimits,
    adjacency_masks,
    beta,
    capacity_table,
    enumerate_reachable,
    kappa,
    mask_of,
    never_token_vertices,
    oracle_potential_table,
    side,
)
from .potential import compute_potentials


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
    pruning of the trees with fewer than two tokens rests on it.
    decide's certificate is checked against the full forest, the oracle
    and a graph search: a Reachable's rigid set against the full forest's
    (rigid) and its number of parts against the search's (decision); a
    RigidMismatch's vertex against the full forest's rigid sets and the
    never-token set, and its sides against its first two with ua at oracle
    potential 0 (rigid); an UnequalSize's component or a CountMismatch's
    part against the search's components of G or of G - R, and its counts
    against every state each set reaches (decision).  A certificate of
    another type than the reason's is reported under decision.
    Per-pair values are read by pair id.  Each pair's dependencies come from
    the closed forms kappa and beta, and its side from a search of G - u
    (all three in oracle.py), not from the pair index that the solver's
    passes walk, so the equations, the block-count bound and the oracle's
    interiors are checked independently of it.  The capacities, and so the
    oracle's potentials, still come from a pass over that index.
    """
    g, c1, c2 = inst.graph, inst.source, inst.target
    failures = []
    bd = decompose(g)
    ua = compute_ua(bd)
    pairs = bd.pairs()  # for the sides and the messages
    m = len(bd.members)
    ncut = len(bd.cut_vertices)
    iter_bound = 2 * m * (ncut + m - 1) + 1
    adjacency = adjacency_masks(g)
    block_masks = [mask_of(b) for b in bd.members]
    # per pair id, from one search of G - u: the blocks of G[p], and the
    # mask of its interior, G[p] without the base
    sides = [side(bd, p) for p in pairs]
    in_side = [count for count, _ in sides]
    interior = [mask_of(vs) & ~(1 << p.base) for p, (_, vs) in zip(pairs, sides)]
    # per pair id, the ids of its dependencies: (v,B) for v in kappa(B,u),
    # (B',u) for B' in beta(u,B); per cut vertex u, the ids of all its (B,u)
    pair_id = bd.pair_id
    deps = [
        [pair_id(Pair(TO_BLOCK, v, p.block)) for v in kappa(bd, p.block, p.base)]
        if p.is_to_vertex
        else [pair_id(Pair(TO_VERTEX, p.base, b)) for b in beta(bd, p.base, p.block)]
        for p in pairs
    ]
    incident = {
        u: [pair_id(Pair(TO_VERTEX, u, b)) for b in bd.blocks_of[u]]
        for u in bd.cut_vertices
    }
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
        for i, p in enumerate(pairs):
            u, bid, cap, x = p.base, p.block, caps[i], y[i]
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
            if p.is_to_vertex:
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
    never = [never_token_vertices(space) for space in spaces]
    for rigid, unreached in zip(rigids, never):
        if not rigid <= unreached:
            failures.append(("rigid", f"rigid set {sorted(rigid)} not within never-token set"))
    if oracle_yes and rigids[0] != rigids[1]:
        failures.append(("rigid", "reachable sets have different rigid sets"))

    # The certificate, against the full forest, the oracle and a graph
    # search, which does not use the block-cut tree.
    match verdict.reason, verdict.certificate:
        case Reason.REACHABLE, Reachable(rigid, parts):
            if [frozenset(rigid)] * 2 != rigids:
                failures.append(("rigid", "decide's rigid sets differ from the full forest's"))
            held = [comp for comp in connected_components(g) if not comp.isdisjoint(c1)]
            found = sum(len(connected_components(g, rigid, within=comp)) for comp in held)
            if parts != found:
                failures.append(("decision", f"{parts} parts of G - R certified, {found} found"))
        case Reason.RIGID_MISMATCH, RigidMismatch(u, rigid_for, sides):
            which = ("source", "target").index(rigid_for)
            if u not in rigids[which] or u in rigids[1 - which] or u not in never[which]:
                failures.append(("rigid", f"{rigid_for}: vertex {u} is not rigid for it alone"))
            # u's first two sides (B,u) with ua at oracle potential 0
            zero = [(bd.members[pairs[i].block], u) for i in incident.get(u, ())
                    if a[i] and not otabs[which][i]]
            if len(sides) != 2 or sides != tuple(zero[:2]):
                failures.append(("rigid", f"{rigid_for}: {sides} are not the sides of {u} at 0 with ua"))
        case (Reason.UNEQUAL_SIZE, UnequalSize(part, counts)) | (
            Reason.COMPONENT_COUNT_MISMATCH, CountMismatch(part, counts)
        ):
            # A NO proof without potentials: the component of G, or of
            # G - R, holds the same count in every state each set reaches.
            split = verdict.reason is Reason.COMPONENT_COUNT_MISMATCH
            comps = connected_components(g, rigids[0] if split else ())
            if counts[0] == counts[1] or frozenset(part) not in comps:
                graph = "G - R" if split else "G"
                failures.append(("decision", f"{list(part)} is not a component of {graph} whose counts differ"))
            mask = mask_of(part)
            for name, k, space in zip(("source", "target"), counts, spaces):
                if any((s & mask).bit_count() != k for s in space.visited):
                    failures.append(
                        ("decision", f"{name}: part {list(part)} does not hold {k} tokens in every state")
                    )
        case reason, cert:
            failures.append(("decision", f"{reason.value} certified by {cert!r}"))

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
