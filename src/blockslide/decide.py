"""Rigid cut vertices and the top-level reconfigurability verdict.

A cut vertex is rigid for a token set when two of its incident sides both
have potential 0 and ua True; a rigid vertex can never receive a token.
Two token sets on a connected block graph are inter-reachable exactly when
their rigid sets coincide and, after removing the rigid vertices, every
remaining component holds the same number of tokens from each set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .blocks import decompose, is_block_graph
from .errors import InternalError, NotABlockGraphError, NotIndependentError
from .graph import TokenSet, connected_components, is_independent
from .invariants import compute_depths, compute_ua
from .potential import compute_potentials


class Reason(Enum):
    UNEQUAL_SIZE = "unequal-size"
    RIGID_MISMATCH = "rigid-mismatch"
    COMPONENT_COUNT_MISMATCH = "component-count-mismatch"
    REACHABLE = "reachable"


@dataclass(frozen=True)
class Verdict:
    reachable: bool
    reason: Reason
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reachable != (self.reason is Reason.REACHABLE):
            raise InternalError(
                f"verdict reachable={self.reachable} with reason {self.reason}"
            )


def rigid_vertices(bd, ua, pot):
    """Cut vertices with two incident (B,u) sides at potential 0, ua True."""
    ix = bd.index()
    ua, pot = ua.array, pot.array
    rigid = []
    for u, x in ix.cut_node.items():
        sides = ix.into[x]  # the (B,u) pairs of u; q ^ 1 is (u,B)
        if sum(1 for q in sides if pot[q] == 0 and ua[q]) < 2:
            continue
        # rigidity forces every outward side of u to ua True / potential 0
        if not all(ua[q ^ 1] and pot[q ^ 1] == 0 for q in sides):
            raise InternalError(f"rigid vertex {u} violates ua/pot")
        rigid.append(u)
    return frozenset(rigid)


def decide_connected(g, bd, c1, c2):
    """Verdict for a connected block graph and two same-size token sets."""
    if len(c1) != len(c2):
        raise ValueError("decide_connected requires equal-size token sets")
    depths = compute_depths(bd)
    ua = compute_ua(bd, depths)
    pot1 = compute_potentials(bd, ua, c1)
    pot2 = compute_potentials(bd, ua, c2)
    w1 = rigid_vertices(bd, ua, pot1)
    w2 = rigid_vertices(bd, ua, pot2)
    details = {"rigid_source": w1, "rigid_target": w2}
    if w1 != w2:
        return Verdict(False, Reason.RIGID_MISMATCH, details)
    remaining = sorted(set(range(g.n)) - w1)
    sub, to_sub, _ = g.induced(remaining)
    counts = []
    for comp in connected_components(sub):
        orig = frozenset(remaining[v] for v in comp)
        n1 = sum(1 for v in orig if v in c1)
        n2 = sum(1 for v in orig if v in c2)
        counts.append((orig, n1, n2))
    details["component_counts"] = counts
    if any(n1 != n2 for _, n1, n2 in counts):
        return Verdict(False, Reason.COMPONENT_COUNT_MISMATCH, details)
    return Verdict(True, Reason.REACHABLE, details)


def _in_original_ids(verdict, to_orig):
    """The same verdict with its vertex sets renamed by to_orig."""
    details = {
        key: frozenset(to_orig[v] for v in verdict.details[key])
        for key in ("rigid_source", "rigid_target")
    }
    if "component_counts" in verdict.details:
        details["component_counts"] = [
            (frozenset(to_orig[v] for v in comp), n1, n2)
            for comp, n1, n2 in verdict.details["component_counts"]
        ]
    return Verdict(verdict.reachable, verdict.reason, details)


def decide(g, c1, c2):
    """Top-level yes/no decision on an arbitrary block graph.

    Validates the block-graph property and independence, handles
    disconnected inputs component by component, and short-circuits on any
    global or per-component token-count mismatch.
    """
    if not is_block_graph(g):
        raise NotABlockGraphError("input graph has a non-clique block")
    if not isinstance(c1, TokenSet):
        if not is_independent(g, c1):
            raise NotIndependentError("source")
        c1 = TokenSet(g, c1, which="source")
    if not isinstance(c2, TokenSet):
        if not is_independent(g, c2):
            raise NotIndependentError("target")
        c2 = TokenSet(g, c2, which="target")

    if len(c1) != len(c2):
        return Verdict(False, Reason.UNEQUAL_SIZE, {"sizes": (len(c1), len(c2))})

    per_component = []
    for comp in connected_components(g):
        n1 = sum(1 for v in comp if v in c1)
        n2 = sum(1 for v in comp if v in c2)
        per_component.append((comp, n1, n2))
    if any(n1 != n2 for _, n1, n2 in per_component):
        return Verdict(
            False, Reason.UNEQUAL_SIZE, {"per_component": per_component}
        )

    details = {"components": []}
    for comp, n1, n2 in per_component:
        if n1 == 0:
            continue
        sub, to_sub, to_orig = g.induced(sorted(comp))
        s1 = TokenSet(sub, [to_sub[v] for v in c1 if v in comp])
        s2 = TokenSet(sub, [to_sub[v] for v in c2 if v in comp])
        verdict = _in_original_ids(
            decide_connected(sub, decompose(sub), s1, s2), to_orig
        )
        details["components"].append((frozenset(comp), verdict))
        if not verdict.reachable:
            return Verdict(False, verdict.reason, details)
    return Verdict(True, Reason.REACHABLE, details)
