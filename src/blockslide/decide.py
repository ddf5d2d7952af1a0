"""Rigid cut vertices and the top-level reconfigurability verdict.

A cut vertex is rigid for a token set when two of its incident sides both
have potential 0 and ua True; a rigid vertex can never receive a token.
Two token sets on a block graph, connected or not, are inter-reachable
exactly when their rigid sets coincide and, after removing the rigid
vertices, every remaining component holds the same number of tokens from
each set.

Only a component holding two tokens or more can have a rigid vertex, so
decide builds the pair index and runs the passes over those components'
blocks alone.  The potentials are at least 0 and satisfy the (B,u)
equation, so

    y(B,u) = sum of y(v,B) over v in kappa(B,u) + ua(B,u) - tokens of B but u
           >= ua(B,u) - tokens of B but u.

A side (B,u) at potential 0 with ua True therefore holds a token of B
other than u.  A rigid vertex u has two such sides (B,u) and (B',u), and
B and B' share no vertex but u, so its component holds two tokens.  A
component with one token has no rigid vertex and stays one part, which
holds its one token of each set: it is reachable, as one with none is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .blocks import decompose, is_block_graph
from .errors import InternalError, NotABlockGraphError
from .graph import TokenSet, connected_components
from .invariants import compute_depths, compute_ua
from .potential import compute_potentials


class Reason(Enum):
    UNEQUAL_SIZE = "unequal-size"
    RIGID_MISMATCH = "rigid-mismatch"
    COMPONENT_COUNT_MISMATCH = "component-count-mismatch"
    REACHABLE = "reachable"


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer, the reason that decided it, and one flat details
    dict in the caller's vertex ids; components and parts are frozensets.

    - UNEQUAL_SIZE: {"sizes": (k1, k2)} when the totals differ, else
      {"component": comp, "counts": (a, b)} for the first component, in
      order of least vertex, whose counts differ.
    - Any other reason: {"rigid_source": R1, "rigid_target": R2,
      "component_counts": [(part, a, b), ...]}, the rigid sets of the whole
      graph and each set's tokens per part after removing R1, for the
      components holding tokens in order of least vertex.  A NO stops the
      list after the component that decided it, which it adds as
      "component"; a RIGID_MISMATCH component lists no parts.
    """

    reachable: bool
    reason: Reason
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.reachable != (self.reason is Reason.REACHABLE):
            raise InternalError(
                f"verdict reachable={self.reachable} with reason {self.reason}"
            )


def rigid_vertices(bd, ua, pot):
    """Cut vertices with two incident (B,u) sides at potential 0, ua True:
    the nodes x whose count pot.zeros[x] of such sides the fixed point ends
    with at two or more, which only cut vertices' nodes reach."""
    ix = bd.index()
    ua, y = ua.array, pot.array
    rigid = []
    for x, zeros in enumerate(pot.zeros):
        if zeros < 2:
            continue
        # into[x] holds the (B,u) pairs of u, and q ^ 1 is (u,B); rigidity
        # forces every outward side of u to ua True / potential 0
        sides = ix.into[x]
        u = ix.base[sides[0]]
        if not all(ua[q ^ 1] and y[q ^ 1] == 0 for q in sides):
            raise InternalError(f"rigid vertex {u} violates ua/pot")
        rigid.append(u)
    return frozenset(rigid)


def _parts_after(g, comp, rigid, c1, c2):
    """(part, tokens of c1 in it, tokens of c2 in it) per component of the
    component comp of g minus its rigid vertices, in order of least
    vertex; the search stays inside comp.  Each count is one frozenset
    intersection, which iterates the smaller of the part and the tokens."""
    m1, m2 = c1._members, c2._members
    return [
        (part, len(part & m1), len(part & m2))
        for part in connected_components(g, rigid, within=comp)
    ]


def decide_connected(g, bd, c1, c2):
    """Verdict for two same-size token sets on a block graph g, connected
    or not, with bd = decompose(g).

    A component's verdict never depends on another component.  The tokens
    are counted per component from the component labels of the block DFS,
    before any pair index exists; unequal counts give UNEQUAL_SIZE.  Depth,
    ua, potentials and rigid sets are then each taken once, over the
    block-cut trees of the components holding two tokens or more (see the
    module docstring).  The first component with tokens, in order of least
    vertex, that is not reachable gives the reason.
    """
    if len(c1) != len(c2):
        raise ValueError("decide_connected requires equal-size token sets")
    label = bd.component
    n1, n2 = {}, {}  # per index of a component holding tokens, their number
    for counts, c in ((n1, c1), (n2, c2)):
        for v in c:
            counts[label[v]] = counts.get(label[v], 0) + 1
    if n1 != n2:
        i = min(i for i in n1.keys() | n2.keys() if n1.get(i) != n2.get(i))
        details = {"component": bd.components({i})[i], "counts": (n1.get(i, 0), n2.get(i, 0))}
        return Verdict(False, Reason.UNEQUAL_SIZE, details)
    kept = {i for i, k in n1.items() if k > 1}
    w1 = w2 = frozenset()
    if kept:
        pruned = bd.within(kept)
        t1 = [v for v in c1 if label[v] in kept]
        t2 = [v for v in c2 if label[v] in kept]
        ua = compute_ua(pruned, compute_depths(pruned))
        w1 = rigid_vertices(pruned, ua, compute_potentials(pruned, ua, t1))
        w2 = rigid_vertices(pruned, ua, compute_potentials(pruned, ua, t2))
    details = {"rigid_source": w1, "rigid_target": w2, "component_counts": []}
    comps = bd.components(n1)
    for i in sorted(n1):  # the components with tokens
        comp = comps[i]
        rigid = w1 & comp
        if rigid != w2 & comp:
            reason = Reason.RIGID_MISMATCH
        else:
            # Only a component holding a rigid vertex splits; any other is
            # its own one part.
            parts = _parts_after(g, comp, rigid, c1, c2) if rigid else [(comp, n1[i], n2[i])]
            details["component_counts"] += parts
            if all(a == b for _, a, b in parts):
                continue
            reason = Reason.COMPONENT_COUNT_MISMATCH
        details["component"] = comp
        return Verdict(False, reason, details)
    return Verdict(True, Reason.REACHABLE, details)


def decide(g, c1, c2):
    """Top-level yes/no decision on an arbitrary block graph.

    c1 and c2 are TokenSets or iterables of vertices, each read once.
    Validates the block-graph property and independence, short-circuits on
    unequal token counts, and decides every component with decide_connected.
    A TokenSet checked on another graph than g is checked again on g.
    """
    if not is_block_graph(g):
        raise NotABlockGraphError("input graph has a non-clique block")
    if not isinstance(c1, TokenSet) or c1.graph is not g:
        c1 = TokenSet(g, c1, which="source")
    if not isinstance(c2, TokenSet) or c2.graph is not g:
        c2 = TokenSet(g, c2, which="target")

    if len(c1) != len(c2):
        return Verdict(False, Reason.UNEQUAL_SIZE, {"sizes": (len(c1), len(c2))})
    return decide_connected(g, decompose(g), c1, c2)
