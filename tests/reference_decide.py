"""The full-forest decide_connected with a graph search, kept as a reference.

It counts each set's tokens per component that a graph search finds, then
runs ua and both potentials over every tree of the block-cut forest,
tokens or not, and finds the parts of G - R by a second graph search.
decide counts from the block DFS's component labels, runs those passes
only over the trees holding two tokens or more, and reads the parts off
the cut block-cut tree; it must return equal verdicts, certificates
included.
"""

from blockslide import (
    TO_VERTEX,
    CountMismatch,
    Pair,
    Reachable,
    Reason,
    RigidMismatch,
    UnequalSize,
    Verdict,
    compute_potentials,
    compute_ua,
    rigid_vertices,
)
from blockslide.graph import connected_components


def parts_after(g, comp, rigid, c1, c2):
    """(part, tokens of c1 in it, tokens of c2 in it) per component of the
    component comp of g minus its rigid vertices, in order of least
    vertex; the search stays inside comp."""
    return [
        (part, len(part.intersection(c1)), len(part.intersection(c2)))
        for part in connected_components(g, rigid, within=comp)
    ]


def zero_sides(bd, ua, pot, u):
    """u's sides (B,u) at potential 0 with ua True, as (members of B, u),
    in canonical order: by block id."""
    ids = [(b, bd.pair_id(Pair(TO_VERTEX, u, b))) for b in bd.blocks_of[u]]
    return [(bd.members[b], u) for b, p in ids if ua.array[p] and pot.array[p] == 0]


def reference_decide_connected(g, bd, c1, c2):
    """Verdict for two token sets, with bd = decompose(g)."""
    comps = connected_components(g)  # a BFS, not the block DFS's labels
    n1 = [len(comp.intersection(c1)) for comp in comps]
    n2 = [len(comp.intersection(c2)) for comp in comps]
    if n1 != n2:
        i = next(i for i, (a, b) in enumerate(zip(n1, n2)) if a != b)
        return Verdict(False, Reason.UNEQUAL_SIZE, UnequalSize(tuple(sorted(comps[i])), (n1[i], n2[i])))
    ua = compute_ua(bd)
    pots = [compute_potentials(bd, ua, c) for c in (c1, c2)]
    w1, w2 = (rigid_vertices(bd, ua, pot) for pot in pots)
    parts = 0
    for i, comp in enumerate(comps):
        if not n1[i]:
            continue
        if w1 & comp != w2 & comp:
            u = min((w1 ^ w2) & comp)
            which = 0 if u in w1 else 1
            sides = tuple(zero_sides(bd, ua, pots[which], u)[:2])
            return Verdict(False, Reason.RIGID_MISMATCH, RigidMismatch(u, ("source", "target")[which], sides))
        found = parts_after(g, comp, w1 & comp, c1, c2)
        for part, a, b in found:
            if a != b:
                certificate = CountMismatch(tuple(sorted(part)), (a, b))
                return Verdict(False, Reason.COMPONENT_COUNT_MISMATCH, certificate)
        parts += len(found)
    return Verdict(True, Reason.REACHABLE, Reachable(tuple(sorted(w1)), parts))
