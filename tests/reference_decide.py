"""The full-forest decide_connected, kept as a reference.

It counts each set's tokens per component that a graph search finds, then
runs depth, ua and both potentials over every tree of the block-cut
forest, tokens or not.  decide counts from the block DFS's component
labels, builds the index and runs those passes only over the trees
holding two tokens or more, and must return equal verdicts: reachable,
reason and details, whose rigid sets are those of the whole graph.
"""

from blockslide import Reason, Verdict, compute_potentials, compute_ua
from blockslide.decide import _parts_after, rigid_vertices
from blockslide.graph import connected_components


def reference_decide_connected(g, bd, c1, c2):
    """Verdict for two same-size token sets, with bd = decompose(g)."""
    comps = connected_components(g)  # a BFS, not the block DFS's labels
    n1 = [len(comp.intersection(c1)) for comp in comps]
    n2 = [len(comp.intersection(c2)) for comp in comps]
    if n1 != n2:
        i = next(i for i, (a, b) in enumerate(zip(n1, n2)) if a != b)
        return Verdict(False, Reason.UNEQUAL_SIZE, {"component": comps[i], "counts": (n1[i], n2[i])})
    ua = compute_ua(bd)
    w1 = rigid_vertices(bd, ua, compute_potentials(bd, ua, c1))
    w2 = rigid_vertices(bd, ua, compute_potentials(bd, ua, c2))
    details = {"rigid_source": w1, "rigid_target": w2, "component_counts": []}
    for i, comp in enumerate(comps):
        if not n1[i]:
            continue
        rigid = w1 & comp
        if rigid != w2 & comp:
            reason = Reason.RIGID_MISMATCH
        else:
            if rigid:
                parts = _parts_after(g, comp, rigid, c1, c2)
            else:
                parts = [(comp, n1[i], n2[i])]
            details["component_counts"] += parts
            if all(a == b for _, a, b in parts):
                continue
            reason = Reason.COMPONENT_COUNT_MISMATCH
        details["component"] = comp
        return Verdict(False, reason, details)
    return Verdict(True, Reason.REACHABLE, details)
