"""The full-forest decide_connected, kept as a reference.

It counts each set's tokens per component that a graph search finds, then
runs depth, ua and both potentials over every tree of the block-cut
forest, tokens or not.  decide counts from the block DFS's component
labels, builds the index and runs those passes only over the trees
holding two tokens or more, and must return equal verdicts: reachable,
reason and details.
"""

from blockslide import Reason, Verdict, compute_depths, compute_potentials, compute_ua
from blockslide.decide import _parts_after, rigid_vertices
from blockslide.graph import connected_components


def reference_decide_connected(g, bd, c1, c2):
    """Verdict for two same-size token sets, with bd = decompose(g)."""
    comps = connected_components(g)  # a BFS, not the block DFS's labels
    n1 = [len(comp.intersection(c1)) for comp in comps]
    n2 = [len(comp.intersection(c2)) for comp in comps]
    if n1 != n2:
        counts = list(zip(comps, n1, n2))
        return Verdict(False, Reason.UNEQUAL_SIZE, {"per_component": counts})
    ua = compute_ua(bd, compute_depths(bd))
    w1 = rigid_vertices(bd, ua, compute_potentials(bd, ua, c1))
    w2 = rigid_vertices(bd, ua, compute_potentials(bd, ua, c2))
    details = {"components": []}
    for i, comp in enumerate(comps):
        if not n1[i]:
            continue
        rigid = w1 & comp
        sub = {"rigid_source": rigid, "rigid_target": w2 & comp}
        if rigid != sub["rigid_target"]:
            reason = Reason.RIGID_MISMATCH
        else:
            if rigid:
                parts = _parts_after(g, comp, rigid, c1, c2)
            else:
                parts = [(comp, n1[i], n2[i])]
            sub["component_counts"] = parts
            if any(a != b for _, a, b in parts):
                reason = Reason.COMPONENT_COUNT_MISMATCH
            else:
                reason = Reason.REACHABLE
        verdict = Verdict(reason is Reason.REACHABLE, reason, sub)
        details["components"].append((comp, verdict))
        if not verdict.reachable:
            return Verdict(False, reason, details)
    return Verdict(True, Reason.REACHABLE, details)
