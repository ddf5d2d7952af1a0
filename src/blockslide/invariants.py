"""Token-independent per-pair quantities: depth d(p) and the boolean ua(p).

Both are defined by mutual recursion over the block-cut tree: a (B,u) pair
depends on the (v,B) pairs for v in kappa(B,u), and a (u,B) pair depends on
the (B',u) pairs for B' in beta(u,B).  In the pair index these are the
pairs into[node[p]] other than p ^ 1, and each table is one pass over the
index's rooted order.  A pair reads totals over its node's list minus its
own reverse: the two largest depths, or the count of ua pairs.  Each
node's totals are taken once for all its pairs, so a node of degree d
costs O(d).
"""

from __future__ import annotations

from .blocks import PairTable


class DepthTable(PairTable):
    """d(p) for every pair."""

    __slots__ = ()


class UaTable(PairTable):
    """ua(p) for every pair."""

    __slots__ = ()


def compute_depths(bd):
    """d(p): 0 for a (B,u) pair with no dependency, else one more than the
    largest depth among its dependencies."""
    ix = bd.index()
    node, into = ix.node, ix.into
    d = [-1] * len(node)  # -1 is below every depth, so it adds nothing
    last = -1
    for p in ix.order:
        x = node[p]
        if x != last:
            last = x
            top = second = -1  # the two largest depths at x, with repeats
            for v in map(d.__getitem__, into[x]):
                if v > top:
                    top, second = v, top
                elif v > second:
                    second = v
        d[p] = 1 + (second if d[p ^ 1] == top else top)
    return DepthTable(bd, d)


def compute_ua(bd, depths):
    """ua(p): True at depth 0; for (B,u) False exactly when every vertex of
    B is a cut vertex and every (v,B) has ua; for (u,B) True when some
    (B',u) has ua."""
    ix = bd.index()
    node, into, d = ix.node, ix.into, depths.array
    # a block made only of cut vertices: kappa(B,u) | {u} == B
    all_cuts = [len(into[b]) == len(members) for b, members in enumerate(bd.blocks)]
    ua = [False] * len(node)
    last = -1
    for p in ix.order:
        x = node[p]
        if x != last:
            last = x
            true_count = sum(map(ua.__getitem__, into[x]))
        if d[p] == 0:
            ua[p] = True
            continue
        inner = true_count - ua[p ^ 1]
        ua[p] = inner > 0 if p & 1 else not (inner == len(into[x]) - 1 and all_cuts[x])
    return UaTable(bd, ua)
