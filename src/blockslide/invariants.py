"""Token-independent per-pair quantities: depth d(p) and the boolean ua(p),
each a list indexed by pair id.

Both are defined by mutual recursion over the block-cut tree: a (B,u) pair
depends on the (v,B) pairs for v in kappa(B,u), and a (u,B) pair depends on
the (B',u) pairs for B' in beta(u,B).  In the pair index these are the
pairs into[node[p]] other than p ^ 1, and each list is one pass over the
index's rooted order.  Each node keeps running totals over its list: the
two largest depths, or the count of ua pairs.  A pair adds its value to
the totals of node[p ^ 1], whose list holds it, once the value is set, and
reads its own node's totals minus its reverse; so every pair costs O(1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Ua:
    """ua(p) per pair id, and per node x the number of ua pairs in
    into[x], which the capacity pass starts from."""

    array: list
    counts: list


def compute_depths(bd):
    """d(p) per pair id: 0 for a (B,u) pair with no dependency, else one
    more than the largest depth among its dependencies."""
    ix = bd.index()
    node = ix.node
    d = [-1] * len(node)  # -1 is below every depth, so it adds nothing
    # the two largest depths set so far in into[x], with repeats
    top, second = [-1] * len(ix.into), [-1] * len(ix.into)
    for p in ix.order:
        x, r = node[p], p ^ 1
        v = d[p] = 1 + (second[x] if d[r] == top[x] else top[x])
        h = node[r]
        if v > top[h]:
            second[h] = top[h]
            top[h] = v
        elif v > second[h]:
            second[h] = v
    return d


def compute_ua(bd, depths):
    """ua(p): True at depth 0; for (B,u) False exactly when every vertex of
    B is a cut vertex and every (v,B) has ua; for (u,B) True when some
    (B',u) has ua.  depths is the list compute_depths returns."""
    ix = bd.index()
    node, into, d = ix.node, ix.into, depths
    # per block B, the ua count over kappa(B,u) that makes ua(B,u) false:
    # all of it if B has only cut vertices, else -1, which no count equals
    full = [len(qs) - 1 if len(qs) == len(b) else -1 for qs, b in zip(into, bd.members)]
    count = [0] * len(into)  # the ua pairs set in into[x]
    ua = [False] * len(node)
    for p in ix.order:
        r = p ^ 1
        if d[p] == 0:
            value = True
        elif p & 1:
            value = count[node[p]] > ua[r]
        else:
            value = count[node[p]] - ua[r] != full[node[p]]
        if value:
            ua[p] = True
            count[node[r]] += 1
    return Ua(ua, count)
