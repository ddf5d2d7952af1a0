"""Token-independent per-pair quantities: depth d(p) and the boolean ua(p),
each a list indexed by pair id.

Both are defined by mutual recursion over the block-cut tree: a (B,u) pair
depends on the (v,B) pairs for v in kappa(B,u), and a (u,B) pair depends on
the (B',u) pairs for B' in beta(u,B).  In the pair index these are the
pairs into[node[p]] other than its reverse last - p, and each list is one
pass over the pair ids, which follow the index's rooted order.  Each node
keeps running totals over its list: the two largest depths, or the count
of ua pairs.  A pair adds its value to the totals of node[last - p], whose
list holds it, once the value is set, and reads its own node's totals
minus its reverse; so every pair costs O(1).

The paper's recursion for ua sets it True at depth 0, but ua needs no
depth: a pair at depth 0 is a (B,u) whose block B has u as its only cut
vertex, and B holds a second vertex, which is not a cut vertex, so the
(B,u) rule already gives True.  A (u,B) pair never has depth 0, since a
cut vertex lies in a second block.  decide computes no depth; the CLI's
potentials command prints it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Ua:
    """ua(p) per pair id, and per node x the number of ua pairs in
    into[x], which the potentials' sweep starts from, as does the
    checker's capacity pass."""

    array: list
    counts: list


def compute_depths(bd):
    """d(p) per pair id: 0 for a (B,u) pair with no dependency, else one
    more than the largest depth among its dependencies."""
    ix = bd.index()
    node, last = ix.node, ix.last
    d = [-1] * len(node)  # -1 is below every depth, so it adds nothing
    # the two largest depths set so far in into[x], with repeats
    top, second = [-1] * len(ix.into), [-1] * len(ix.into)
    for p, x in enumerate(node):
        r = last - p
        v = d[p] = 1 + (second[x] if d[r] == top[x] else top[x])
        h = node[r]
        if v > top[h]:
            second[h] = top[h]
            top[h] = v
        elif v > second[h]:
            second[h] = v
    return d


def compute_ua(bd):
    """ua(p): for (B,u) False exactly when every vertex of B is a cut
    vertex and every (v,B) has ua; for (u,B) True when some (B',u) has ua.
    A (B,u) with no (v,B) is True by its rule (see the module docstring)."""
    ix = bd.index()
    node, into, last = ix.node, ix.into, ix.last
    nblocks = len(bd.members)
    # per block B, the ua count over kappa(B,u) that makes ua(B,u) false:
    # all of it if B has only cut vertices, else -1, which no count equals
    full = [len(qs) - 1 if len(qs) == len(b) else -1 for qs, b in zip(into, bd.members)]
    count = [0] * len(into)  # the ua pairs set in into[x]
    ua = [False] * len(node)
    for p, x in enumerate(node):
        r = last - p
        if x >= nblocks:
            value = count[x] > ua[r]
        else:
            value = count[x] - ua[r] != full[x]
        if value:
            ua[p] = True
            count[node[r]] += 1
    return Ua(ua, count)
