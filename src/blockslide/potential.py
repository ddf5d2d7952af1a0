"""Capacities of per-pair token restrictions and the fixed-point potentials.

Both run over the flat lists of the pair index (BlockDecomposition.index)
and give one value per pair id.
Each pair's equation has a constant term: ua(p), minus, for a (B,u) pair,
the tokens of B other than u.  A block is a clique and a token set is
independent, so a block holds at most one token, and the passes read the
constant from one mark per block, not from a list by pair id: tok[B] is
the node of B's token (its cut node, or B itself for a token that is no
cut vertex), or -1 when B holds none.  A (B,u) pair's constant is
ua(p) - (-1 != tok[B] != node[last - p]), node[last - p] being u's node,
and a (u,B) pair's is ua(p).  The capacity is one pass over the pair ids,
which follow the index's rooted order, with running totals per node: a
pair reads its node's totals minus its reverse last - p, and adds its own
value to the totals of node[last - p], so every pair costs O(1).
decide does not run it: fuzz.evaluate_instance checks it, and the oracle
takes its maximum over the reachable token sets as the potential.

The potential is the least fixed point above 0 of G(y) = max(y, F(y)),
where F is the right-hand side of the potential equations:

    F(B,u) = sum of y(v,B) over v in kappa(B,u) + ua(B,u) - tokens of B but u
    F(u,B) = sum of y(B',u) - ua(B',u) over B' in beta(u,B) + ua(u,B),
             except that y(u,B) stays as it is while at least two
             (B',u), B' any block of u, have y = 0 and ua

G is monotone and inflationary, so iterating it one pair at a time in any
fair order from 0 reaches that fixed point L, and every iterate stays at
most L.  compute_potentials starts with one sweep of that rule over the
pair ids, with the same running totals as the capacity pass: unset pairs
count as 0, a (B,u) takes its equation, and a (u,B) stays 0 while its
node's zero count is at least two, else takes its equation.  Each step
applies G at one pair from 0, so the sweep ends at most at L; it never
freezes a pair the capacity pass evaluates, so its values are at least the
capacities and a negative one is an invariant violation.
iteration_count is the number of increases after the sweep plus one: with
every increase at least 1 and each L(p) at most the blocks on p's side, it
stays within 2m(ncut+m-1)+1 for m blocks and ncut cut vertices.

Right after the sweep, only a few pairs can lie below their equation,
y(p) < F(y)(p).  Every dependency of a pair has a lower id, so a pair's
inputs are final when the sweep reaches it, except for its reverse in the
first half of the ids.  A (B,u)'s equation does not read its reverse, and
neither does a (u,B)'s, but its freeze rule counts the reverse among its
node's zeros.  So only a first-half (u,B) that the sweep left frozen can be
short, and only if its node's zero count fell below two when its reverse
was set later in the pass; zero counts only fall.  The worklist starts
from exactly those pairs.

The worklist keeps the schedule of one seeded with every pair in the
rooted order.  A pair's id is its position in that order, so the queue is
indexed by id: a scan over the ids takes each queued one in turn, and
when a pair rises, its dependants behind the scan go on a LIFO stack,
drained before the scan moves on, while those ahead are queued for the
scan to reach.  A pair the scan passes unqueued holds y(p) >= F(y)(p)
since none of its inputs moved, so evaluating it would change nothing.
The increases, their order, and so the potentials, zeros and
iteration_count are those of evaluating every pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BlockslideError, InternalError, NotIndependentError


@dataclass
class Potentials:
    """The potential per pair id; the fixed point's iteration_count; and,
    per node x, zeros[x]: the number of pairs in into[x] at potential 0
    with ua, the count that freezes a cut vertex's (u,B) pairs at two and
    makes it rigid (always 0 for a block)."""

    array: list
    iteration_count: int
    zeros: list


def _marks(bd, c):
    """Per block B, the node of the token of C in B, or -1 if B holds none:
    the token's cut node, or B itself for a token that is no cut vertex.
    C is a TokenSet or any iterable of distinct vertices of bd's blocks,
    at most one per block."""
    ix = bd.index()
    nblocks = len(bd.members)
    tok = [-1] * nblocks
    for v in c:
        bd.graph._check_vertex(v)  # VertexOutOfRangeError outside 0..n-1
        x = ix.node_of[v]
        if x < 0:
            raise BlockslideError(f"token {v} lies outside the decomposition's blocks")
        for b in (x,) if x < nblocks else map(ix.node.__getitem__, ix.into[x]):
            if tok[b] != -1:
                raise NotIndependentError()
            tok[b] = x
    return tok


def _capacities(bd, ua, tok):
    """cap(C[p]) for every pair id, from the token marks of C, and
    the running totals per node x over into[x]: for a block, the sum of cap;
    for a cut vertex, the sum of cap - ua, and the count of pairs with
    cap = 0 and ua, which blocks its (u,B) pairs at two.  Unset caps are 0,
    so a cut vertex starts from its ua count, which compute_ua ends with."""
    ix = bd.index()
    node, into, last = ix.node, ix.into, ix.last
    nblocks = len(bd.members)
    zeros = [0] * nblocks + ua.counts[nblocks:]
    total = [-z for z in zeros]
    ua = ua.array
    cap = [0] * len(node)
    for p, x in enumerate(node):
        r = last - p
        held = node[r]  # p is one of into[held]
        if x < nblocks:
            value = total[x] - cap[r] + ua[p] - (-1 != tok[x] != held)
        elif len(into[x]) < 2:
            raise InternalError(f"beta is empty at pair id {p}")
        elif zeros[x] - (cap[r] == 0 and ua[r]):
            value = 0
        else:
            value = total[x] - (cap[r] - ua[r]) + ua[p]
        if value < 0:
            raise InternalError(f"negative capacity at pair id {p}")
        cap[p] = value
        total[held] += value
        if value and x < nblocks and ua[p]:
            zeros[held] -= 1
    return cap, total, zeros


def capacity_table(bd, ua, c):
    """cap(C[p]) per pair id for the token set C: a TokenSet or any
    iterable of distinct vertices of bd's blocks.  Raises
    VertexOutOfRangeError for a vertex outside the graph, BlockslideError
    for one outside bd's blocks, and NotIndependentError for two tokens in
    one block."""
    return _capacities(bd, ua, _marks(bd, c))[0]


def _sweep(bd, ua, tok):
    """One pass of the potential's own rule over the pair ids, from the
    token marks of C, with unset pairs counted as 0: a (B,u) takes
    its equation, and a (u,B) stays 0 while its node's zero count is at
    least two, else takes its equation.  Returns the values; the running
    totals and zero counts per node, as _capacities keeps them; and the
    pairs the pass may leave below their equation, in id order: the (u,B)
    pairs it left at 0 whose node's zero count fell below two later."""
    ix = bd.index()
    node, into, last = ix.node, ix.into, ix.last
    nblocks = len(bd.members)
    zeros = [0] * nblocks + ua.counts[nblocks:]
    total = [-z for z in zeros]
    ua = ua.array
    y = [0] * len(node)
    frozen = []
    for p, x in enumerate(node):
        r = last - p
        held = node[r]  # p is one of into[held]
        if x < nblocks:
            value = total[x] - y[r] + ua[p] - (-1 != tok[x] != held)
        elif len(into[x]) < 2:
            raise InternalError(f"beta is empty at pair id {p}")
        elif zeros[x] >= 2:
            frozen.append(p)  # stays 0, which adds nothing to the totals
            continue
        else:
            value = total[x] - (y[r] - ua[r]) + ua[p]
        if value < 0:
            raise InternalError(f"negative sweep value at pair id {p}")
        y[p] = value
        total[held] += value
        if value and x < nblocks and ua[p]:
            zeros[held] -= 1
    return y, total, zeros, [p for p in frozen if zeros[node[p]] < 2]


def compute_potentials(bd, ua, c):
    """Fixed-point potentials per pair id for the token set C, a TokenSet
    or any iterable of distinct vertices of bd's blocks; the number of
    increases plus one; and the zero counts per node, as a Potentials
    record.  The host graph may be disconnected: no equation reaches
    across components.  Raises VertexOutOfRangeError for a vertex outside
    the graph, BlockslideError for one outside bd's blocks, and
    NotIndependentError for two tokens in one block."""
    ix = bd.index()
    node, into, last = ix.node, ix.into, ix.last
    nblocks = len(bd.members)
    tok = _marks(bd, c)
    y, total, zeros, seeds = _sweep(bd, ua, tok)  # kept running as y grows
    ua = ua.array

    # By id, the pairs to evaluate: at first the frozen (u,B) pairs the
    # sweep may leave below their equation.  The scan takes them in id
    # order; a dependant ahead of it is queued in place, one behind it on a
    # stack that is drained before the scan moves on.  In the rooted order
    # most pairs come after their dependencies: on random block graphs of
    # 2,000-4,000 blocks that took 8 to 26 times fewer increases than the
    # canonical order.
    queued = bytearray(len(y) + 1)  # and a 0 past the end
    for p in seeds:
        queued[p] = 1
    stack = []
    scan = -1
    increases = 0
    while True:
        if stack:
            p = stack.pop()
        else:
            # Where pairs rise, the next queued id is most often the next
            # one, which a lookup finds faster than find().
            scan += 1
            if not queued[scan]:
                scan = queued.find(1, scan)
                if scan < 0:
                    break
            p = scan
        queued[p] = 0
        x, r = node[p], last - p
        held = node[r]
        if x < nblocks:
            candidate = total[x] - y[r] + ua[p] - (-1 != tok[x] != held)
        elif zeros[x] >= 2:
            continue
        else:
            candidate = total[x] - (y[r] - ua[r]) + ua[p]
        if candidate <= y[p]:
            continue
        increases += 1
        # p is one of into[held]: update held's totals, requeue its reverses
        total[held] += candidate - y[p]
        if x < nblocks and y[p] == 0 and ua[p]:
            zeros[held] -= 1
        y[p] = candidate
        for q in into[held]:
            q = last - q
            if not queued[q]:
                queued[q] = 1
                if q <= scan:
                    stack.append(q)
    return Potentials(y, increases + 1, zeros)
