"""Capacities of per-pair token restrictions and the fixed-point potentials.

Both run over the flat lists of the pair index (BlockDecomposition.index)
and give one value per pair id.
Each pair's equation has a constant term: ua(p), minus, for a (B,u) pair,
the tokens of B other than u.  The capacity is one pass over the pair ids,
which follow the index's rooted order, with running totals per node: a
pair reads its node's totals minus its reverse last - p, and adds its own
value to the totals of node[last - p], so every pair costs O(1).  The
fixed point starts from those totals.

The potential is the least fixed point above 0 of G(y) = max(y, F(y)),
where F is the right-hand side of the potential equations:

    F(B,u) = sum of y(v,B) over v in kappa(B,u) + ua(B,u) - tokens of B but u
    F(u,B) = sum of y(B',u) - ua(B',u) over B' in beta(u,B) + ua(u,B),
             except that y(u,B) stays as it is while at least two
             (B',u), B' any block of u, have y = 0 and ua

G is monotone and inflationary, so iterating it one pair at a time in any
fair order from 0 reaches that fixed point L.  compute_potentials starts
from the capacities instead, and keeps a worklist of pairs whose inputs
changed.  The start gives the same L: C itself is reachable from C, so
0 <= cap <= L; each step is monotone and L is fixed, so every iterate from
cap stays at most L, and the fixed point M it reaches is at least cap >= 0.
The iterates from 0 stay below any fixed point at least 0, M included, so
L <= M <= L.  iteration_count is the number of increases plus one: with
every increase at least 1 and each L(p) at most the blocks on p's side,
it stays within 2m(ncut+m-1)+1 for m blocks and ncut cut vertices.

Right after the capacity pass, only a few pairs can lie below their
equation, y(p) < F(y)(p).  Each pair's capacity is its equation read from
its node's totals minus its reverse, and those stay as they were when it
was read: only the reverse is set later.  The two rules differ only for a
(u,B) pair: the capacity is 0 as soon as one (B',u) with B' != B has
cap 0 and ua, while the potential is frozen only at two such (B',u) of
any B'.  With zeros[u] = 0 both rules evaluate the equation; with
zeros[u] >= 2 the capacity is 0 and the potential frozen; with
zeros[u] = 1 the one zero is (B,u) itself, and both evaluate the
equation, or it is another, and the capacity is 0 where the equation
may be larger.  So the worklist starts from the (u,B) pairs of the cut
vertices u with zeros[u] = 1 only.

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

from .errors import InternalError


@dataclass
class Potentials:
    """The potential per pair id; the fixed point's iteration_count; and,
    per node x, zeros[x]: the number of pairs in into[x] at potential 0
    with ua, the count that freezes a cut vertex's (u,B) pairs at two and
    makes it rigid (always 0 for a block)."""

    array: list
    iteration_count: int
    zeros: list


def _constants(bd, ua, vertices):
    """Per pair id: ua(p), minus for (B,u) the tokens of B other than u.
    ua is compute_ua's record for bd."""
    ix = bd.index()
    into, base, node, node_of, last = ix.into, ix.base, ix.node, ix.node_of, ix.last
    nblocks = len(bd.members)
    const = list(map(int, ua.array))
    for v in vertices:
        x = node_of[v]
        blocks = (x,) if x < nblocks else map(node.__getitem__, into[x])
        for b in blocks:
            for q in into[b]:  # the (u,B) pairs of B; last - q is (B,u)
                if base[q] != v:
                    const[last - q] -= 1
    return const


def _capacities(bd, ua, const):
    """cap(C[p]) for every pair id, from the constants of token set C, and
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
        if x < nblocks:
            value = total[x] - cap[r] + const[p]
        elif len(into[x]) < 2:
            raise InternalError(f"beta is empty at pair id {p}")
        elif zeros[x] - (cap[r] == 0 and ua[r]):
            value = 0
        else:
            value = total[x] - (cap[r] - ua[r]) + const[p]
        if value < 0:
            raise InternalError(f"negative capacity at pair id {p}")
        cap[p] = value
        total[node[r]] += value  # p is one of into[node[r]]
        if value and x < nblocks and ua[p]:
            zeros[node[r]] -= 1
    return cap, total, zeros


def capacity_table(bd, ua, c):
    """cap(C[p]) per pair id for the token set C: a TokenSet or any
    iterable of distinct vertices."""
    return _capacities(bd, ua, _constants(bd, ua, c))[0]


def compute_potentials(bd, ua, c):
    """Fixed-point potentials per pair id for the token set C, a TokenSet
    or any iterable of distinct vertices of bd's blocks; the number of
    increases plus one; and the zero counts per node, as a Potentials
    record.  The host graph may be disconnected: no equation reaches
    across components."""
    ix = bd.index()
    node, into, last = ix.node, ix.into, ix.last
    nblocks = len(bd.members)
    const = _constants(bd, ua, c)
    y, total, zeros = _capacities(bd, ua, const)  # kept running as y grows
    ua = ua.array

    # By id, the pairs to evaluate: at first the (u,B) pairs of the cut
    # vertices with one zero side, the only ones the capacity pass can
    # leave below their equation.  The scan takes them in id order; a
    # dependant ahead of it is queued in place, one behind it on a stack
    # that is drained before the scan moves on.  In the rooted order most
    # pairs come after their dependencies: on random block graphs of
    # 2,000-4,000 blocks that took 8 to 26 times fewer increases than the
    # canonical order.
    queued = bytearray(len(y) + 1)  # and a 0 past the end
    for x, z in enumerate(zeros):
        if z == 1:
            for q in into[x]:
                queued[last - q] = 1
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
        if x < nblocks:
            candidate = total[x] - y[r] + const[p]
        elif zeros[x] >= 2:
            continue
        else:
            candidate = total[x] - (y[r] - ua[r]) + const[p]
        if candidate <= y[p]:
            continue
        increases += 1
        # p is one of into[held]: update held's totals, requeue its reverses
        held = node[r]
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
