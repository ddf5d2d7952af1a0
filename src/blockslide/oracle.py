"""Brute-force ground truth: explicit BFS over token-sliding states,
definitional potential evaluation, and never-token analysis; and the
definitions the checker verifies the solver's tables against, which decide
never runs.

Works on arbitrary simple graphs so the block-graph validator can be tested
negatively.  States are canonically encoded as bitmasks, bit v for vertex
v.  The oracle never goes beyond about a dozen vertices, so this module is
the only one that builds big-int masks; mask_of, vertices_of, token_set_of
and adjacency_masks convert to and from the graph layer for the harnesses
that compare the two.

The definitions are plain functions of a BlockDecomposition bd.  kappa and
beta are closed forms over bd.members and bd.blocks_of, and side searches
G - u over the graph's adjacency, so none of them reads the pair index
that the solver's passes walk, beyond the check of their pair through
bd.pair_id.  capacity_table is the capacity recursion, one pass over the
pair index like the potentials' sweep (see potential.py) but freezing a
(u,B) as soon as one other side of u is at 0 with ua; the oracle takes
its maximum over the reachable token sets as the potential.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .blocks import TO_BLOCK, TO_VERTEX, Pair
from .errors import InternalError, TruncatedSpaceError
from .graph import TokenSet
from .potential import _marks

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

DEFAULT_MAX_STATES = 2_000_000
DEFAULT_MAX_MILLIS = 30_000


@dataclass(frozen=True)
class OracleLimits:
    max_states: int = DEFAULT_MAX_STATES
    max_millis: int = DEFAULT_MAX_MILLIS

    def __post_init__(self):
        if self.max_states <= 0 or self.max_millis <= 0:
            raise ValueError("oracle limits must be positive")


@dataclass
class StateSpace:
    graph: object
    visited: set = field(default_factory=set)  # bitmask encodings
    truncated: bool = False


def mask_of(vertices):
    """Bitmask with bit v set for every vertex v of the iterable."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask):
    """The set bits of a mask, ascending."""
    vs = []
    while mask:
        low = mask & -mask
        vs.append(low.bit_length() - 1)
        mask ^= low
    return tuple(vs)


def token_set_of(g, mask):
    """The TokenSet of g whose vertices are the set bits of mask."""
    return TokenSet(g, vertices_of(mask))


def adjacency_masks(g):
    """Per vertex of g, the mask of its neighbours."""
    return [mask_of(nbrs) for nbrs in g.adjacency]


def _successor_masks(g, adjacency, mask):
    """Masks reachable in one slide, in deterministic (u asc, v asc) order;
    adjacency holds adjacency_masks(g)."""
    out = []
    m = mask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        rest = mask ^ low
        for v in g.adjacency[u]:
            if mask >> v & 1:
                continue
            if adjacency[v] & rest:
                continue
            out.append(rest | 1 << v)
    return out


def successors(g, c):
    """All token sets obtained by one legal slide from c."""
    return [
        token_set_of(g, m)
        for m in _successor_masks(g, adjacency_masks(g), mask_of(c))
    ]


def enumerate_reachable(g, c, lim=OracleLimits(), stop_at=None):
    """BFS closure of the slide relation from c.

    Sets truncated when either limit trips.  If stop_at (a bitmask) is
    given, the search halts as soon as that state is visited.
    """
    deadline = time.monotonic() + lim.max_millis / 1000.0
    space = StateSpace(graph=g)
    start = mask_of(c)
    space.visited.add(start)
    frontier = [start]
    if stop_at is not None and start == stop_at:
        return space
    adjacency = adjacency_masks(g)
    while frontier:
        next_frontier = []
        for mask in frontier:
            if time.monotonic() > deadline:
                space.truncated = True
                return space
            for succ in _successor_masks(g, adjacency, mask):
                if succ in space.visited:
                    continue
                if len(space.visited) >= lim.max_states:
                    space.truncated = True
                    return space
                space.visited.add(succ)
                next_frontier.append(succ)
                if stop_at is not None and succ == stop_at:
                    return space
        frontier = next_frontier
    return space


def oracle_reachable(g, c1, c2, lim=OracleLimits()):
    """yes / no / unknown for token-sliding reachability of c2 from c1."""
    if len(c1) != len(c2):
        return NO
    target = mask_of(c2)
    space = enumerate_reachable(g, c1, lim, stop_at=target)
    if target in space.visited:
        return YES
    if space.truncated:
        return UNKNOWN
    return NO


def kappa(bd, bid, u):
    """Cut vertices of G[B,u] lying in B; closed form (B ∩ V_cut) \\ {u},
    a cut vertex being one that lies in two blocks or more.

    The closed form is enforced against the definitional computation by
    test, not assumed silently.
    """
    bd.pair_id(Pair(TO_VERTEX, u, bid))
    return frozenset(v for v in bd.members[bid] if v != u and len(bd.blocks_of[v]) > 1)


def beta(bd, u, bid):
    """Blocks of G[u,B] containing u; closed form blocks_of[u] \\ {B}."""
    bd.pair_id(Pair(TO_BLOCK, u, bid))
    return tuple(b for b in bd.blocks_of[u] if b != bid)


def side(bd, p):
    """(number of blocks, vertex set) of G[p], by a search of G - u, u
    being p's base.  The side of (B,u) is u plus every vertex that B's
    other vertices reach; the side of (u,B) is u plus every vertex that
    u's neighbours outside B reach.  Its blocks are those of bd whose
    vertices all lie in it: a block on the other side holds a vertex
    outside it, if only because it holds u and one more vertex.
    """
    bd.pair_id(p)
    u, block = p.base, bd.members[p.block]
    adjacency = bd.graph.adjacency
    if p.is_to_vertex:
        stack = [v for v in block if v != u]
    else:
        stack = [v for v in adjacency[u] if v not in block]
    seen = {u, *stack}
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sum(map(seen.issuperset, bd.members)), frozenset(seen)


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


def oracle_potential(g, bd, ua, c, p, lim=OracleLimits()):
    """Literal evaluation of the potential definition by enumerating every
    reachable token set.  Returns None (unknown) on truncation."""
    i = bd.pair_id(p)
    space = enumerate_reachable(g, c, lim)
    if space.truncated:
        return None
    interior = mask_of(side(bd, p)[1]) & ~(1 << p.base)
    start_interior = (mask_of(c) & interior).bit_count()
    best = None
    for mask in space.visited:
        cap = capacity_table(bd, ua, vertices_of(mask))[i]
        value = cap + (mask & interior).bit_count() - start_interior
        if best is None or value > best:
            best = value
    return best


def oracle_potential_table(g, bd, ua, c, lim=OracleLimits(), space=None, sides=None):
    """Definitional potentials per pair id from a single enumeration.

    Equivalent to calling oracle_potential per pair but shares the BFS and
    the per-state capacity lists.  Returns None on truncation.  A
    pre-computed StateSpace for c, and sides, per pair id the mask of its
    side's interior, may be passed to share them further.
    """
    if space is None:
        space = enumerate_reachable(g, c, lim)
    if space.truncated:
        return None
    if sides is None:  # the interior of each side: G[p] without the base
        sides = [mask_of(side(bd, p)[1]) & ~(1 << p.base) for p in bd.pairs()]
    best = None  # per pair id, the largest cap + interior tokens so far
    for mask in space.visited:
        caps = capacity_table(bd, ua, vertices_of(mask))
        values = [cap + (mask & s).bit_count() for cap, s in zip(caps, sides)]
        best = values if best is None else list(map(max, best, values))
    start = mask_of(c)
    return [b - (start & s).bit_count() for b, s in zip(best, sides)]


def never_token_vertices(space):
    """Vertices carrying no token in any visited state."""
    if space.truncated:
        raise TruncatedSpaceError("state space was truncated")
    union = 0
    for mask in space.visited:
        union |= mask
    return frozenset(v for v in range(space.graph.n) if not union >> v & 1)
