"""Brute-force ground truth: explicit BFS over token-sliding states,
definitional potential evaluation, and never-token analysis.

Works on arbitrary simple graphs so the block-graph validator can be tested
negatively.  States are canonically encoded as bitmasks, bit v for vertex
v.  The oracle never goes beyond about a dozen vertices, so this module is
the only one that builds big-int masks; mask_of, vertices_of, token_set_of
and adjacency_masks convert to and from the graph layer for the harnesses
that compare the two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .graph import TokenSet
from .potential import capacity_table
from .errors import TruncatedSpaceError

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


def oracle_potential(g, bd, ua, c, p, lim=OracleLimits()):
    """Literal evaluation of the potential definition by enumerating every
    reachable token set.  Returns None (unknown) on truncation."""
    i = bd.pair_id(p)
    space = enumerate_reachable(g, c, lim)
    if space.truncated:
        return None
    interior = mask_of(bd.side_vertices(p)) & ~(1 << p.base)
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
        sides = [mask_of(bd.side_vertices(p)) & ~(1 << p.base) for p in bd.pairs()]
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
