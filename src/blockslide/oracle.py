"""Brute-force ground truth: explicit BFS over token-sliding states,
definitional potential evaluation, and never-token analysis.

Works on arbitrary simple graphs so the block-graph validator can be tested
negatively.  States are canonically encoded as bitmasks.
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
    start: TokenSet
    visited: set = field(default_factory=set)  # bitmask encodings
    truncated: bool = False


def _successor_masks(g, mask):
    """Masks reachable in one slide, in deterministic (u asc, v asc) order."""
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
            if g.adjacency_mask[v] & rest:
                continue
            out.append(rest | 1 << v)
    return out


def successors(g, c):
    """All token sets obtained by one legal slide from c."""
    return [TokenSet._from_mask(m) for m in _successor_masks(g, c.mask)]


def enumerate_reachable(g, c, lim=OracleLimits(), stop_at=None):
    """BFS closure of the slide relation from c.

    Sets truncated when either limit trips.  If stop_at (a bitmask) is
    given, the search halts as soon as that state is visited.
    """
    deadline = time.monotonic() + lim.max_millis / 1000.0
    space = StateSpace(graph=g, start=c)
    space.visited.add(c.mask)
    frontier = [c.mask]
    if stop_at is not None and c.mask == stop_at:
        return space
    while frontier:
        next_frontier = []
        for mask in frontier:
            if time.monotonic() > deadline:
                space.truncated = True
                return space
            for succ in _successor_masks(g, mask):
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
    space = enumerate_reachable(g, c1, lim, stop_at=c2.mask)
    if c2.mask in space.visited:
        return YES
    if space.truncated:
        return UNKNOWN
    return NO


def oracle_potential(g, bd, ua, c, p, lim=OracleLimits()):
    """Literal evaluation of the potential definition by enumerating every
    reachable token set.  Returns None (unknown) on truncation."""
    bd.check_pair(p)
    space = enumerate_reachable(g, c, lim)
    if space.truncated:
        return None
    side = bd.side_mask(p)
    base_bit = 1 << p.base
    start_interior = (c.mask & side & ~base_bit).bit_count()
    best = None
    for mask in space.visited:
        cap = capacity_table(bd, ua, mask)[p]
        interior = (mask & side & ~base_bit).bit_count()
        value = cap + interior - start_interior
        if best is None or value > best:
            best = value
    return best


def oracle_potential_table(g, bd, ua, c, lim=OracleLimits(), space=None):
    """Definitional potentials for every pair from a single enumeration.

    Equivalent to calling oracle_potential per pair but shares the BFS and
    the per-state capacity tables.  Returns None on truncation.  A
    pre-computed StateSpace for c may be passed to share it further.
    """
    if space is None:
        space = enumerate_reachable(g, c, lim)
    if space.truncated:
        return None
    pair_list = bd.pairs()
    sides = [(bd.side_mask(p) & ~(1 << p.base)) for p in pair_list]
    start_interiors = [(c.mask & s).bit_count() for s in sides]
    best = [None] * len(pair_list)
    for mask in space.visited:
        caps = capacity_table(bd, ua, mask)
        for i, p in enumerate(pair_list):
            value = caps[p] + (mask & sides[i]).bit_count() - start_interiors[i]
            if best[i] is None or value > best[i]:
                best[i] = value
    return {p: best[i] for i, p in enumerate(pair_list)}


def never_token_vertices(space):
    """Vertices carrying no token in any visited state."""
    if space.truncated:
        raise TruncatedSpaceError("state space was truncated")
    union = 0
    for mask in space.visited:
        union |= mask
    return frozenset(v for v in range(space.graph.n) if not union >> v & 1)
