"""Deterministic pseudo-random block graphs and independent sets.

The PRNG is splitmix64 with its published constants, so a seed reproduces
the same instance in any implementation of the generator, regardless of
host language or platform word size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParamsError
from .graph import Graph, TokenSet

_MASK64 = (1 << 64) - 1
_RESTARTS = 16  # shuffled packings tried per seed


class SplitMix64:
    """splitmix64: gamma 0x9E3779B97F4A7C15, finalizer constants per the
    published reference implementation."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        """Uniform-enough integer in [0, bound); modulo bias is irrelevant
        at fuzzing scale."""
        return self.next_u64() % bound

    def randint(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items):
        # Fisher-Yates
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GenParams:
    seed: int
    num_blocks: int
    max_clique: int
    token_count: int = 0

    def __post_init__(self):
        if self.num_blocks < 1:
            raise InvalidParamsError("num_blocks must be positive")
        if self.max_clique < 2:
            raise InvalidParamsError("max_clique must be at least 2")
        if self.token_count < 0:
            raise InvalidParamsError("token_count must be nonnegative")


def gen_block_graph(params):
    """Connected block graph grown block by block.

    The first block is a clique of uniform size in [2, max_clique]; every
    later block is a fresh clique glued to one uniformly chosen existing
    vertex.  Every connected block graph with at most num_blocks blocks has
    positive probability.
    """
    rng = SplitMix64(params.seed)
    edges = []
    size = rng.randint(2, params.max_clique)
    vertices = list(range(size))
    for i in range(size):
        for j in range(i + 1, size):
            edges.append((i, j))
    n = size
    for _ in range(params.num_blocks - 1):
        glue = vertices[rng.below(len(vertices))]
        size = rng.randint(2, params.max_clique)
        fresh = list(range(n, n + size - 1))
        n += size - 1
        members = [glue] + fresh
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.append((members[i], members[j]))
        vertices.extend(fresh)
    return Graph(n, edges)


def _packings(seed, g):
    """The maximal greedy packing of each restart, in restart order: the
    vertices of a shuffled order, each kept unless it neighbours a vertex
    kept before it.  The shuffles depend on the seed alone, and the first
    k vertices of a packing are what packing k vertices keeps."""
    rng = SplitMix64(seed)
    for _ in range(_RESTARTS):
        order = list(range(g.n))
        rng.shuffle(order)
        blocked = bytearray(g.n)  # chosen vertices and their neighbours
        chosen = []
        for v in order:
            if blocked[v]:
                continue
            chosen.append(v)
            blocked[v] = 1
            for w in g.adjacency[v]:
                blocked[w] = 1
        yield chosen


def gen_independent_set(seed, g, size):
    """Shuffled greedy packing of `size` non-adjacent vertices.

    Not uniform over independent sets; returns None when packing keeps
    failing (e.g. size above the independence number).
    """
    if size == 0:
        return TokenSet(g, [])
    for chosen in _packings(seed, g):
        if len(chosen) >= size:
            return TokenSet(g, chosen[:size])
    return None


def gen_token_sets(g, k, seed_src, seed_tgt):
    """Source and target sets of the largest size at most k for which
    gen_independent_set packs both, or two empty sets.

    That size is k capped by the largest packing of either seed, so each
    seed's restarts are packed once, whatever k is.
    """
    src = list(_packings(seed_src, g))
    tgt = list(_packings(seed_tgt, g))
    k = min(k, max(map(len, src)), max(map(len, tgt)))
    if k <= 0:
        empty = TokenSet(g, [])
        return empty, empty
    return tuple(
        TokenSet(g, next(p for p in packs if len(p) >= k)[:k]) for packs in (src, tgt)
    )
