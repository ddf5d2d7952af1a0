"""Blocks, cut vertices, the block-cut tree, and directed tree-edge pairs.

Block ids are canonical: blocks are sorted lexicographically by their sorted
member lists and numbered in that order.  Every downstream iteration order
(depth/ua tables, the fixed-point pass order, CLI output) derives from this,
so fuzz failures replay bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import InvalidPairError

TO_VERTEX = "to_vertex"  # (B, u): the side kept is B's side of u
TO_BLOCK = "to_block"  # (u, B): the side kept is everything except B's side


@dataclass(frozen=True)
class Pair:
    """A directed edge of the block-cut tree: (u, B) or (B, u).

    direction TO_BLOCK encodes (u, B); TO_VERTEX encodes (B, u).
    `base` is the cut vertex u in either orientation.
    """

    direction: str
    base: int
    block: int

    def reverse(self):
        other = TO_BLOCK if self.direction == TO_VERTEX else TO_VERTEX
        return Pair(other, self.base, self.block)

    @property
    def is_to_vertex(self):
        return self.direction == TO_VERTEX

    def __repr__(self):
        if self.is_to_vertex:
            return f"(B{self.block},{self.base})"
        return f"({self.base},B{self.block})"


class BlockDecomposition:
    """Result of the articulation-point DFS over a Graph.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, graph):
        self.graph = graph
        raw_blocks = _biconnected_blocks(graph)
        for b in raw_blocks:
            b.sort()
        raw_blocks.sort()
        self.blocks = tuple(map(frozenset, raw_blocks))
        blocks_of = [[] for _ in range(graph.n)]
        for bid, b in enumerate(self.blocks):
            for v in b:
                blocks_of[v].append(bid)
        self.blocks_of = tuple(tuple(bs) for bs in blocks_of)
        self.cut_vertices = frozenset(
            v for v in range(graph.n) if len(self.blocks_of[v]) >= 2
        )
        self._side_cache = {}
        self._index = None
        self._pairs = None

    # --- block-cut tree queries -------------------------------------------

    def index(self):
        """The integer pair index (see PairIndex), built once and cached."""
        if self._index is None:
            self._index = PairIndex(self)
        return self._index

    def pairs(self):
        """Both orientations of every tree edge, in canonical order: by
        base, then block, (B,u) before (u,B).  Position i holds pair id i."""
        if self._pairs is None:
            ix = self.index()
            self._pairs = tuple(
                Pair(TO_BLOCK if p & 1 else TO_VERTEX, u, b)
                for p, (u, b) in enumerate(zip(ix.base, ix.block))
            )
        return self._pairs

    def pair_id(self, p):
        """Integer id of pair p, its position in pairs()."""
        ix = self.index()
        x = ix.cut_node.get(p.base)
        if x is not None:
            blocks = self.blocks_of[p.base]
            j = bisect_left(blocks, p.block)
            if j < len(blocks) and blocks[j] == p.block:
                return ix.into[x][j] + (0 if p.is_to_vertex else 1)
        raise InvalidPairError(f"pair {p} is not valid for this decomposition")

    def check_pair(self, p):
        if (
            p.base not in self.cut_vertices
            or not (0 <= p.block < len(self.blocks))
            or p.base not in self.blocks[p.block]
        ):
            raise InvalidPairError(f"pair {p} is not valid for this decomposition")

    def kappa(self, bid, u):
        """Cut vertices of G[B,u] lying in B; closed form (B ∩ V_cut) \\ {u}.

        The closed form is enforced against the definitional computation by
        test, not assumed silently.
        """
        self.check_pair(Pair(TO_VERTEX, u, bid))
        return frozenset(
            v for v in self.blocks[bid] if v != u and v in self.cut_vertices
        )

    def beta(self, u, bid):
        """Blocks of G[u,B] containing u; closed form blocks_of[u] \\ {B}."""
        self.check_pair(Pair(TO_BLOCK, u, bid))
        return tuple(b for b in self.blocks_of[u] if b != bid)

    def _side(self, p):
        """(number of blocks, vertex set) of G[p], memoized by pair id.

        The walk follows p's dependencies in the pair index: the side of
        (B,u) is B plus the sides of the (v,B) with v != u, and the side of
        (u,B) is u plus the sides of the (B',u) with B' != B.
        """
        i = self.pair_id(p)
        side = self._side_cache.get(i)
        if side is None:
            ix = self.index()
            count, verts = 0, {p.base}
            stack = [i]
            while stack:
                q = stack.pop()
                x = ix.node[q]
                if not q & 1:  # (B,u) starts from node B, block B itself
                    count += 1
                    verts |= self.blocks[x]
                stack += [r for r in ix.into[x] if r != q ^ 1]
            side = self._side_cache[i] = (count, frozenset(verts))
        return side

    def side_vertices(self, p):
        """Vertex set of G[p].

        For (B,u): all vertices of blocks on B's side of the tree edge u--B.
        For (u,B): all vertices of blocks on u's side, plus u itself.
        """
        return self._side(p)[1]

    def blocks_in_side(self, p):
        """Number of blocks of G[p] (used for the potential upper bound).

        For (B,u) this counts blocks in the tree component on B's side; for
        (u,B) the blocks on u's side.  A base vertex alone contributes none.
        """
        return self._side(p)[0]


class PairIndex:
    """Integer ids for the pairs of a decomposition, in flat lists.

    Pair 2k is (B,u) and pair 2k+1 is (u,B) for the k-th tree edge u--B of
    the canonical order, so a pair's direction is its low bit (0 for
    TO_VERTEX) and its reverse is p ^ 1.  base[p] and block[p] name it.

    Tree nodes are numbered blocks first (node B is block B), then cut
    vertices in increasing order; cut_node maps a cut vertex to its node.
    node[p] is the node p's side starts from: B for (B,u), u for (u,B).
    into[x] lists the pairs whose sides lie beyond x's tree edges: the
    (v,B) pairs of block B, or the (B,u) pairs of cut vertex u, each in
    canonical order.  A pair depends on into[node[p]] without p ^ 1, so
    len(into[B]) is B's cut-vertex count.

    order is one rooted order of each tree of the block-cut forest, rooted
    at its lowest block, in which every pair follows its dependencies.  Its
    first half holds the pairs whose side is the subtree below a tree edge,
    children before parents; its second half holds their reverses, parents
    before children, with the pairs sharing a node next to each other.  A
    pass over it can keep running totals per node: once a pair's value is
    set, it is added to the totals of node[p ^ 1], as into[node[p ^ 1]]
    holds p.  Each pair then reads its node's totals minus its reverse
    p ^ 1 in O(1): in the first half the reverse is the one pair of the
    list not yet set, so its starting value must add nothing to the
    totals; in the second half every pair of the list is set.
    """

    __slots__ = ("base", "block", "node", "into", "cut_node", "order")

    def __init__(self, bd):
        base, block, node = [], [], []
        into = [[] for _ in bd.blocks]
        cut_node = {}
        for u, blocks in enumerate(bd.blocks_of):
            if len(blocks) < 2:
                continue
            x = cut_node[u] = len(into)
            ids = []
            for b in blocks:
                p = len(base)
                ids.append(p)
                into[b].append(p + 1)
                base += (u, u)
                block += (b, b)
                node += (b, x)
            into.append(ids)

        found = []  # first-half pairs in the order their node is reached
        seen = bytearray(len(into))
        for root in range(len(bd.blocks)):
            if seen[root]:
                continue
            seen[root] = 1
            stack = [root]
            while stack:
                for q in into[stack.pop()]:
                    child = node[q]
                    if not seen[child]:
                        seen[child] = 1
                        found.append(q)
                        stack.append(child)
        self.base, self.block, self.node, self.into = base, block, node, into
        self.cut_node = cut_node
        self.order = found[::-1] + [q ^ 1 for q in found]


class PairTable:
    """One value per pair, stored by pair id; table[pair] reads one."""

    __slots__ = ("decomposition", "array")

    def __init__(self, bd, array):
        self.decomposition = bd
        self.array = array

    def __getitem__(self, p):
        return self.array[self.decomposition.pair_id(p)]

    @property
    def values(self):
        """The table as a dict keyed by Pair."""
        return dict(zip(self.decomposition.pairs(), self.array))


def _biconnected_blocks(graph):
    """Maximal 2-connected vertex sets, as lists, via an iterative
    Hopcroft-Tarjan DFS that stacks vertices rather than edges.

    The DFS keeps two stacks: `path`, the tree path from the root with a
    neighbour iterator per vertex, and `pending`, the discovered vertices
    not yet placed in a block, in discovery order.  When a child u of
    `parent` finishes with low[u] >= disc[parent], nothing below u reaches
    above parent, so the vertices of `pending` from u up form one block
    with parent.  Isolated vertices become singleton blocks.  Linear in
    |V|+|E|, with no recursion.
    """
    adjacency = graph.adjacency
    disc = [-1] * graph.n
    low = [0] * graph.n
    blocks = []
    timer = 0
    for root, nbrs in enumerate(adjacency):
        if disc[root] != -1:
            continue
        if not nbrs:
            blocks.append([root])
            continue
        disc[root] = low[root] = timer
        timer += 1
        # Two parallel stacks instead of one of (vertex, iterator) tuples:
        # on a 65,536-vertex path the tuples cost about twice the DFS's own
        # time in cyclic garbage collection.
        path, iters, pending = [root], [iter(nbrs)], [root]
        while iters:
            u = path[-1]
            low_u = low[u]
            for v in iters[-1]:
                d = disc[v]
                if d == -1:  # tree edge: descend into v
                    low[u] = low_u
                    disc[v] = low[v] = timer
                    timer += 1
                    path.append(v)
                    iters.append(iter(adjacency[v]))
                    pending.append(v)
                    break
                if d < low_u:  # back edge, or the edge to u's parent
                    low_u = d
            else:  # u finished
                low[u] = low_u
                path.pop()
                iters.pop()
                if not path:
                    continue
                parent = path[-1]
                if low_u >= disc[parent]:
                    block = [parent]
                    w = -1
                    while w != u:
                        w = pending.pop()
                        block.append(w)
                    blocks.append(block)
                elif low_u < low[parent]:
                    low[parent] = low_u
    return blocks


def decompose(g):
    return BlockDecomposition(g)


def is_block_graph(g):
    """True iff every block induces a complete subgraph.

    Every edge lies in exactly one block, and a block B holds at most
    |B|(|B|-1)/2 edges, so the blocks' maxima add up to the edge count
    exactly when every block is a clique.
    """
    blocks = decompose(g).blocks
    return sum(len(b) * (len(b) - 1) // 2 for b in blocks) == g.m
