"""Blocks, cut vertices, the block-cut tree, and directed tree-edge pairs.

Block ids are canonical: blocks are sorted lexicographically by their sorted
member lists and numbered in that order.  Every downstream iteration order
(depth/ua tables, the fixed-point pass order, CLI output) derives from this,
so fuzz failures replay bit-for-bit.

The canonical order of pairs is by cut vertex, then block, (B,u) before
(u,B); the CLI prints pairs in it.  A pair's id is instead its position in
a rooted order of the block-cut forest (see PairIndex), in which every pair
follows its dependencies: pair p's reverse is last - p, and p is a (B,u)
exactly when node[p] is a block.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from .errors import InvalidPairError

TO_VERTEX = "to_vertex"  # (B, u): the side kept is B's side of u
TO_BLOCK = "to_block"  # (u, B): the side kept is everything except B's side

_first = itemgetter(0)


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

    members is the one table a decomposition keeps: per block id, the
    block's sorted vertex tuple.  The graph keeps the same tuple, built by
    its first decomposition, so the DFS runs once per graph however often
    it is decomposed.  blocks (a frozenset per block), blocks_of
    (the sorted block ids of each vertex) and cut_vertices are views built
    from it on first read, like Graph.edges; decide reads none of them.
    A tuple of ints is no container that CPython's cyclic garbage
    collector keeps tracking, but a frozenset or a list is, and every
    full collection walks each tracked object again; kept eagerly, the
    views would add one such object per block and per vertex.

    component is the graph's list of per-vertex component indices, which
    the same DFS fills.  A decomposition built by within() keeps the
    members of some components only; members is then that subsequence.

    Pairs go by integer id, their position in the rooted order (see
    PairIndex), and every per-pair result is a list indexed by it.  pairs()
    and pair_id convert between ids and Pair objects, which only the
    checker's definitional queries (kappa, beta and side in oracle.py) take
    and messages print.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, graph, members=None):
        self.graph = graph
        if graph._blocks is None:
            blocks, graph._component = _biconnected_blocks(graph)
            blocks.sort()
            graph._blocks = tuple(blocks)
        self.members = graph._blocks if members is None else members
        self.component = graph._component
        self._blocks = self._blocks_of = self._cut_vertices = self._trees = None
        self._index = None
        self._pairs = None

    # --- views built on first read ----------------------------------------

    @property
    def blocks(self):
        """Each block's vertex set as a frozenset; position i is block i."""
        if self._blocks is None:
            self._blocks = tuple(map(frozenset, self.members))
        return self._blocks

    @property
    def blocks_of(self):
        """Per vertex, the sorted tuple of ids of the blocks holding it."""
        if self._blocks_of is None:
            blocks_of = [[] for _ in range(self.graph.n)]
            for bid, b in enumerate(self.members):
                for v in b:
                    blocks_of[v].append(bid)
            self._blocks_of = tuple(map(tuple, blocks_of))
        return self._blocks_of

    @property
    def cut_vertices(self):
        """The vertices lying in at least two blocks, as a frozenset."""
        if self._cut_vertices is None:
            self._cut_vertices = frozenset(
                v for v, bids in enumerate(self.blocks_of) if len(bids) > 1
            )
        return self._cut_vertices

    # --- block-cut tree queries -------------------------------------------

    def index(self):
        """The integer pair index (see PairIndex), built once and cached."""
        if self._index is None:
            self._index = PairIndex(self)
        return self._index

    @property
    def trees(self):
        """The number of connected components of the graph."""
        if self._trees is None:
            self._trees = 1 + max(self.component, default=-1)
        return self._trees

    def within(self, kept):
        """The decomposition of the components whose indices are in kept:
        the same graph, and the blocks of those components only, in their
        canonical order.  Its pairs, index, and every pass over them cover
        those components alone; self if kept holds every component."""
        if len(kept) == self.trees:
            return self
        # One C-level pass: each block's component is that of its first vertex.
        labels = map(self.component.__getitem__, map(_first, self.members))
        members = tuple(compress(self.members, map(kept.__contains__, labels)))
        return BlockDecomposition(self.graph, members)

    def pairs(self):
        """Both orientations of every tree edge, in id order, the rooted
        order of PairIndex: position i holds pair id i."""
        if self._pairs is None:
            ix = self.index()
            nblocks, cuts = len(self.members), ix.cuts
            self._pairs = tuple(  # the reverse of pair p starts from node[last - p]
                Pair(TO_VERTEX, cuts[y - nblocks], x) if x < nblocks
                else Pair(TO_BLOCK, cuts[x - nblocks], y)
                for x, y in zip(ix.node, reversed(ix.node))
            )
        return self._pairs

    def pair_id(self, p):
        """Integer id of pair p, its position in pairs().  Raises
        InvalidPairError unless p's base is a cut vertex lying in p's block."""
        ix = self.index()
        if 0 <= p.base < self.graph.n:
            x = ix.node_of[p.base]
            if x >= len(self.members):  # a cut vertex: into[x] holds its (B,u)
                sides = ix.into[x]  # by block id, each (B,u) starting from B
                i = bisect_left(sides, p.block, key=ix.node.__getitem__)
                if i < len(sides) and ix.node[sides[i]] == p.block:
                    return sides[i] if p.is_to_vertex else ix.last - sides[i]
        raise InvalidPairError(f"pair {p} is not valid for this decomposition")


class PairIndex:
    """Integer ids for the pairs of a decomposition, in flat lists.

    Tree nodes are numbered blocks first (node B is block B), then cut
    vertices in increasing order: cuts is the sorted list of cut vertices,
    and node nblocks + i is cuts[i].  node_of[v] is v's node if v is a cut
    vertex, else the one block holding v, and -1 for a vertex outside the
    decomposition's blocks.  node[p] is the node p's side starts from: B
    for (B,u), u for (u,B), so p is a (B,u) exactly when node[p] is below
    the number of blocks.  The index keeps no per-pair list of p's block
    or base: p's block is whichever of node[p] and node[last - p] is a
    block, and its base the cut vertex of the other.
    into[x] is the tuple of pairs whose sides lie beyond x's tree edges, in
    canonical order: the (v,B) pairs of block B by cut vertex, or the (B,u)
    pairs of cut vertex u by block id.  A pair depends on into[node[p]]
    without its reverse, so len(into[B]) is B's cut-vertex count.

    A pair's id is its position in one rooted order of each tree of the
    block-cut forest, rooted at its lowest block, in which every pair
    follows its dependencies.  The first half holds the pairs whose side is
    the subtree below a tree edge, children before parents; the second
    half holds their reverses in the opposite order, parents before
    children, with the pairs sharing a node next to each other.  So the
    reverse of pair p is last - p, with last = 2 edges - 1.  Depths, ua
    and potentials are plain lists by id, and a pass over ids in
    increasing order can keep running totals per node: once a pair's value
    is set, it is added to the totals of node[last - p], as
    into[node[last - p]] holds p.  Each pair then reads its node's totals
    minus its reverse in O(1): in the first half the reverse is the one
    pair of the list not yet set, so its starting value must add nothing to
    the totals; in the second half every pair of the list is set.

    Every list and tuple here holds ints only, so the index keeps no
    container per vertex or per block for the garbage collector to walk,
    and its build holds none for long: each node's neighbours are an int
    tuple, a cut vertex's cut from one flat list.  The cut vertices are collected by a
    pass over the member tuples, not by one over all n vertices, so the
    index of a decomposition that within() restricted costs time in its
    own blocks only, beyond three n-entry lists.
    """

    __slots__ = ("node", "into", "node_of", "last", "cuts")

    def __init__(self, bd):
        members = bd.members
        nblocks = len(members)
        count = [0] * bd.graph.n  # blocks holding each vertex
        cuts = []  # each vertex once a second block holds it: no pass over n
        for b in members:
            for v in b:
                if count[v] == 1:
                    cuts.append(v)
                count[v] += 1
        cuts.sort()
        # Per node, its neighbours in the forest in canonical order, as int
        # tuples: a block's cut vertices by vertex, a cut vertex's blocks by
        # id, each cut vertex's from its run of the flat list around.
        node_of = [-1] * bd.graph.n
        start = [0] * bd.graph.n  # next free slot of cut vertex u's run
        edges = 0  # a tree edge per cut vertex and block holding it
        for x, u in enumerate(cuts, nblocks):
            node_of[u] = x
            start[u] = edges
            edges += count[u]
        around = [0] * edges
        into = []
        for bid, b in enumerate(members):
            ids = []
            for v in b:
                if count[v] > 1:
                    ids.append(node_of[v])
                    around[start[v]] = bid
                    start[v] += 1
                else:
                    node_of[v] = bid
            into.append(tuple(ids))
        into += [tuple(around[start[u] - count[u]:start[u]]) for u in cuts]

        # The search reaches each node but the roots once, from its parent.
        # For the j-th node reached, y, the pair starting from y has id
        # edges - 1 - j, and its reverse, from the parent, edges + j.  Once
        # the search leaves node x, into[x] holds those ids in place of x's
        # neighbours: a child y's pair, or for the parent, x's reverse.
        last = 2 * edges - 1
        found = []  # each node reached from its parent, in that order
        up = []  # the parent of each node of found
        down = [-1] * len(into)  # per node reached, the id of its pair
        nxt = edges - 1
        for root in range(nblocks):
            if down[root] != -1:
                continue
            down[root] = root  # a root has no pair
            stack = [root]
            while stack:
                x = stack.pop()
                ids = []
                for y in into[x]:
                    p = down[y]
                    if p == -1:  # a child of x
                        p = down[y] = nxt
                        nxt -= 1
                        found.append(y)
                        up.append(x)
                        if len(into[y]) == 1:  # a leaf: x is all it sees
                            into[y] = (last - p,)
                        else:
                            stack.append(y)
                    else:  # x's parent: the pair from it is x's reverse
                        p = last - down[x]
                    ids.append(p)
                into[x] = tuple(ids)
        self.node = found[::-1] + up
        self.into, self.node_of, self.last, self.cuts = tuple(into), node_of, last, cuts


def _biconnected_blocks(graph):
    """Maximal 2-connected vertex sets, as sorted tuples, and per vertex
    the index of its connected component, via an iterative Hopcroft-Tarjan
    DFS that stacks vertices rather than edges.

    The DFS keeps `pending`, the discovered vertices not yet placed in a
    block, in discovery order, and two parallel stacks for the tree path
    from the root: a neighbour iterator per vertex, and the vertex's
    position in `pending`, which holds it until it finishes.  When a child
    u of `parent` finishes with low[u] >= disc[parent], nothing below u
    reaches above parent, so the slice of `pending` from u on forms one
    block with parent.  Isolated vertices become singleton blocks.  Linear
    in |V|+|E|, with no recursion.

    Each search from a new root, in increasing vertex order, covers one
    component, so the components are numbered in order of least vertex.
    A vertex's low value is dead once it finishes, so the low list keeps
    the component's index in its place and is returned as the labels.
    """
    adjacency = graph.adjacency
    disc = [-1] * graph.n
    low = [0] * graph.n
    blocks = []
    timer = 0
    tree = -1
    for root, nbrs in enumerate(adjacency):
        if disc[root] != -1:
            continue
        tree += 1
        if not nbrs:
            blocks.append((root,))
            low[root] = tree
            continue
        disc[root] = low[root] = timer
        timer += 1
        # Parallel stacks instead of one of (vertex, iterator) tuples: on a
        # 65,536-vertex path the tuples cost about twice the DFS's own time
        # in cyclic garbage collection.
        iters, marks, pending = [iter(nbrs)], [0], [root]
        while iters:
            u = pending[marks[-1]]
            low_u = low[u]
            for v in iters[-1]:
                d = disc[v]
                if d == -1:  # tree edge: descend into v
                    low[u] = low_u
                    disc[v] = low[v] = timer
                    timer += 1
                    iters.append(iter(adjacency[v]))
                    marks.append(len(pending))
                    pending.append(v)
                    break
                if d < low_u:  # back edge, or the edge to u's parent
                    low_u = d
            else:  # u finished
                low[u] = tree
                iters.pop()
                k = marks.pop()
                if not marks:
                    continue
                parent = pending[marks[-1]]
                if low_u >= disc[parent]:
                    if k == len(pending) - 1:  # u alone: a K2, as in trees
                        pending.pop()
                        blocks.append((parent, u) if parent < u else (u, parent))
                    else:
                        block = pending[k:]
                        del pending[k:]
                        block.append(parent)
                        block.sort()
                        blocks.append(tuple(block))
                elif low_u < low[parent]:
                    low[parent] = low_u
    return blocks, low


def decompose(g):
    return BlockDecomposition(g)


def is_block_graph(g):
    """True iff every block induces a complete subgraph.

    Every edge lies in exactly one block, and a block B holds at most
    |B|(|B|-1)/2 edges, so the blocks' maxima add up to the edge count
    exactly when every block is a clique.
    """
    sizes = map(len, decompose(g).members)
    return sum(k * (k - 1) for k in sizes) // 2 == g.m
