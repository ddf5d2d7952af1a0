"""The eager block decomposition and pair index, kept as a test reference.

BlockDecomposition keeps only its sorted member tuples and builds blocks,
blocks_of and cut_vertices when they are first read; PairIndex numbers the
pairs by their position in the block-cut forest's rooted order as its
search finds them.  This module builds all of them eagerly, as before,
from its own DFS that pops a block's vertices one by one, and derives the
pair index from blocks_of with the pairs in canonical order: pair 2k is
(B,u) and 2k+1 is (u,B) for the k-th tree edge u--B by cut vertex, then
block.  Its rooted order, order, lists the canonical ids by position, and
pos inverts it.  The tests require the views to equal these, and the pairs
and the index to equal them up to that permutation: the pair with id i is
the reference's pair order[i].
"""

from blockslide import TO_BLOCK, TO_VERTEX, Pair


def reference_blocks(graph):
    """Maximal 2-connected vertex sets, as lists, in DFS finishing order."""
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
        path, iters, pending = [root], [iter(nbrs)], [root]
        while iters:
            u = path[-1]
            low_u = low[u]
            for v in iters[-1]:
                d = disc[v]
                if d == -1:
                    low[u] = low_u
                    disc[v] = low[v] = timer
                    timer += 1
                    path.append(v)
                    iters.append(iter(adjacency[v]))
                    pending.append(v)
                    break
                if d < low_u:
                    low_u = d
            else:
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


class ReferenceDecomposition:
    """blocks, blocks_of, cut_vertices and the pair index's lists, each
    built in full on construction."""

    def __init__(self, graph):
        raw_blocks = reference_blocks(graph)
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
        self._index()

    def _index(self):
        base, block, node = [], [], []
        into = [[] for _ in self.blocks]
        node_of = [bs[0] for bs in self.blocks_of]
        for u, blocks in enumerate(self.blocks_of):
            if len(blocks) < 2:
                continue
            x = node_of[u] = len(into)
            ids = []
            for b in blocks:
                p = len(base)
                ids.append(p)
                into[b].append(p + 1)
                base += (u, u)
                block += (b, b)
                node += (b, x)
            into.append(ids)

        found = []
        seen = bytearray(len(into))
        for root in range(len(self.blocks)):
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
        self.base, self.block, self.node, self.node_of = base, block, node, node_of
        self.into = tuple(map(tuple, into))
        self.order = found[::-1] + [q ^ 1 for q in found]
        self.pos = [0] * len(self.order)
        for i, p in enumerate(self.order):
            self.pos[p] = i
        self.pairs = tuple(
            Pair(TO_BLOCK if p & 1 else TO_VERTEX, u, b)
            for p, (u, b) in enumerate(zip(base, block))
        )


def check_against_reference(bd):
    """Every view of bd equals the eager reference's; pairs(), the base
    and block of each, and every list of bd.index() equal the reference's
    read through its rooted order, into[x] holds the same pairs in the
    same canonical order, and cuts lists the cut vertices in order."""
    ref = ReferenceDecomposition(bd.graph)
    assert bd.members == tuple(tuple(sorted(b)) for b in ref.blocks)
    assert bd.blocks == ref.blocks
    assert bd.blocks_of == ref.blocks_of
    assert bd.cut_vertices == ref.cut_vertices
    order = ref.order
    pairs = bd.pairs()
    assert pairs == tuple(ref.pairs[p] for p in order)
    ix = bd.index()
    assert ix.last == len(order) - 1
    assert ix.cuts == sorted(bd.cut_vertices)
    base, block = [p.base for p in pairs], [p.block for p in pairs]
    for mine, theirs in ((base, ref.base), (block, ref.block), (ix.node, ref.node)):
        assert mine == [theirs[p] for p in order]
    assert ix.into == tuple(tuple(ref.pos[q] for q in qs) for qs in ref.into)
    assert ix.node_of == ref.node_of
