"""The eager block decomposition and pair index, kept as a test reference.

BlockDecomposition keeps only its sorted member tuples and builds blocks,
blocks_of and cut_vertices when they are first read; PairIndex fills its
lists with flat counting arrays.  This module builds all of them eagerly,
as before, from its own DFS that pops a block's vertices one by one, and
derives the pair index from blocks_of.  The tests require the views, the
pairs and the index to equal these.
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
        self.pairs = tuple(
            Pair(TO_BLOCK if p & 1 else TO_VERTEX, u, b)
            for p, (u, b) in enumerate(zip(base, block))
        )


def check_against_reference(bd):
    """Every view, pairs() and every list of bd.index() equal the eager
    reference's."""
    ref = ReferenceDecomposition(bd.graph)
    assert bd.members == tuple(tuple(sorted(b)) for b in ref.blocks)
    assert bd.blocks == ref.blocks
    assert bd.blocks_of == ref.blocks_of
    assert bd.cut_vertices == ref.cut_vertices
    assert bd.pairs() == ref.pairs
    ix = bd.index()
    assert (ix.base, ix.block, ix.node) == (ref.base, ref.block, ref.node)
    assert (ix.into, ix.node_of, ix.order) == (ref.into, ref.node_of, ref.order)
