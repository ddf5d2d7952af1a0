"""Seeded instance generator for the benchmark, standard library only.

It does not import blockslide: the program under test receives only the
instance texts built here.  Graphs are kept as adjacency lists, so a
131072-vertex rung costs linear memory before the program sees it.  Every
target is reached from its source by a random walk of legal slides, so the
answer is YES by construction.
"""

from __future__ import annotations

import zlib

_MASK64 = (1 << 64) - 1

LADDER_SHAPES = ("path", "caterpillar", "star", "k4_chain", "random_blocks")
LADDER_RUNGS = tuple(64 << i for i in range(12))  # 64 .. 131072

# The pools hold about a hundred instances each, so that the 90th percentile
# of their solve times has ten instances beyond it.
# Edge budgets of the dense pool: 2,500 to 7,500 edges.
DENSE_EDGE_BUDGETS = tuple(2500 + 50 * i for i in range(101))
# Component counts of the forest pool: 20 to 60 components.
FOREST_COMPONENTS = tuple(20 + 40 * i // 100 for i in range(101))
FOREST_MAX_VERTICES = 12
# The ladder's pool: this many instances of each shape at LADDER_POOL_N
# vertices, small enough that a run makes several passes over it, and
# enough of them that its percentiles hardly vary between seeds.
LADDER_POOL_VARIANTS = 80
LADDER_POOL_N = 24
# The ladder's traced run takes instances of its bottom rung instead, where
# the layers weigh as they do higher up the climb.
LADDER_TRACE_VARIANTS = 20


class SplitMix64:
    """splitmix64 with the published constants."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound):
        return self.next_u64() % bound

    def randint(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def rng_for(seed, *labels):
    """Independent stream for one named part of one seeded workload."""
    key = zlib.crc32("/".join(str(x) for x in labels).encode())
    return SplitMix64((seed & _MASK64) ^ (key << 32) ^ key)


class AdjacencyGraph:
    """Vertex count, edge list and adjacency lists of a simple graph."""

    def __init__(self):
        self.n = 0
        self.edges = []
        self.adj = []

    def add_vertices(self, count):
        first = self.n
        self.n += count
        self.adj.extend([] for _ in range(count))
        return list(range(first, self.n))

    def add_edge(self, u, v):
        self.edges.append((u, v))
        self.adj[u].append(v)
        self.adj[v].append(u)

    def add_clique(self, members):
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                self.add_edge(u, v)


# --- shapes ---------------------------------------------------------------

def build_path(n, rng):
    gb = AdjacencyGraph()
    gb.add_vertices(n)
    for v in range(1, n):
        gb.add_edge(v - 1, v)
    return gb


def build_caterpillar(n, rng):
    """Spine of ceil(n/2) vertices; each other vertex is a leaf hung on a
    uniformly chosen spine vertex."""
    gb = AdjacencyGraph()
    spine = (n + 1) // 2
    gb.add_vertices(n)
    for v in range(1, spine):
        gb.add_edge(v - 1, v)
    for leaf in range(spine, n):
        gb.add_edge(rng.below(spine), leaf)
    return gb


def build_star(n, rng):
    gb = AdjacencyGraph()
    gb.add_vertices(n)
    for leaf in range(1, n):
        gb.add_edge(0, leaf)
    return gb


def build_k4_chain(n, rng):
    """K4 blocks glued in a line, each sharing one vertex with the next;
    1 + 3 * floor((n - 1) / 3) vertices."""
    gb = AdjacencyGraph()
    (last,) = gb.add_vertices(1)
    for _ in range((n - 1) // 3):
        fresh = gb.add_vertices(3)
        gb.add_clique([last] + fresh)
        last = fresh[-1]
    return gb


def grow_blocks(gb, n, rng, lo, hi):
    """Grow a connected block graph of exactly n new vertices in gb.

    The rule of blockslide's gen_block_graph: the first block is a clique of
    uniform size in [lo, hi]; each later block is a fresh clique glued to one
    uniformly chosen existing vertex.  The last block is cut to fit n.
    """
    size = min(rng.randint(lo, hi), n)
    members = gb.add_vertices(size)
    gb.add_clique(members)
    vertices = members
    while len(vertices) < n:
        glue = vertices[rng.below(len(vertices))]
        size = min(rng.randint(lo, hi), n - len(vertices) + 1)
        fresh = gb.add_vertices(size - 1)
        gb.add_clique([glue] + fresh)
        vertices.extend(fresh)
    return vertices


def build_random_blocks(n, rng):
    gb = AdjacencyGraph()
    grow_blocks(gb, n, rng, 2, 5)
    return gb


SHAPES = {
    "path": build_path,
    "caterpillar": build_caterpillar,
    "star": build_star,
    "k4_chain": build_k4_chain,
    "random_blocks": build_random_blocks,
}


# --- tokens and slide walks -------------------------------------------------

def greedy_independent_set(adj, candidates, k, rng):
    """Up to k pairwise non-adjacent vertices of candidates, packed greedily
    in shuffled order."""
    order = list(candidates)
    rng.shuffle(order)
    chosen = []
    blocked = set()
    for v in order:
        if len(chosen) == k:
            break
        if v in blocked:
            continue
        chosen.append(v)
        blocked.add(v)
        blocked.update(adj[v])
    return chosen


def slide_is_legal(adj, occupied, u, v):
    """True iff moving the token on u to its neighbour v keeps the token
    set independent: v is free and no neighbour of v but u holds a token."""
    if u not in occupied or v in occupied or v not in adj[u]:
        return False
    return all(w == u or w not in occupied for w in adj[v])


def slide_walk(adj, tokens, proposals, rng):
    """Random walk of legal slides from tokens.

    Each of `proposals` steps picks a token and one of its neighbours and
    slides it there when the slide is legal.  Returns (final tokens, list of
    (u, v) slides made).
    """
    occupied = set(tokens)
    order = list(tokens)  # position i holds the i-th token
    moves = []
    if not order:
        return [], moves
    for _ in range(proposals):
        i = rng.below(len(order))
        u = order[i]
        if not adj[u]:
            continue
        v = adj[u][rng.below(len(adj[u]))]
        if not slide_is_legal(adj, occupied, u, v):
            continue
        occupied.remove(u)
        occupied.add(v)
        order[i] = v
        moves.append((u, v))
    return sorted(occupied), moves


def render(n, edges, source, target):
    """Instance text in blockslide's format, 1-based ids."""
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    lines.append(" ".join(["s"] + [str(v + 1) for v in source]))
    lines.append(" ".join(["t"] + [str(v + 1) for v in target]))
    return "\n".join(lines) + "\n"


def _walked_instance(gb, source, rng):
    target, _ = slide_walk(gb.adj, source, 2 * gb.n, rng)
    return render(gb.n, gb.edges, sorted(source), target)


# --- workloads ---------------------------------------------------------------

def ladder_instance(seed, shape, n, variant=0):
    """Text of one instance of a ladder rung: about n/4 tokens and a walk
    target.  Variants are further instances of the same rung."""
    rng = rng_for(seed, "ladder", shape, n, variant)
    gb = SHAPES[shape](n, rng)
    source = greedy_independent_set(gb.adj, range(gb.n), max(1, gb.n // 4), rng)
    return _walked_instance(gb, source, rng)


def dense_instance(seed, index):
    """Chain (even index) or tree (odd index) of cliques K30..K120 whose
    edge count is at most DENSE_EDGE_BUDGETS[index] and within one K30 of it;
    three to five tokens.

    The clique sizes depend on the index alone, so an instance's size does
    not vary between seeds; the seed draws the gluing, tokens and walk.
    """
    rng = rng_for(seed, "dense", index)
    sizes = rng_for(0, "dense-sizes", index)
    budget = DENSE_EDGE_BUDGETS[index]
    gb = AdjacencyGraph()
    clique = []
    while True:
        room = budget - len(gb.edges)
        size = sizes.randint(30, 120)
        while size * (size - 1) // 2 > room and size > 30:
            size -= 1
        if size * (size - 1) // 2 > room:
            break
        if gb.n == 0:
            clique = gb.add_vertices(size)
        else:
            glue_from = clique if index % 2 == 0 else range(gb.n)
            glue = glue_from[rng.below(len(glue_from))]
            clique = [glue] + gb.add_vertices(size - 1)
        gb.add_clique(clique)
    source = greedy_independent_set(gb.adj, range(gb.n), rng.randint(3, 5), rng)
    return _walked_instance(gb, source, rng)


def forest_instance(seed, index):
    """Disjoint union of FOREST_COMPONENTS[index] block graphs of 6 to 12
    vertices (cliques K2..K4), each holding at least one token.

    The component sizes depend on the index alone; the seed draws each
    component's blocks, tokens and walk.
    """
    rng = rng_for(seed, "forest", index)
    sizes = rng_for(0, "forest-sizes", index)
    gb = AdjacencyGraph()
    source = []
    for _ in range(FOREST_COMPONENTS[index]):
        comp = grow_blocks(gb, sizes.randint(6, FOREST_MAX_VERTICES), rng, 2, 4)
        k = rng.randint(1, max(1, len(comp) // 4))
        source.extend(greedy_independent_set(gb.adj, comp, k, rng))
    return _walked_instance(gb, source, rng)


def oracle_instances(count=200):
    """Fixed fuzz-sized instances (at most 12 vertices) whose source and
    target are drawn independently, so that some answers are NO.

    Even entries are block graphs of cliques K2..K4 with up to 4 tokens, as
    in blockslide's fuzz corpus.  Odd entries are trees holding a little more
    than half as many tokens as a greedy maximal packing; frozen tokens, and
    so NO answers, are most common there.  The list is the same in every
    run; the answer comes from the oracle.
    """
    out = []
    for i in range(count):
        rng = rng_for(0, "oracle", i)
        gb = AdjacencyGraph()
        if i % 2 == 0:
            grow_blocks(gb, rng.randint(2, FOREST_MAX_VERTICES), rng, 2, 4)
            k = rng.randint(0, 4)
        else:
            grow_blocks(gb, rng.randint(2, FOREST_MAX_VERTICES), rng, 2, 2)
            packed = len(greedy_independent_set(gb.adj, range(gb.n), gb.n, rng))
            k = (packed + 1) // 2 + (packed > 2)
        while True:
            source = greedy_independent_set(gb.adj, range(gb.n), k, rng)
            target = greedy_independent_set(gb.adj, range(gb.n), k, rng)
            if len(source) == len(target) == k:
                break
            k -= 1
        out.append(render(gb.n, gb.edges, sorted(source), sorted(target)))
    return out


def group_of(instance_id):
    """Group of a pool instance id: the ladder shape, or the workload."""
    return instance_id.rsplit("-", 1)[0]


def pool(workload, seed, traced=False):
    """The fixed round-robin pool of a workload, as (instance id, text).

    An id is `<group>-<index>`: the group is the ladder shape, or the
    workload.  The ladder's pool holds LADDER_POOL_VARIANTS instances of
    every shape at LADDER_POOL_N vertices, and with traced=True
    LADDER_TRACE_VARIANTS instances of every shape at the bottom rung; its
    climb is generated rung by rung with ladder_instance.
    """
    if workload == "ladder":
        n, variants = ((LADDER_RUNGS[0], LADDER_TRACE_VARIANTS) if traced
                       else (LADDER_POOL_N, LADDER_POOL_VARIANTS))
        return [
            (f"{shape}-{variant}", ladder_instance(seed, shape, n, variant))
            for shape in LADDER_SHAPES
            for variant in range(variants)
        ]
    if workload == "dense":
        return [(f"dense-{i}", dense_instance(seed, i)) for i in range(len(DENSE_EDGE_BUDGETS))]
    if workload == "forest":
        return [(f"forest-{i}", forest_instance(seed, i)) for i in range(len(FOREST_COMPONENTS))]
    raise ValueError(f"unknown workload {workload!r}")
