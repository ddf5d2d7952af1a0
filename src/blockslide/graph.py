"""Simple undirected graphs and independent token placements.

Vertices are dense integer ids 0..n-1.  Any 1-based external labelling is
translated at the I/O boundary (see blockslide.instance).  Both Graph and
TokenSet are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter

from .errors import (
    DuplicateEdgeError,
    InternalError,
    NotIndependentError,
    SelfLoopError,
    VertexOutOfRangeError,
)


_first = itemgetter(0)


class Graph:
    """Immutable simple undirected graph with array-indexed adjacency.

    adjacency[u] is the sorted tuple of u's neighbours and m the edge
    count; the edge set is derived from adjacency only when read.
    _blocks holds the canonically sorted member tuples of the blocks, which
    blockslide.blocks builds on the first decomposition and every later one
    reads: int tuples only, so the cache refers back to nothing.  The same
    search fills _component, per vertex the index of its connected
    component in order of least vertex.
    """

    __slots__ = ("n", "m", "adjacency", "_edges", "_blocks", "_component")

    def __init__(self, n, edge_list):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if not hasattr(edge_list, "__len__"):
            # Counted, and read a second time if a bulk check fails.
            edge_list = list(edge_list)
        self.n = n
        # One append loop with no check in it, into a list per vertex; or,
        # with fewer edges than n/2, into a list per vertex with an edge
        # only, so that isolated vertices cost no list and share ().
        sparse = 2 * len(edge_list) < n
        rows = defaultdict(list) if sparse else [[] for _ in range(n)]
        try:
            for u, v in edge_list:
                rows[u].append(v)
                rows[v].append(u)
        except IndexError:  # an id of n or more
            raise _first_fault(n, edge_list) from None
        if sparse:
            if rows and (min(rows) < 0 or max(rows) >= n):
                raise _first_fault(n, edge_list)
            adjacency = [()] * n
            for v, row in rows.items():
                row.sort()
                adjacency[v] = tuple(row)
        else:
            for row in rows:
                row.sort()
            adjacency = tuple(map(tuple, rows))
        del rows
        # Checked in bulk: a negative id is some vertex's least neighbour,
        # and a self-loop or a repeated edge puts a vertex twice in a row.
        linked = list(filter(None, adjacency))
        ends = sum(map(len, linked))
        if linked and (
            min(map(_first, linked)) < 0 or ends != sum(map(len, map(set, linked)))
        ):
            raise _first_fault(n, edge_list)
        self.m = ends // 2
        self.adjacency = tuple(adjacency)
        self._edges = self._blocks = self._component = None

    @property
    def edges(self):
        """Frozenset of the edges as (u, v) with u < v, built on first use."""
        if self._edges is None:
            self._edges = frozenset(
                (u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v
            )
        return self._edges

    def _check_vertex(self, u):
        if not (0 <= u < self.n):
            raise VertexOutOfRangeError(u, self.n)

    def induced(self, vertices):
        """Induced subgraph on `vertices`.

        Returns (subgraph, to_sub, to_orig) where to_sub maps original ids to
        subgraph ids and to_orig is the inverse (a list).
        """
        to_orig = sorted(set(vertices))
        for u in to_orig:
            self._check_vertex(u)
        to_sub = {u: i for i, u in enumerate(to_orig)}
        sub_edges = [
            (i, to_sub[v])
            for i, u in enumerate(to_orig)
            for v in self.adjacency[u]
            if u < v and v in to_sub
        ]
        return Graph(len(to_orig), sub_edges), to_sub, to_orig

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _first_fault(n, edge_list):
    """The error of the first faulty edge in edge order: an endpoint out
    of 0..n-1, a self-loop, or an edge given before in either orientation.
    Run only once the bulk checks have found a fault."""
    seen = set()  # u * n + v for each edge (u, v) with u < v
    for u, v in edge_list:
        if not (0 <= u < n):
            return VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            return VertexOutOfRangeError(v, n)
        if u == v:
            return SelfLoopError(u)
        key = u * n + v if u < v else v * n + u
        if key in seen:
            return DuplicateEdgeError(*divmod(key, n))
        seen.add(key)
    return InternalError("bulk edge check failed on no edge")


class TokenSet:
    """An independent set of a host graph, i.e. a legal token placement.

    Stores the sorted vertex tuple, which also serves iteration, equality
    and hashing, plus a frozenset of the same vertices for O(1) membership.
    Both are linear in the number of tokens, whatever the size of the graph.
    graph is the graph the set was checked on: independence in one graph
    says nothing about another.
    """

    __slots__ = ("vertices", "_members", "graph")

    def __init__(self, graph, vertices, which="set"):
        vs = sorted(set(vertices))
        for v in vs:
            graph._check_vertex(v)
        members = frozenset(vs)
        for v in vs:
            if not members.isdisjoint(graph.adjacency[v]):
                raise NotIndependentError(which)
        self.vertices = tuple(vs)
        self._members = members
        self.graph = graph

    def __contains__(self, v):
        return v in self._members

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        return isinstance(other, TokenSet) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"TokenSet({list(self.vertices)})"


def connected_components(g, without=(), within=None):
    """Partition of the vertices of g not in `without` into the maximal
    connected vertex sets of g minus `without`, ordered by minimum vertex
    id.  Given `within`, a union of components of g, only its vertices
    are searched, at a cost linear in its size rather than in g's."""
    seen = set(without)
    components = []
    for start in range(g.n) if within is None else sorted(within):
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        stack = [start]
        while stack:
            row = g.adjacency[stack.pop()]
            if seen.issuperset(row):  # in a clique, every row but the first
                continue
            for v in row:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        components.append(frozenset(comp))
    return components
