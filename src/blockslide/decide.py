"""Rigid cut vertices and the top-level reconfigurability verdict.

A cut vertex is rigid for a token set when two of its incident sides both
have potential 0 and ua True; a rigid vertex can never receive a token.
Two token sets on a block graph, connected or not, are inter-reachable
exactly when their rigid sets coincide and, after removing the rigid
vertices, every remaining component holds the same number of tokens from
each set.

Only a component holding two tokens or more can have a rigid vertex, so
decide builds the pair index and runs the passes over those components'
blocks alone.  The potentials are at least 0 and satisfy the (B,u)
equation, so

    y(B,u) = sum of y(v,B) over v in kappa(B,u) + ua(B,u) - tokens of B but u
           >= ua(B,u) - tokens of B but u.

A side (B,u) at potential 0 with ua True therefore holds a token of B
other than u.  A rigid vertex u has two such sides (B,u) and (B',u), and
B and B' share no vertex but u, so its component holds two tokens.  A
component with one token has no rigid vertex and stays one part, which
holds its one token of each set: it is reachable, as one with none is.

The decision is read from integer labels alone: the component label of
each vertex and the tree nodes of the pair index.  Removing the rigid
vertices cuts the block-cut tree at their nodes, so the parts of a
component are the pieces of its tree between them, and each token is
counted in the piece of its node.  No vertex set is built.  The verdict's
details, the vertex sets in the caller's ids, are built on first read:
each component with tokens from its blocks, and its parts by a graph
search over the graph minus the rigid vertices, which does not use the
tree.  That search must stop at the component and reason the labels
gave, or the read raises InternalError, so every read of the details
cross-checks the decision.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

from .blocks import decompose, is_block_graph
from .errors import InternalError, NotABlockGraphError
from .graph import TokenSet, connected_components
# compute_depths is unused here; perfbench/tracer.py wraps it by this name.
from .invariants import compute_depths, compute_ua
from .potential import compute_potentials


class Reason(Enum):
    UNEQUAL_SIZE = "unequal-size"
    RIGID_MISMATCH = "rigid-mismatch"
    COMPONENT_COUNT_MISMATCH = "component-count-mismatch"
    REACHABLE = "reachable"


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer, the reason that decided it, and one flat details
    mapping in the caller's vertex ids; components and parts are
    frozensets.

    - UNEQUAL_SIZE: {"sizes": (k1, k2)} when the totals differ, else
      {"component": comp, "counts": (a, b)} for the first component, in
      order of least vertex, whose counts differ.
    - Any other reason: {"rigid_source": R1, "rigid_target": R2,
      "component_counts": [(part, a, b), ...]}, the rigid sets of the whole
      graph and each set's tokens per part after removing R1, for the
      components holding tokens in order of least vertex.  A NO stops the
      list after the component that decided it, which it adds as
      "component"; a RIGID_MISMATCH component lists no parts.

    decide reaches reachable and reason from integer labels, and gives
    details as a read-only mapping that builds this dict on first read
    (see the module docstring); it compares equal to the dict and has its
    repr.
    """

    reachable: bool
    reason: Reason
    details: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.reachable != (self.reason is Reason.REACHABLE):
            raise InternalError(
                f"verdict reachable={self.reachable} with reason {self.reason}"
            )


class _Details(Mapping):
    """A read-only mapping holding the dict build() returns, called on the
    first read; build and what it refers to are dropped then."""

    __slots__ = ("_build", "_dict")

    def __init__(self, build):
        self._build = build
        self._dict = None

    def _read(self):
        if self._dict is None:
            self._dict = self._build()
            self._build = None
        return self._dict

    def __getitem__(self, key):
        return self._read()[key]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())

    def __repr__(self):
        return repr(self._read())


def rigid_vertices(bd, ua, pot):
    """Cut vertices with two incident (B,u) sides at potential 0, ua True:
    the nodes x whose count pot.zeros[x] of such sides the fixed point ends
    with at two or more, which only cut vertices' nodes reach."""
    ix = bd.index()
    ua, y = ua.array, pot.array
    rigid = []
    for x, zeros in enumerate(pot.zeros):
        if zeros < 2:
            continue
        # into[x] holds the (B,u) pairs of u, and q ^ 1 is (u,B); rigidity
        # forces every outward side of u to ua True / potential 0
        sides = ix.into[x]
        u = ix.base[sides[0]]
        if not all(ua[q ^ 1] and y[q ^ 1] == 0 for q in sides):
            raise InternalError(f"rigid vertex {u} violates ua/pot")
        rigid.append(u)
    return frozenset(rigid)


def _first_failure(bd, c1, c2, w1, w2):
    """(reason, component index) of the least component, in order of least
    vertex, that is not reachable, or (REACHABLE, None), given the rigid
    sets w1, w2 on the pruned decomposition bd.

    The components whose rigid sets differ are the labels of w1 ^ w2.
    Below the least of them, each component with rigid vertices is cut at
    their nodes of bd's block-cut tree: a search through into[x] from the
    nodes next to a rigid node, entering no rigid node, numbers the pieces,
    and each token adds +1 (c1) or -1 (c2) to the piece of its node, the
    cut vertex's own or its one block's.  A piece whose sum is not 0 is a
    part whose counts differ.  A rigid vertex with no cut node in bd cuts
    nothing here; the details' graph search would then disagree.
    """
    for w, c, which in ((w1, c1, "source"), (w2, c2, "target")):
        if not w.isdisjoint(c._members):
            raise InternalError(
                f"{which} token on its own rigid vertex {min(w & c._members)}"
            )
    label = bd.component
    first = min({label[u] for u in w1 ^ w2}, default=None)
    ix = bd.index()
    node_of, into, node = ix.node_of, ix.into, ix.node
    nblocks = len(bd.members)
    part = [-1] * len(into)  # per node, its piece; -2 on a rigid node
    roots = []  # (node, component) of each rigid vertex that cuts
    for u in w1:
        x = node_of[u]
        if x >= nblocks and (first is None or label[u] < first):
            part[x] = -2
            roots.append((x, label[u]))
    owner = []  # per piece, its component
    for x, i in roots:
        for q in into[x]:
            y = node[q]
            if part[y] != -1:
                continue
            k = part[y] = len(owner)
            owner.append(i)
            stack = [y]
            while stack:
                for r in into[stack.pop()]:
                    z = node[r]
                    if part[z] == -1:
                        part[z] = k
                        stack.append(z)
    if owner:
        cut = {i for _, i in roots}
        sums = [0] * len(owner)
        for c, step in ((c1, 1), (c2, -1)):
            for v in c:
                if label[v] in cut:
                    sums[part[node_of[v]]] += step
        uneven = [i for i, s in zip(owner, sums) if s]
        if uneven:
            return Reason.COMPONENT_COUNT_MISMATCH, min(uneven)
    if first is not None:
        return Reason.RIGID_MISMATCH, first
    return Reason.REACHABLE, None


def _parts_after(g, comp, rigid, c1, c2):
    """(part, tokens of c1 in it, tokens of c2 in it) per component of the
    component comp of g minus its rigid vertices, in order of least
    vertex; the search stays inside comp.  Each count is one frozenset
    intersection, which iterates the smaller of the part and the tokens."""
    m1, m2 = c1._members, c2._members
    return [
        (part, len(part & m1), len(part & m2))
        for part in connected_components(g, rigid, within=comp)
    ]


def _unequal_details(g, i, counts):
    """The details of a verdict on per-component counts that differ first
    in component i."""
    return {"component": decompose(g).components({i})[i], "counts": counts}


def _explain(g, c1, c2, w1, w2, counts, decided):
    """The details of a verdict on equal per-component counts, built with
    the vertex sets of the components with tokens and a graph search in
    each one with rigid vertices.  The search stops at the first of them,
    in order of least vertex, that is not reachable, which must be
    decided, the (reason, component index) the labels gave."""
    comps = decompose(g).components(counts)
    details = {"rigid_source": w1, "rigid_target": w2, "component_counts": []}
    found = Reason.REACHABLE, None
    for i in sorted(counts):
        comp = comps[i]
        rigid = w1 & comp
        if rigid != w2 & comp:
            found = Reason.RIGID_MISMATCH, i
        else:
            # Only a component holding a rigid vertex splits; any other is
            # its own one part.
            parts = _parts_after(g, comp, rigid, c1, c2) if rigid else [(comp, counts[i], counts[i])]
            details["component_counts"] += parts
            if all(a == b for _, a, b in parts):
                continue
            found = Reason.COMPONENT_COUNT_MISMATCH, i
        details["component"] = comp
        break
    if found != decided:
        (why, i), (want, j) = found, decided
        raise InternalError(
            f"the graph search stops at {why.value} in component {i},"
            f" the labels at {want.value} in component {j}"
        )
    return details


def decide_connected(g, bd, c1, c2):
    """Verdict for two same-size token sets on a block graph g, connected
    or not, with bd = decompose(g).

    A component's verdict never depends on another component.  The tokens
    are counted per component from the component labels of the block DFS,
    before any pair index exists; unequal counts give UNEQUAL_SIZE.  ua,
    potentials and rigid sets are then each taken once, over the
    block-cut trees of the components holding two tokens or more (see the
    module docstring).  The first component with tokens, in order of least
    vertex, that is not reachable gives the reason, read off the labels by
    _first_failure; the details are built only when read.
    """
    if len(c1) != len(c2):
        raise ValueError("decide_connected requires equal-size token sets")
    label = bd.component
    n1, n2 = {}, {}  # per index of a component holding tokens, their number
    for counts, c in ((n1, c1), (n2, c2)):
        for v in c:
            counts[label[v]] = counts.get(label[v], 0) + 1
    if n1 != n2:
        i = min(i for i in n1.keys() | n2.keys() if n1.get(i) != n2.get(i))
        details = partial(_unequal_details, g, i, (n1.get(i, 0), n2.get(i, 0)))
        return Verdict(False, Reason.UNEQUAL_SIZE, _Details(details))
    kept = {i for i, k in n1.items() if k > 1}
    w1 = w2 = frozenset()
    decided = Reason.REACHABLE, None
    if kept:
        pruned = bd.within(kept)
        t1 = [v for v in c1 if label[v] in kept]
        t2 = [v for v in c2 if label[v] in kept]
        ua = compute_ua(pruned)
        w1 = rigid_vertices(pruned, ua, compute_potentials(pruned, ua, t1))
        w2 = rigid_vertices(pruned, ua, compute_potentials(pruned, ua, t2))
        if w1 or w2:
            decided = _first_failure(pruned, c1, c2, w1, w2)
    details = partial(_explain, g, c1, c2, w1, w2, n1, decided)
    reason = decided[0]
    return Verdict(reason is Reason.REACHABLE, reason, _Details(details))


def decide(g, c1, c2):
    """Top-level yes/no decision on an arbitrary block graph.

    c1 and c2 are TokenSets or iterables of vertices, each read once.
    Validates the block-graph property and independence, short-circuits on
    unequal token counts, and decides every component with decide_connected.
    A TokenSet checked on another graph than g is checked again on g.
    """
    if not is_block_graph(g):
        raise NotABlockGraphError("input graph has a non-clique block")
    if not isinstance(c1, TokenSet) or c1.graph is not g:
        c1 = TokenSet(g, c1, which="source")
    if not isinstance(c2, TokenSet) or c2.graph is not g:
        c2 = TokenSet(g, c2, which="target")

    if len(c1) != len(c2):
        sizes = partial(dict, sizes=(len(c1), len(c2)))
        return Verdict(False, Reason.UNEQUAL_SIZE, _Details(sizes))
    return decide_connected(g, decompose(g), c1, c2)
