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
counted in the piece of its node.  The verdict's certificate is read off
the same labels and tables: only the one component, part or pair of
sides it names is turned into vertex ids, and no graph search runs.
fuzz.evaluate_instance checks each certificate against the oracle and a
graph search, an algorithm independent of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .blocks import decompose, is_block_graph
from .errors import InternalError, NotABlockGraphError
# connected_components and compute_depths are unused: perfbench/tracer.py wraps them by name.
from .graph import TokenSet, connected_components
from .invariants import compute_depths, compute_ua
from .potential import compute_potentials


class Reason(Enum):
    UNEQUAL_SIZE = "unequal-size"
    RIGID_MISMATCH = "rigid-mismatch"
    COMPONENT_COUNT_MISMATCH = "component-count-mismatch"
    REACHABLE = "reachable"


@dataclass(frozen=True)
class UnequalSize:
    """The first component, in order of least vertex, whose (source,
    target) token counts differ."""

    component: tuple
    counts: tuple


@dataclass(frozen=True)
class RigidMismatch:
    """The least vertex rigid for one set only, rigid_for, in the first
    component whose rigid sets differ, and two of its sides (B,u) at
    potential 0 with ua True in that set's potentials, each given as
    (members of B, u): the first two in canonical order."""

    vertex: int
    rigid_for: str
    sides: tuple


@dataclass(frozen=True)
class CountMismatch:
    """A part of G - R whose (source, target) token counts differ: in the
    first component holding one, the one with the least vertex."""

    part: tuple
    counts: tuple


@dataclass(frozen=True)
class Reachable:
    """The common rigid set R, and the number of parts of G - R in the
    components holding tokens."""

    rigid: tuple
    parts: int


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer, the reason that decided it, and its certificate,
    one record per reason: UnequalSize, RigidMismatch, CountMismatch or
    Reachable.  A certificate names vertices by the caller's ids and
    holds sorted tuples, never frozensets, so its repr does not depend on
    how a set was built.  It is built with the verdict, from the labels
    and tables decide already holds, and holds no graph or token set."""

    reachable: bool
    reason: Reason
    certificate: object = None

    def __post_init__(self):
        if self.reachable != (self.reason is Reason.REACHABLE):
            raise InternalError(
                f"verdict reachable={self.reachable} with reason {self.reason}"
            )


def rigid_vertices(bd, ua, pot):
    """Cut vertices with two incident (B,u) sides at potential 0, ua True:
    the nodes x whose count pot.zeros[x] of such sides the fixed point ends
    with at two or more, which only cut vertices' nodes reach."""
    ix = bd.index()
    ua, y, last, nblocks = ua.array, pot.array, ix.last, len(bd.members)
    rigid = []
    for x, zeros in enumerate(pot.zeros):
        if zeros < 2:
            continue
        # into[x] holds the (B,u) pairs of u, and last - q is (u,B);
        # rigidity forces every outward side of u to ua True / potential 0
        sides = ix.into[x]
        u = ix.cuts[x - nblocks]
        if not all(ua[last - q] and y[last - q] == 0 for q in sides):
            raise InternalError(f"rigid vertex {u} violates ua/pot")
        rigid.append(u)
    return frozenset(rigid)


def _first_failure(bd, ua, pots, c1, c2, with_tokens):
    """The verdict on the pruned decomposition bd, given ua, both sets'
    potentials and the number of components holding tokens: the least
    component, in order of least vertex, that is not reachable decides.
    With no rigid vertex, each component holding tokens is one part.

    The components whose rigid sets differ are the labels of w1 ^ w2.
    Below the least of them, each component with rigid vertices is cut at
    their nodes of bd's block-cut tree: a search through into[x] from the
    nodes next to a rigid node, entering no rigid node, numbers the pieces,
    and each token is counted in the piece of its node, the cut vertex's
    own or its one block's.  A piece whose two counts differ is a part
    whose counts differ.  A piece is the part of G - R made of its block
    nodes' vertices that are not rigid; it starts from a block, and holds
    no vertex only when all of that block's members are rigid.  A rigid
    vertex with no cut node in bd cuts nothing here.
    """
    w1, w2 = (rigid_vertices(bd, ua, pot) for pot in pots)
    if not (w1 or w2):
        return Verdict(True, Reason.REACHABLE, Reachable((), with_tokens))
    for w, c, which in ((w1, c1, "source"), (w2, c2, "target")):
        if not w.isdisjoint(c._members):
            raise InternalError(
                f"{which} token on its own rigid vertex {min(w & c._members)}"
            )
    label = bd.component
    first = min({label[u] for u in w1 ^ w2}, default=None)
    ix = bd.index()
    node_of, into, node = ix.node_of, ix.into, ix.node
    members = bd.members
    part = [-1] * len(into)  # per node, its piece; -2 on a rigid node
    roots = []  # (node, component) of each rigid vertex that cuts
    for u in w1:
        x = node_of[u]
        if x >= len(members) and (first is None or label[u] < first):
            part[x] = -2
            roots.append((x, label[u]))
    owner = []  # per piece, its component
    empty = 0  # pieces holding no vertex
    for x, i in roots:
        for q in into[x]:
            y = node[q]
            if part[y] != -1:
                continue
            k = part[y] = len(owner)
            owner.append(i)
            empty += w1.issuperset(members[y])
            stack = [y]
            while stack:
                for r in into[stack.pop()]:
                    z = node[r]
                    if part[z] == -1:
                        part[z] = k
                        stack.append(z)
    cut = {i for _, i in roots}
    counts = [[0] * len(owner), [0] * len(owner)]  # per set, per piece
    for c, count in zip((c1, c2), counts):
        for v in c:
            if label[v] in cut:
                count[part[node_of[v]]] += 1
    uneven = [k for k, (a, b) in enumerate(zip(*counts)) if a != b]
    if uneven:
        i = min(owner[k] for k in uneven)
        vertices = {k: set() for k in uneven if owner[k] == i}
        for x, b in enumerate(members):
            if part[x] in vertices:
                vertices[part[x]].update(b)
        k = min(vertices, key=lambda k: min(vertices[k] - w1))
        found = CountMismatch(tuple(sorted(vertices[k] - w1)), (counts[0][k], counts[1][k]))
        return Verdict(False, Reason.COMPONENT_COUNT_MISMATCH, found)
    if first is not None:
        u = min(u for u in w1 ^ w2 if label[u] == first)
        which = 0 if u in w1 else 1
        y, a = pots[which].array, ua.array
        sides = [(members[node[q]], u) for q in into[node_of[u]] if a[q] and y[q] == 0]
        found = RigidMismatch(u, ("source", "target")[which], tuple(sides[:2]))
        return Verdict(False, Reason.RIGID_MISMATCH, found)
    found = Reachable(tuple(sorted(w1)), with_tokens - len(cut) + len(owner) - empty)
    return Verdict(True, Reason.REACHABLE, found)


def decide_connected(bd, c1, c2):
    """Verdict for two token sets on a block graph, connected or not, with
    bd its decomposition.

    A component's verdict never depends on another component.  The tokens
    are counted per component from the component labels of the block DFS,
    before any pair index exists; counts that differ, as unequal totals
    do, give UNEQUAL_SIZE.  ua and potentials are then each taken once,
    over the block-cut trees of the components holding two tokens or more
    (see the module docstring), and _first_failure reads the verdict off
    the labels.
    """
    label = bd.component
    n1, n2 = {}, {}  # per index of a component holding tokens, their number
    for counts, c in ((n1, c1), (n2, c2)):
        for v in c:
            counts[label[v]] = counts.get(label[v], 0) + 1
    if n1 != n2:
        i = min(i for i in n1.keys() | n2.keys() if n1.get(i) != n2.get(i))
        comp = tuple(v for v, j in enumerate(label) if j == i)
        found = UnequalSize(comp, (n1.get(i, 0), n2.get(i, 0)))
        return Verdict(False, Reason.UNEQUAL_SIZE, found)
    kept = {i for i, k in n1.items() if k > 1}
    if not kept:
        return Verdict(True, Reason.REACHABLE, Reachable((), len(n1)))
    pruned = bd.within(kept)
    ua = compute_ua(pruned)
    pots = [
        compute_potentials(pruned, ua, [v for v in c if label[v] in kept])
        for c in (c1, c2)
    ]
    return _first_failure(pruned, ua, pots, c1, c2, len(n1))


def decide(g, c1, c2):
    """Top-level yes/no decision on an arbitrary block graph.

    c1 and c2 are TokenSets or iterables of vertices, each read once.
    Validates the block-graph property and independence, and decides every
    component with decide_connected.  A TokenSet checked on another graph
    than g is checked again on g.
    """
    if not is_block_graph(g):
        raise NotABlockGraphError("input graph has a non-clique block")
    if not isinstance(c1, TokenSet) or c1.graph is not g:
        c1 = TokenSet(g, c1, which="source")
    if not isinstance(c2, TokenSet) or c2.graph is not g:
        c2 = TokenSet(g, c2, which="target")
    return decide_connected(decompose(g), c1, c2)
