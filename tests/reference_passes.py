"""The per-node re-summing passes for depth, ua and capacity, kept as a
reference.

Each pass walks the canonical pair index of reference_blocks in its rooted
order and, at the first pair of every node, sums the node's whole into[x]
list again: the two largest depths, the count of ua pairs, or the sum of
cap (of cap - ua and the count of pairs with cap = 0 and ua at a cut
vertex).  reference_totals takes the same sums once per node over the
finished capacities, as the fixed point's start did.  reference_rigid
counts each cut vertex's zero sides again over its list, where
rigid_vertices reads the fixed point's running counts.  The running-total
passes of blockslide must return the same lists and sets.

reference_sweep is the potentials' starting sweep, which sums each node's
list again at its first pair, as the capacity reference does.
reference_potentials is the fixed point's worklist seeded with every pair
in the rooted order, started from the constants summed afresh per block and
from reference_sweep, and reference_short_pairs lists the pairs that lie
below their equation, each summed afresh; compute_potentials seeds only
the pairs the sweep can leave short, and must reach the same potentials,
zeros and iteration_count.  reference_capacity_potentials is the same
worklist started from reference_capacities, the start the fixed point had
before the sweep; its iteration_count bounds the sweep-started one.
reference_constants lists each pair's constant term, counting the tokens
of each block afresh, where blockslide reads them from one mark per block.

The reference numbers pairs canonically, pair 2k (B,u) and 2k+1 its
reverse, and blockslide by rooted position.  Every function here takes and
returns lists by blockslide's pair ids, of a decomposition of a whole
graph, and converts them through the reference's rooted order: the pair
with id i is the reference's pair order[i].  Nodes are numbered alike.
"""

from functools import lru_cache

from blockslide import InternalError
from blockslide.potential import Potentials
from reference_blocks import ReferenceDecomposition


@lru_cache(maxsize=4)
def _reference(graph):
    return ReferenceDecomposition(graph)


def _canonical(bd, *lists):
    """The reference index of bd's graph, and each list by pair id read
    into one by the reference's canonical pair id."""
    ref = _reference(bd.graph)
    if len(ref.blocks) != len(bd.members):
        raise ValueError("the reference covers whole graphs only")
    converted = []
    for values in lists:
        out = [None] * len(values)
        for i, p in enumerate(ref.order):
            out[p] = values[i]
        converted.append(out)
    return (ref, *converted)


def _by_id(ref, values):
    """A list by canonical pair id, read into one by blockslide's id."""
    return [values[p] for p in ref.order]


def _depths(ref):
    node, into = ref.node, ref.into
    d = [-1] * len(node)  # -1 is below every depth, so it adds nothing
    last = -1
    for p in ref.order:
        x = node[p]
        if x != last:
            last = x
            top = second = -1  # the two largest depths at x, with repeats
            for v in map(d.__getitem__, into[x]):
                if v > top:
                    top, second = v, top
                elif v > second:
                    second = v
        d[p] = 1 + (second if d[p ^ 1] == top else top)
    return d


def reference_depths(bd):
    """d(p) per pair id."""
    ref = _reference(bd.graph)
    return _by_id(ref, _depths(ref))


def reference_ua(bd, d):
    """ua(p) per pair id, from the depth list d."""
    ref, d = _canonical(bd, d)
    node, into = ref.node, ref.into
    # a block made only of cut vertices: kappa(B,u) | {u} == B
    all_cuts = [len(into[b]) == len(members) for b, members in enumerate(ref.blocks)]
    ua = [False] * len(node)
    last = -1
    for p in ref.order:
        x = node[p]
        if x != last:
            last = x
            true_count = sum(map(ua.__getitem__, into[x]))
        if d[p] == 0:
            ua[p] = True
            continue
        inner = true_count - ua[p ^ 1]
        ua[p] = inner > 0 if p & 1 else not (inner == len(into[x]) - 1 and all_cuts[x])
    return _by_id(ref, ua)


def _capacities(ref, ua, const):
    node, into = ref.node, ref.into
    cap = [0] * len(node)
    last = -1
    for p in ref.order:
        x, r = node[p], p ^ 1
        if x != last:
            last = x
            qs = into[x]
            total = sum(map(cap.__getitem__, qs))
            if p & 1:
                if len(qs) < 2:
                    raise InternalError(f"beta is empty at pair id {ref.pos[p]}")
                total -= sum(map(ua.__getitem__, qs))
                zeros = sum([1 for q in qs if cap[q] == 0 and ua[q]])
        if not p & 1:
            value = total - cap[r] + const[p]
        elif zeros - (cap[r] == 0 and ua[r]):
            value = 0
        else:
            value = total - (cap[r] - ua[r]) + const[p]
        if value < 0:
            raise InternalError(f"negative capacity at pair id {ref.pos[p]}")
        cap[p] = value
    return cap


def _sweep(ref, ua, const):
    node, into = ref.node, ref.into
    y = [0] * len(node)  # unset pairs count as 0
    last = -1
    for p in ref.order:
        x, r = node[p], p ^ 1
        if x != last:
            last = x
            qs = into[x]
            total = sum(map(y.__getitem__, qs))
            if p & 1:
                if len(qs) < 2:
                    raise InternalError(f"beta is empty at pair id {ref.pos[p]}")
                total -= sum(map(ua.__getitem__, qs))
                zeros = sum([1 for q in qs if y[q] == 0 and ua[q]])
        if not p & 1:
            value = total - y[r] + const[p]
        elif zeros >= 2:
            value = 0
        else:
            value = total - (y[r] - ua[r]) + const[p]
        if value < 0:
            raise InternalError(f"negative sweep value at pair id {ref.pos[p]}")
        y[p] = value
    return y


def reference_capacities(bd, ua, const):
    """cap(C[p]) per pair id, from the ua list and the constants of C."""
    ref, ua, const = _canonical(bd, ua, const)
    return _by_id(ref, _capacities(ref, ua, const))


def reference_sweep(bd, ua, const):
    """The potentials' starting sweep per pair id, from the ua list and the
    constants of C."""
    ref, ua, const = _canonical(bd, ua, const)
    return _by_id(ref, _sweep(ref, ua, const))


def _totals(ref, ua, y):
    into = ref.into
    nblocks = len(ref.blocks)
    total = [sum(map(y.__getitem__, qs)) for qs in into[:nblocks]]
    total += [
        sum(map(y.__getitem__, qs)) - sum(map(ua.__getitem__, qs))
        for qs in into[nblocks:]
    ]
    zeros = [0] * nblocks
    zeros += [sum([1 for q in qs if y[q] == 0 and ua[q]]) for qs in into[nblocks:]]
    return total, zeros


def reference_totals(bd, ua, y):
    """Per node x, over the pairs into[x]: for a block, the sum of y; for a
    cut vertex, the sum of y - ua.  And per node the count of pairs with
    y = 0 and ua, which is 0 for a block."""
    return _totals(*_canonical(bd, ua, y))


def reference_rigid(bd, ua, pot):
    """Cut vertices with two (B,u) sides at potential 0 and ua, counted
    again at every cut vertex over its into[x] list, from the ua and
    potential lists."""
    ref, ua, pot = _canonical(bd, ua, pot)
    rigid = []
    for sides in ref.into[len(ref.blocks):]:
        if sum(1 for q in sides if pot[q] == 0 and ua[q]) < 2:
            continue
        u = ref.base[sides[0]]
        # rigidity forces every outward side of u to ua True / potential 0
        if not all(ua[q ^ 1] and pot[q ^ 1] == 0 for q in sides):
            raise InternalError(f"rigid vertex {u} violates ua/pot")
        rigid.append(u)
    return frozenset(rigid)


def _constants(ref, ua, c):
    """Per canonical pair id: ua(p), minus for (B,u) the tokens of B other
    than u, counted afresh per block."""
    tokens = set(c)
    return [
        int(a) - (0 if p & 1 else sum(1 for v in ref.blocks[b] if v != u and v in tokens))
        for p, (a, u, b) in enumerate(zip(ua, ref.base, ref.block))
    ]


def reference_constants(bd, ua, c):
    """Per pair id: ua(p), minus for (B,u) the tokens of B other than u,
    from the ua list and the token set C."""
    ref, ua = _canonical(bd, ua)
    return _by_id(ref, _constants(ref, ua, c))


def _fixed_point(bd, ua, c, start):
    """The fixed point from start's values, with every pair queued in the
    rooted order at the start; ua is compute_ua's record."""
    ref, a = _canonical(bd, ua.array)
    node, into = ref.node, ref.into
    const = _constants(ref, a, c)
    y = start(ref, a, const)
    total, zeros = _totals(ref, a, y)
    pending = ref.order[::-1]
    queued = bytearray(b"\x01") * len(y)
    increases = 0
    while pending:
        p = pending.pop()
        queued[p] = 0
        x, r = node[p], p ^ 1
        if not p & 1:
            candidate = total[x] - y[r] + const[p]
        elif zeros[x] >= 2:
            continue
        else:
            candidate = total[x] - (y[r] - a[r]) + const[p]
        if candidate <= y[p]:
            continue
        increases += 1
        held = node[r]
        total[held] += candidate - y[p]
        if not p & 1 and y[p] == 0 and a[p]:
            zeros[held] -= 1
        y[p] = candidate
        for q in into[held]:
            q ^= 1
            if not queued[q]:
                queued[q] = 1
                pending.append(q)
    return Potentials(_by_id(ref, y), increases + 1, zeros)


def reference_potentials(bd, ua, c):
    """The fixed point from the sweep, every pair queued."""
    return _fixed_point(bd, ua, c, _sweep)


def reference_capacity_potentials(bd, ua, c):
    """The fixed point from the capacities, every pair queued."""
    return _fixed_point(bd, ua, c, _capacities)


def reference_short_pairs(bd, ua, const, y):
    """The pair ids p with y(p) below the right-hand side of p's potential
    equation, from the ua list, the constants of a token set and the
    per-pair list y, with every node's sums taken afresh."""
    ref, ua, const, y = _canonical(bd, ua, const, y)
    node = ref.node
    total, zeros = _totals(ref, ua, y)
    short = []
    for p, x in enumerate(node):
        r = p ^ 1
        if not p & 1:
            rhs = total[x] - y[r] + const[p]
        elif zeros[x] >= 2:
            continue
        else:
            rhs = total[x] - (y[r] - ua[r]) + const[p]
        if rhs > y[p]:
            short.append(ref.pos[p])
    return sorted(short)
