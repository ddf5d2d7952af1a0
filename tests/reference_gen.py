"""The token-set generator as it was, kept as a reference.

gen_independent_set stops each shuffled packing once it holds `size`
vertices, and gen_token_sets lowers the count one at a time, packing both
seeds' 16 restarts again at every count, so its work grows with the square
of the count it gives up.  blockslide.gen must return the same sets.
"""

from blockslide import SplitMix64, TokenSet


def reference_independent_set(seed, g, size, restarts=16):
    if size == 0:
        return TokenSet(g, [])
    rng = SplitMix64(seed)
    for _ in range(restarts):
        order = list(range(g.n))
        rng.shuffle(order)
        blocked = bytearray(g.n)
        chosen = []
        for v in order:
            if blocked[v]:
                continue
            chosen.append(v)
            blocked[v] = 1
            for w in g.adjacency[v]:
                blocked[w] = 1
            if len(chosen) == size:
                return TokenSet(g, chosen)
    return None


def reference_token_sets(g, k, seed_src, seed_tgt):
    while k > 0:
        src = reference_independent_set(seed_src, g, k)
        tgt = reference_independent_set(seed_tgt, g, k)
        if src is not None and tgt is not None:
            return src, tgt
        k -= 1
    empty = TokenSet(g, [])
    return empty, empty
