"""The restart sweep for potentials, kept as a second reference.

It initialises every pair to 0, sweeps the pairs in canonical order (by
base, then block, (B,u) first), recomputes a candidate value per pair, and
on the first strict increase assigns it and restarts the sweep.  compute_potentials must reach the same
values; its iteration_count is counted differently (see test_potential).
"""

from dataclasses import dataclass

from blockslide import TO_BLOCK, TO_VERTEX, Pair
from blockslide.oracle import beta, kappa, mask_of


def _tokens_in_block_interior(bd, mask, bid, base):
    """|B ∩ interior(C[B,u])|: tokens inside block B other than the base."""
    return (mask & mask_of(bd.blocks[bid]) & ~(1 << base)).bit_count()


@dataclass(frozen=True)
class ReferencePotentials:
    array: list  # per pair id
    iteration_count: int


def restart_sweep_potentials(bd, ua, c):
    """Fixed-point potentials per pair id, plus the number of sweep passes
    executed."""
    by_id = bd.pairs()
    pair_list = sorted(by_id, key=lambda p: (p.base, p.block, not p.is_to_vertex))
    index = {p: i for i, p in enumerate(pair_list)}
    npairs = len(pair_list)
    ua_arr = [int(ua.array[bd.pair_id(p)]) for p in pair_list]

    # Per-pair precomputation: dependency indices and constants.
    deps = [None] * npairs
    const = [0] * npairs
    siblings = [None] * npairs  # for (u,B): indices of (B',u) over ALL blocks of u
    for i, p in enumerate(pair_list):
        if p.is_to_vertex:
            deps[i] = [
                index[Pair(TO_BLOCK, v, p.block)] for v in kappa(bd, p.block, p.base)
            ]
            const[i] = ua_arr[i] - _tokens_in_block_interior(
                bd, mask_of(c), p.block, p.base
            )
        else:
            deps[i] = [
                index[Pair(TO_VERTEX, p.base, b)] for b in beta(bd, p.base, p.block)
            ]
            siblings[i] = [
                index[Pair(TO_VERTEX, p.base, b)] for b in bd.blocks_of[p.base]
            ]
            const[i] = ua_arr[i]

    y = [0] * npairs
    iterations = 0
    updated = True
    while updated:
        iterations += 1
        updated = False
        for i, p in enumerate(pair_list):
            if p.is_to_vertex:
                candidate = sum(y[j] for j in deps[i]) + const[i]
            else:
                blocked = (
                    sum(1 for j in siblings[i] if y[j] == 0 and ua_arr[j]) >= 2
                )
                if blocked:
                    continue
                candidate = sum(y[j] - ua_arr[j] for j in deps[i]) + const[i]
            if y[i] < candidate:
                y[i] = candidate
                updated = True
                break

    return ReferencePotentials([y[index[p]] for p in by_id], iterations)
