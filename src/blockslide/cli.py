"""Command-line surface.

Exit codes: 0 for a clean run (both YES and NO answers), 1 for a fuzz
discrepancy, 2 for input errors, 3 for a non-block-graph input, 4 for an
internal invariant that failed (a bug in blockslide, not in the input).
"""

from __future__ import annotations

import argparse
import sys

from .blocks import decompose, is_block_graph
from .decide import decide
from .errors import BlockslideError, InternalError, NotABlockGraphError
from .fuzz import FuzzEnvelope, run_fuzz
from .gen import GenParams, SplitMix64, gen_block_graph, gen_token_sets
from .instance import Instance, parse_instance, render_instance
from .invariants import compute_depths, compute_ua
from .oracle import NO, UNKNOWN, YES, OracleLimits, oracle_reachable
from .potential import compute_potentials

EXIT_OK = 0
EXIT_FUZZ_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_BLOCK_GRAPH = 3
EXIT_INTERNAL_ERROR = 4


def _load_instance(path):
    with open(path, "r", encoding="ascii") as fh:
        return parse_instance(fh.read())


def cmd_decide(args, out):
    instance = _load_instance(args.file)
    verdict = decide(instance.graph, instance.source, instance.target)
    print("YES" if verdict.reachable else "NO", file=out)
    print(f"reason: {verdict.reason.value}", file=out)
    return EXIT_OK


def cmd_potentials(args, out):
    """One line per pair in canonical order, each component's under
    "# component i" when there are several.

    One decomposition serves every component, since no equation reaches
    across components; the block DFS labels each vertex with its
    component.  A component's lines keep the global pair order, and
    its block ids are the ranks of its blocks' global ids: relabelling a
    component's vertices in order keeps the canonical order of its blocks.
    """
    instance = _load_instance(args.file)
    g = instance.graph
    if not is_block_graph(g):
        raise NotABlockGraphError("input graph has a non-clique block")
    tokens = instance.source if args.set == "source" else instance.target
    bd = decompose(g)
    ua = compute_ua(bd)
    pot = compute_potentials(bd, ua, tokens)

    ix = bd.index()
    tree = [bd.component[b[0]] for b in bd.members]  # per block, its component
    local = []  # block id within its component
    seen = [0] * bd.trees
    for i in tree:
        local.append(seen[i])
        seen[i] += 1
    lines = [[] for _ in seen]
    per_pair = zip(ix.base, ix.block, pot.array, ua.array, compute_depths(bd))
    for p, (u, b, x, a, d) in enumerate(per_pair):
        arrow = f"{u + 1}->B{local[b]}" if p & 1 else f"B{local[b]}->{u + 1}"
        lines[tree[b]].append(f"pot {arrow} = {x} ua={int(a)} d={d}")
    for idx, rows in enumerate(lines):
        if bd.trees > 1:
            print(f"# component {idx}", file=out)
        for row in rows:
            print(row, file=out)
    return EXIT_OK


def cmd_oracle(args, out):
    instance = _load_instance(args.file)
    lim = OracleLimits(max_states=args.max_states, max_millis=args.max_millis)
    answer = oracle_reachable(instance.graph, instance.source, instance.target, lim)
    print({YES: "YES", NO: "NO", UNKNOWN: "UNKNOWN"}[answer], file=out)
    return EXIT_OK


def cmd_gen(args, out):
    g = gen_block_graph(GenParams(args.seed, args.blocks, args.max_clique, args.tokens))
    rng = SplitMix64(args.seed ^ 0xD1B54A32D192ED03)
    seed_src = rng.next_u64()
    seed_tgt = rng.next_u64()
    src, tgt = gen_token_sets(g, min(args.tokens, g.n), seed_src, seed_tgt)
    out.write(render_instance(Instance(g, src, tgt)))
    return EXIT_OK


def cmd_fuzz(args, out):
    env = FuzzEnvelope(
        max_blocks=args.max_blocks,
        max_clique=args.max_clique,
        max_tokens=args.max_tokens,
        max_vertices=args.max_vertices,
    )
    ok, inst, failures = run_fuzz(args.count, env, args.seed)
    if inst is None:
        print(f"{args.count}/{args.count} ok", file=out)
        return EXIT_OK
    seed = args.seed + ok
    dump = f"fuzz-failure-seed{seed}.ts"
    with open(dump, "w", encoding="ascii") as fh:
        fh.write(f"# fuzz seed {seed}\n")
        fh.write(render_instance(inst))
    print(f"{ok}/{args.count} ok, then seed {seed} failed:", file=out)
    for f in failures:
        print(f"  {f}", file=out)
    print(f"instance dumped to {dump}", file=out)
    return EXIT_FUZZ_FAILURE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockslide",
        description="Token-sliding independent-set reconfiguration on block graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide reachability for an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("potentials", help="print per-pair potentials")
    p.add_argument("file")
    p.add_argument("--set", choices=["source", "target"], default="source")
    p.set_defaults(func=cmd_potentials)

    p = sub.add_parser("oracle", help="brute-force reachability check")
    p.add_argument("file")
    p.add_argument("--max-states", type=int, default=2_000_000)
    p.add_argument("--max-millis", type=int, default=30_000)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit a random instance to stdout")
    p.add_argument("--blocks", type=int, default=6)
    p.add_argument("--max-clique", type=int, default=4)
    p.add_argument("--tokens", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="cross-validate solver against the oracle")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-blocks", type=int, default=6)
    p.add_argument("--max-clique", type=int, default=4)
    p.add_argument("--max-tokens", type=int, default=4)
    p.add_argument("--max-vertices", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except NotABlockGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_BLOCK_GRAPH
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except (BlockslideError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
