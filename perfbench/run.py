"""Benchmark of blockslide from instance text to verdict.

    python3 perfbench/run.py --workload ladder|dense|forest --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; blockslide is imported from its `src/`.
Each solve is `parse_instance` then `decide`, one process and one thread,
in a closed loop: the next instance starts when the previous verdict
returns.  Every verdict is checked against the answer known from how the
instance was built (YES: the target is a legal slide walk from the source),
and a fixed set of fuzz-sized instances is checked against the brute-force
oracle.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 1 the metrics are the
per-layer ones of a separate traced run.  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("ladder", "dense", "forest")
# Pool worker processes per run.  Each sets up afresh (setup_s is the median
# of their set-up times and those of the SETUP_ONLY workers) and takes a
# slice of the passes; on the ladder they run before, between and after the
# climb.  Times are in reference seconds (hostspeed.py), and an instance's
# time is its median over all passes.
POOL_SLICES = 3
LIMIT_S = 2.0  # per-instance limit of a ladder rung
MEM_CAP_MB = 2048  # address-space cap of a ladder rung's process
SETUP_ONLY = 5  # further workers per run that only set up, for setup_s
SKIP_FACTOR = 2.0  # a rung predicted to take this many limits is not run
REFINE_VARIANTS = 2  # further instances of each shape's last two solved rungs
CLIMB_BUDGET_S = 80.0  # no new rung starts this long after the run began
CHILD_GRACE_S = 90.0


class WorkerFailed(Exception):
    pass


def run_worker(*args, timeout):
    """Run worker.py with args; its parsed last stdout line, or None when it
    exceeded the timeout (it is killed and reaped)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args),
           "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def solve_rung(seed, shape, rung, variant, limit):
    """(status, vertex count, seconds) of one ladder instance, solved in a
    child process of its own within `limit` reference seconds."""
    res = run_worker("rung", "--shape", shape, "--n", rung, "--variant", variant,
                     "--seed", seed, "--limit", limit, "--mem-cap-mb", MEM_CAP_MB,
                     timeout=limit + CHILD_GRACE_S)
    if res is None:
        return "timeout", None, None
    return res["status"], res["n"], res.get("seconds")


def climb(seed, deadline):
    """Per shape, the solved rungs as [(rung, n, [seconds])] and the cap on
    its reach: the rung where it stopped, or the top rung.  Also
    the attempted and failed rung counts.  A shape stops at its first rung
    that passes the limit or the memory cap, or before a rung that its last
    two solved rungs predict to take SKIP_FACTOR times the limit."""
    climbs = {}
    attempted = failed = 0
    for shape in workloads.LADDER_SHAPES:
        solved = []
        cap = workloads.LADDER_RUNGS[-1]
        for rung in workloads.LADDER_RUNGS:
            if time.perf_counter() > deadline:
                log(f"ladder: climb budget spent before {shape} n={rung}")
                break
            # two solved rungs predict the next; far past the limit, the
            # rung would only be cut, and the reach stays below it either way
            if len(solved) >= 2:
                guess = metrics.predicted_seconds([(n, ts[0]) for _, n, ts in solved], rung)
                if guess is not None and guess > SKIP_FACTOR * LIMIT_S:
                    cap = rung
                    log(f"ladder: {shape} stops at n={rung} (predicted {guess:.1f}s)")
                    break
            status, n, seconds = solve_rung(seed, shape, rung, 0, LIMIT_S)
            attempted += 1
            if status == "solved":
                solved.append((rung, n, [seconds]))
                continue
            failed += status in ("wrong", "error")
            cap = rung
            log(f"ladder: {shape} stops at n={rung} ({status})")
            break
        climbs[shape] = (solved, cap)
    return climbs, attempted, failed


def refine(seed, climbs):
    """Time REFINE_VARIANTS more instances of the last two solved rungs of
    each shape; the rung's time is then the median over its instances.  An
    instance cut at twice the limit counts at that bound."""
    attempted = failed = 0
    for shape, (solved, _) in climbs.items():
        for rung, _, times in solved[-2:]:
            for variant in range(1, 1 + REFINE_VARIANTS):
                status, _, seconds = solve_rung(seed, shape, rung, variant, 2 * LIMIT_S)
                attempted += 1
                failed += status in ("wrong", "error")
                times.append(seconds if status == "solved" else 2 * LIMIT_S)
    return attempted, failed


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name == "trace.overhead" else "count"


def pool_slice(args, seconds, oracle, trace=0):
    """One pool worker: set-up, whole passes for `seconds` (at least one),
    and with oracle=True the oracle pass."""
    res = run_worker("pool", "--workload", args.workload, "--seed", args.seed,
                     "--seconds", seconds, "--trace", trace, "--oracle", int(oracle),
                     timeout=seconds + CHILD_GRACE_S)
    if res is None:
        raise WorkerFailed("pool worker timed out")
    if res["oracle"]:
        log(f"oracle pass: {res['oracle']['yes']} YES, {res['oracle']['no']} NO")
    return res


def setup_only(args):
    """Set-up times of SETUP_ONLY workers that set up the pool and exit."""
    return [run_worker("setup", "--workload", args.workload, "--seed", args.seed,
                       timeout=CHILD_GRACE_S)["setup_s"]
            for _ in range(SETUP_ONLY)]


def pool_metrics(slices, setups):
    """End-to-end metrics from each instance's solve time: the median over
    all passes of all slices of its time in reference seconds.  The sample
    count is the number of instances."""
    def per_instance(key):
        return [sum(ts, []) for ts in zip(*(res[key] for res in slices))]

    solve = [statistics.median(ts) for ts in per_instance("times")]
    # n_within_limit on a pool: the vertex count one solve would reach at
    # the limit if time grew linearly from the pool's instances (median)
    reach = [n * LIMIT_S / t for n, t in zip(slices[0]["vertices"], solve)]
    wall = [min(ts) for ts in per_instance("wall_times")]
    kernel = statistics.median(sum((res["kernels"] for res in slices), []))
    log(f"{len(solve)} instances, median of {min(map(len, per_instance('times')))}+ passes "
        f"each; wall p50 of best times {1000 * statistics.median(wall):.2f} ms, "
        f"kernel median {1000 * kernel:.3f} ms")
    return {
        "solve_ms_p50": (1000 * statistics.median(solve), "ms"),
        "solve_ms_p90": (1000 * statistics.quantiles(solve, n=10, method="inclusive")[8], "ms"),
        "solves_per_s": (len(solve) / sum(solve), "1/s"),
        "n_within_limit": (statistics.median(reach), "vertices"),
        "peak_rss_mb": (max(res["peak_rss_mb"] for res in slices), "MB"),
        "setup_s": (statistics.median(setups + [res["setup_s"] for res in slices]), "s"),
    }


def traced_run(args):
    res = pool_slice(args, args.seconds, oracle=True, trace=1)
    if res["absent"]:
        log(f"absent, not traced: {', '.join(res['absent'])}")
    log(f"spans written to {res['spans_file']}")
    out = {name: (value, layer_unit(name)) for name, value in res["layers"].items()}
    return out, res["attempted"], res["failed"]


def ladder_run(args, started):
    seconds = args.seconds / POOL_SLICES
    slices = [pool_slice(args, seconds, oracle=True)]
    climbs, attempted, failed = climb(args.seed, started + CLIMB_BUDGET_S)
    slices.append(pool_slice(args, seconds, oracle=False))
    a, f = refine(args.seed, climbs)
    slices.append(pool_slice(args, seconds, oracle=False))
    medians = {shape: ([(n, statistics.median(ts)) for _, n, ts in solved], cap)
               for shape, (solved, cap) in climbs.items()}
    for shape, (rungs, cap) in medians.items():
        log(f"ladder {shape}: " + ", ".join(f"{n}:{t:.3f}s" for n, t in rungs)
            + f"; cap {cap}")
    out = pool_metrics(slices, setup_only(args))
    reach = metrics.n_within_limit(medians, LIMIT_S, workloads.LADDER_RUNGS[0])
    out["n_within_limit"] = (reach, "vertices")
    attempted += a + sum(res["attempted"] for res in slices)
    failed += f + sum(res["failed"] for res in slices)
    return out, attempted, failed


def pool_run(args):
    slices = [pool_slice(args, args.seconds / POOL_SLICES, oracle=i == 0)
              for i in range(POOL_SLICES)]
    attempted = sum(res["attempted"] for res in slices)
    failed = sum(res["failed"] for res in slices)
    return pool_metrics(slices, setup_only(args)), attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "blockslide" / "__init__.py").is_file():
        log(f"no blockslide sources under {ROOT / 'src'}; run from a checkout")
        return 2
    started = time.perf_counter()
    try:
        if args.trace:
            out, attempted, failed = traced_run(args)
        elif args.workload == "ladder":
            out, attempted, failed = ladder_run(args, started)
        else:
            out, attempted, failed = pool_run(args)
    except WorkerFailed as exc:
        log(f"benchmark failed: {exc}")
        return 1

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out.items()},
    }
    log(f"run took {time.perf_counter() - started:.1f}s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
