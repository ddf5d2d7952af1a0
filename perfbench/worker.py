"""Child process of the benchmark: one set-up, then one kind of work.

    worker.py pool --workload W --seed N --spawned-at T --seconds S
                   --trace 0|1 --oracle 0|1
    worker.py setup --workload W --seed N --spawned-at T
    worker.py rung --shape SHAPE --n N --variant V --seed N --spawned-at T
                   --limit L --mem-cap-mb M

Every mode imports blockslide from the checkout's `src/` and builds its
instance texts; that is the set-up, timed from the parent's spawn (`T`, read
from CLOCK_MONOTONIC, which all processes of the machine share) to its end,
and given in reference seconds (see hostspeed.py).  `setup` stops there.
`pool` then solves the workload's pool round-robin in whole passes until S
seconds have passed, checks every verdict, and with --oracle 1 runs the
oracle pass; with --trace 1 it makes the traced run instead.  `rung` solves
one ladder instance within L reference seconds.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import resource
import signal
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MiB = 1024 * 1024


class Program:
    """blockslide as the benchmark calls it: text in, verdict out.

    Both names are looked up on every call, so the tracer's wrappers apply
    while they are installed and nothing of them remains after.
    """

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import blockslide

        if Path(blockslide.__file__).resolve().parent.parent != SRC.resolve():
            raise SystemExit(f"blockslide imported from {blockslide.__file__}, not {SRC}")
        self.instance = importlib.import_module("blockslide.instance")
        self.decide = importlib.import_module("blockslide.decide")
        self.oracle = importlib.import_module("blockslide.oracle")

    def solve(self, text):
        inst = self.instance.parse_instance(text)
        return self.decide.decide(inst.graph, inst.source, inst.target).reachable


def vertex_count(text):
    return int(text.split(None, 2)[1])


class Tally:
    """Attempted solves and failures: wrong verdicts, exceptions, and
    disagreements with the oracle."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL: {what}", file=sys.stderr)


def timed_solve(program, text):
    """(seconds, verdict) of one solve, or (None, exception)."""
    t0 = time.perf_counter()
    try:
        verdict = program.solve(text)
    except Exception as exc:  # a failing solve is counted, the run goes on
        traceback.print_exc()
        return None, exc
    return time.perf_counter() - t0, verdict


def oracle_pass(program, tally):
    """Replay the fixed fuzz-sized instances against the brute-force
    oracle; their targets are drawn independently, so NO answers are
    checked too."""
    yes = no = 0
    for i, text in enumerate(workloads.oracle_instances()):
        inst = program.instance.parse_instance(text)
        try:
            got = program.solve(text)
        except Exception:  # counted as a failure below
            traceback.print_exc()
            got = None
        expected = program.oracle.oracle_reachable(inst.graph, inst.source, inst.target)
        yes += expected == program.oracle.YES
        no += expected == program.oracle.NO
        tally.check(
            expected != program.oracle.UNKNOWN and got == (expected == program.oracle.YES),
            f"oracle instance {i}: decide {got}, oracle {expected}",
        )
    return {"yes": yes, "no": no}


def whole_passes(seconds):
    """Iterate once per pass over a pool until `seconds` have passed; a
    started pass is finished, and there is at least one."""
    deadline = time.perf_counter() + seconds
    while True:
        yield
        if time.perf_counter() >= deadline:
            return


def run_pool(program, args, texts, ids):
    """Whole passes over the pool.  Each solve is preceded by one kernel
    run, and its time is kept in reference seconds and in wall seconds."""
    tally = Tally()
    times = [[] for _ in texts]
    wall_times = [[] for _ in texts]
    kernels = []
    gc.collect()
    for _ in whole_passes(args.seconds):
        for i, text in enumerate(texts):
            kernel_s = hostspeed.kernel_seconds()
            seconds, verdict = timed_solve(program, text)
            tally.check(verdict is True, f"{ids[i]}: verdict {verdict!r}, expected True")
            if seconds is not None:
                times[i].append(hostspeed.reference_seconds(seconds, kernel_s))
                wall_times[i].append(seconds)
                kernels.append(kernel_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "times": times,
        "wall_times": wall_times,
        "kernels": kernels,
        "vertices": [vertex_count(t) for t in texts],
        "peak_rss_mb": peak_rss_mb,
        "oracle": oracle_pass(program, tally) if args.oracle else None,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


def traced_solve(program, tracer, text, instance_id):
    """Solve with the wrappers installed, inside a root span `solve`.
    Returns (seconds, verdict or the exception raised)."""
    tracer.instance = instance_id
    tracer.install()
    root = tracer.open("solve", "bench")
    try:
        verdict = program.solve(text)
    except Exception as exc:  # a failing solve is counted, the run goes on
        traceback.print_exc()
        verdict = exc
    finally:
        tracer.close(root)
        tracer.uninstall()
    tracer.finish_instance()
    return root.end - root.start, verdict


def run_traced(program, args, texts, ids):
    """Untraced and traced solve of each instance in turn, whole passes
    until the deadline, at least one; then one pass under tracemalloc for
    allocation peaks.  Spans are written out at the end."""
    tally = Tally()
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    gc.collect()
    for _ in whole_passes(args.seconds):
        for i, text in enumerate(texts):
            seconds, plain = timed_solve(program, text)
            traced_seconds, verdict = traced_solve(program, tracer, text, ids[i])
            tally.check(
                plain is True and verdict is True,
                f"{ids[i]}: untraced {plain!r}, traced {verdict!r}, expected True",
            )
            if seconds is not None:
                untraced += seconds
                traced += traced_seconds
    # tracemalloc slows allocation several times over, so the memory pass
    # takes one instance per group: the largest of dense and forest, and
    # one variant of each ladder shape
    last_of_group = {workloads.group_of(iid): i for i, iid in enumerate(ids)}
    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        for i in last_of_group.values():
            traced_solve(program, memory, texts[i], ids[i])
    finally:
        tracemalloc.stop()
    oracle = oracle_pass(program, tally) if args.oracle else None

    solves = sum(1 for s in tracer.spans if s.name == "solve")
    by_layer, by_name = tracing.layer_totals(tracer.spans)
    peaks = tracing.alloc_peaks(memory.spans)
    layers = {f"{layer}.self_s": by_layer.get(layer, 0.0) / solves for layer in tracing.LAYERS}

    def per_solve(name, key="calls"):
        return by_name.get(name, {}).get(key, 0) / solves

    layers.update({
        "potential.calls": per_solve("compute_potentials"),
        "potential.passes": per_solve("compute_potentials", "passes"),
        "graph.induced_calls": per_solve("Graph.induced"),
        "graph.induced_edges_scanned": per_solve("Graph.induced", "edges_scanned"),
        "graph.alloc_peak_mb": peaks.get("graph", 0) / MiB,
        "blocks.decompose_calls": per_solve("decompose"),
        "blocks.pairs": per_solve("decompose", "pairs"),
        "blocks.alloc_peak_mb": peaks.get("blocks", 0) / MiB,
        "trace.overhead": traced / untraced,
    })

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_file, "wt") as fh:
        for run, spans in (("timing", tracer.spans), ("memory", memory.spans)):
            for s in spans:
                fh.write(json.dumps({"run": run, **s.record()}) + "\n")
    return {
        "layers": layers,
        "absent": tracer.absent,
        "spans_file": str(spans_file.relative_to(HERE.parent)),
        "oracle": oracle,
        "attempted": tally.attempted,
        "failed": tally.failed,
    }


class RungTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RungTimeout()


def run_rung(program, args, text):
    """Solve one ladder instance within args.limit reference seconds.

    The kernel runs before and after the solve; the solve's wall time is
    scaled by their mean.  The alarm allows a quarter more than the limit at
    the host speed seen before the solve.
    """
    before = hostspeed.median_kernel_seconds()
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.25 * hostspeed.wall_seconds(args.limit, before))
    try:
        t0 = time.perf_counter()
        verdict = program.solve(text)
        seconds = time.perf_counter() - t0
    except RungTimeout:
        return {"status": "timeout"}
    except MemoryError:
        return {"status": "memory"}
    except Exception:  # reported as a failed rung
        traceback.print_exc()
        return {"status": "error"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    kernel_s = (before + hostspeed.median_kernel_seconds()) / 2
    seconds = hostspeed.reference_seconds(seconds, kernel_s)
    if verdict is not True:
        return {"status": "wrong", "seconds": seconds}
    return {"status": "solved" if seconds <= args.limit else "timeout", "seconds": seconds}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("pool", "setup", "rung"))
    ap.add_argument("--workload", default="ladder")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--oracle", type=int, default=0)
    ap.add_argument("--shape")
    ap.add_argument("--n", type=int)
    ap.add_argument("--variant", type=int, default=0)
    ap.add_argument("--limit", type=float, default=0.0)
    ap.add_argument("--mem-cap-mb", type=int, default=0)
    args = ap.parse_args(argv)

    if args.mem_cap_mb:
        cap = args.mem_cap_mb * MiB
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        program = Program()
        if args.mode == "rung":
            texts = [workloads.ladder_instance(args.seed, args.shape, args.n, args.variant)]
        else:
            ids, texts = zip(*workloads.pool(args.workload, args.seed, traced=bool(args.trace)))
    except MemoryError:
        print(json.dumps({"status": "memory", "n": args.n}))
        return 0
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    setup_s = hostspeed.reference_seconds(setup_s, hostspeed.median_kernel_seconds())

    if args.mode == "rung":
        result = run_rung(program, args, texts[0])
        result["n"] = vertex_count(texts[0])
    elif args.mode == "setup":
        result = {}
    elif args.trace:
        result = run_traced(program, args, texts, ids)
    else:
        result = run_pool(program, args, texts, ids)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
