"""Host-speed calibration: a fixed pure-Python kernel timed next to the solves.

On a shared virtual machine the speed of a vCPU drifts by up to 1.5x over
seconds to minutes, and process CPU time drifts with wall time, so neither
shows the program's own cost.  The kernel below does the same kind of work
as blockslide (integer arithmetic, sets, lists, a breadth-first search) and
does not depend on it.  The benchmark runs the kernel right before each
solve and reports the solve in reference seconds:

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds

that is, the time the solve would take on a host where one kernel run takes
KERNEL_REF_S.  A change to blockslide moves the solve and not the kernel,
so it shows in full; a change of host speed moves both and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's typical wall time on a calm 2-vCPU x86-64 virtual machine
# under CPython 3.11; it only fixes the scale of the reported times.
KERNEL_REF_S = 0.0017
KERNEL_N = 500


def kernel(n=KERNEL_N):
    """Build a fixed pseudo-random graph of n vertices and 3n edge draws as
    adjacency sets, then a breadth-first search from vertex 0; returns the
    number of vertices reached."""
    x = 12345
    adj = [set() for _ in range(n)]
    for _ in range(3 * n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        u = (x >> 12) % n  # the low bits of this generator have short periods
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        v = (x >> 12) % n
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    seen = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    nxt.append(v)
        frontier = nxt
    return len(seen)


def kernel_seconds():
    """Wall seconds of one kernel run.  The cyclic garbage collector is off
    meanwhile, so that the kernel does not pay for collecting the objects
    of the solve before it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def median_kernel_seconds(runs=7):
    """Median wall seconds over `runs` kernel runs in a row."""
    return statistics.median(kernel_seconds() for _ in range(runs))


def reference_seconds(seconds, kernel_s):
    """`seconds` of wall time, measured next to a kernel run of `kernel_s`,
    in reference seconds."""
    return seconds * KERNEL_REF_S / kernel_s


def wall_seconds(reference_s, kernel_s):
    """The wall time that `reference_s` reference seconds take while one
    kernel run takes `kernel_s`."""
    return reference_s * kernel_s / KERNEL_REF_S
