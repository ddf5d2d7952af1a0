"""The ladder's interpolated reach, n_within_limit."""

from __future__ import annotations

import math
import statistics


def growth_slope(solved):
    """Slope of log time against log n over the last two solved rungs of
    `solved`, a list of (n, seconds) in climbing order; 1.0 (linear) with
    fewer than two."""
    if len(solved) < 2:
        return 1.0
    (n0, t0), (n1, t1) = solved[-2:]
    return math.log(t1 / t0) / math.log(n1 / n0)


def predicted_seconds(solved, n):
    """Time of a solve of n vertices, extrapolated from the last solved
    rung with growth_slope; None when the slope is not positive."""
    slope = growth_slope(solved)
    if slope <= 0:
        return None
    n1, t1 = solved[-1]
    return t1 * (n / n1) ** slope


def shape_reach(solved, limit, cap, bottom):
    """Vertex count one solve would reach at `limit` seconds for one shape.

    `solved` lists (n, seconds) of the solved rungs in climbing order.  The
    slope of log time against log n over the last two solved rungs
    extrapolates from the last solved rung to the limit.  The result is
    capped at `cap`: the rung where the climb stopped, which took longer
    than the limit, or the top rung.  A single solved rung assumes linear
    growth; a slope that is not positive reaches the cap.  With no solved
    rung the shape reaches half the bottom rung.
    """
    if not solved:
        return bottom / 2
    n1, t1 = solved[-1]
    slope = growth_slope(solved)
    if slope <= 0:
        return float(cap)
    return min(float(cap), n1 * (limit / t1) ** (1.0 / slope))


def n_within_limit(climbs, limit, bottom):
    """Geometric mean over shapes of shape_reach; climbs maps a shape to
    (solved rungs, cap)."""
    reaches = [shape_reach(solved, limit, cap, bottom) for solved, cap in climbs.values()]
    return math.exp(statistics.fmean(math.log(r) for r in reaches))
