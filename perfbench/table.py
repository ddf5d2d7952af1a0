"""Per-span table of a traced run, as Markdown.

    python3 perfbench/table.py perfbench/out/spans-<workload>-seed<N>.jsonl.gz

For every group of instances (the workload, or on the ladder each shape)
and every wrapped name: calls, self and total milliseconds per solve, and
the self time's share of the solve time.  Only the timing run's spans count.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Span, self_times  # noqa: E402
from workloads import group_of  # noqa: E402


def load(path):
    spans = []
    with gzip.open(path, "rt") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["run"] != "timing":
                continue
            spans.append(Span(rec["id"], rec["name"], rec["layer"], rec["instance"],
                              rec["parent"], rec["start"], rec["end"]))
    return spans


def table(spans):
    selfs = self_times(spans)
    groups = {}
    for s in spans:
        g = groups.setdefault(group_of(s.instance), {"solves": 0, "solve_s": 0.0, "rows": {}})
        if s.name == "solve":
            g["solves"] += 1
            g["solve_s"] += s.end - s.start
            continue
        row = g["rows"].setdefault((s.layer, s.name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[s.id]
        row[2] += s.end - s.start
    lines = []
    for name, g in groups.items():
        n = g["solves"]
        lines += [
            f"### {name}: {n} traced solves, {1000 * g['solve_s'] / n:.2f} ms per solve",
            "",
            "| layer | span | calls/solve | self ms/solve | total ms/solve | self share |",
            "|---|---|---:|---:|---:|---:|",
        ]
        rows = sorted(g["rows"].items(), key=lambda kv: -kv[1][1])
        for (layer, span), (calls, self_s, total_s) in rows:
            lines.append(
                f"| {layer} | `{span}` | {calls / n:g} | {1000 * self_s / n:.3f} "
                f"| {1000 * total_s / n:.3f} | {100 * self_s / g['solve_s']:.1f}% |"
            )
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(load(sys.argv[1])))
