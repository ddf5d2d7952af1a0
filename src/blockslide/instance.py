"""Line-oriented instance files.

Format (ASCII, LF line endings):
    # comment lines are ignored
    p <n> <m>          header: vertex and edge counts
    e <u> <v>          exactly m edge lines, 1-based endpoints
    s <v...>           source tokens (may be empty after the tag)
    t <v...>           target tokens

External ids are 1-based; internally everything is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InstanceFormatError,
    MissingSectionError,
    VertexOutOfRangeError,
)
from .graph import Graph, TokenSet


@dataclass(frozen=True)
class Instance:
    graph: Graph
    source: TokenSet
    target: TokenSet

    def external_id(self, v):
        return v + 1


def _parse_int(token, lineno, what):
    try:
        return int(token)
    except ValueError:
        raise InstanceFormatError(f"expected integer {what}, got {token!r}", lineno)


def _parse_tokens(fields, lineno, which):
    """Vertex ids of a token line; a repeated id is an error, since a token
    set cannot hold one vertex twice."""
    vs = [_parse_int(f, lineno, f"{which} vertex") for f in fields]
    seen = set()
    for v in vs:
        if v in seen:
            raise InstanceFormatError(f"{which} vertex {v} repeated", lineno)
        seen.add(v)
    return vs


def parse_instance(text):
    n = m = None
    edges = []
    source = None
    target = None
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise InstanceFormatError("duplicate header line", lineno)
            if len(fields) != 3:
                raise InstanceFormatError("header must be 'p <n> <m>'", lineno)
            n = _parse_int(fields[1], lineno, "vertex count")
            m = _parse_int(fields[2], lineno, "edge count")
            if n < 0 or m < 0:
                raise InstanceFormatError("counts must be nonnegative", lineno)
            header_line = lineno
        elif tag == "e":
            if n is None:
                raise InstanceFormatError("edge line before header", lineno)
            if len(fields) != 3:
                raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
            u = _parse_int(fields[1], lineno, "endpoint")
            v = _parse_int(fields[2], lineno, "endpoint")
            for w in (u, v):
                if not (1 <= w <= n):
                    raise VertexOutOfRangeError(w, n)
            edges.append((u - 1, v - 1))
        elif tag == "s":
            if source is not None:
                raise InstanceFormatError("duplicate source line", lineno)
            source = _parse_tokens(fields[1:], lineno, "source")
        elif tag == "t":
            if target is not None:
                raise InstanceFormatError("duplicate target line", lineno)
            target = _parse_tokens(fields[1:], lineno, "target")
        else:
            raise InstanceFormatError(f"unknown line tag {tag!r}", lineno)

    if n is None:
        raise MissingSectionError("p")
    if len(edges) != m:
        raise InstanceFormatError(
            f"header promises {m} edges, found {len(edges)}", header_line
        )
    if source is None:
        raise MissingSectionError("s")
    if target is None:
        raise MissingSectionError("t")

    graph = Graph(n, edges)
    for which, vs in (("source", source), ("target", target)):
        for v in vs:
            if not (1 <= v <= n):
                raise VertexOutOfRangeError(v, n)
    src = TokenSet(graph, [v - 1 for v in source], which="source")
    tgt = TokenSet(graph, [v - 1 for v in target], which="target")
    return Instance(graph, src, tgt)


def render_instance(instance):
    g = instance.graph
    lines = [f"p {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    lines.append(("s " + " ".join(str(v + 1) for v in instance.source)).rstrip())
    lines.append(("t " + " ".join(str(v + 1) for v in instance.target)).rstrip())
    return "\n".join(lines) + "\n"
