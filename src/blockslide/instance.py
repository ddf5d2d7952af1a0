"""Line-oriented instance files.

Format (ASCII, LF line endings):
    # a line whose first field starts with '#' is a comment
    p <n> <m>          header: vertex and edge counts, n <= MAX_VERTICES
    e <u> <v>          exactly m edge lines, 1-based endpoints
    s <v...>           source tokens (may be empty after the tag)
    t <v...>           target tokens

External ids are 1-based; internally everything is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BlockslideError,
    InstanceFormatError,
    InternalError,
    MissingSectionError,
    VertexOutOfRangeError,
)
from .graph import Graph, TokenSet

# The largest vertex count a header may declare: Graph holds a list per
# vertex, and at this limit parsing a header with no edges peaks at 76 MB.
MAX_VERTICES = 1 << 20


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


def _raise_edge_error(lines, n, start, stop=None):
    """Raise the error of the first bad edge line among lines[start:stop],
    checking each as the line is read: both endpoints must be integers,
    then each must lie in 1..n.  The lines lie after the header, so every
    'e' line of three fields there is one whose endpoints the loop kept."""
    for lineno, raw in enumerate(lines[start:stop], start=start + 1):
        fields = raw.split()
        if len(fields) == 3 and fields[0] == "e":
            u = _parse_int(fields[1], lineno, "endpoint")
            v = _parse_int(fields[2], lineno, "endpoint")
            for w in (u, v):
                if not (1 <= w <= n):
                    raise VertexOutOfRangeError(w, n)


def parse_instance(text):
    """The Instance a text describes; the first error in line order raises.

    One str.split per line: a blank line splits to nothing, and a comment
    is a line whose first field starts with '#'.  A well-formed edge line
    only keeps its two endpoint fields.  They are converted and
    range-checked in bulk after the loop; only when that fails, or another
    line raises first, are the edge lines read so far walked again one by
    one, so that an error on an earlier edge line still wins.
    """
    n = m = None
    ends = []  # endpoint fields of the well-formed edge lines, two per line
    add = ends.append
    source = None
    target = None
    header_line = None
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split()
            if not fields:
                continue
            tag = fields[0]
            if tag == "e" and len(fields) == 3 and n is not None:
                add(fields[1])
                add(fields[2])
            elif tag[0] == "#":
                continue
            elif tag == "p":
                if n is not None:
                    raise InstanceFormatError("duplicate header line", lineno)
                if len(fields) != 3:
                    raise InstanceFormatError("header must be 'p <n> <m>'", lineno)
                n = _parse_int(fields[1], lineno, "vertex count")
                m = _parse_int(fields[2], lineno, "edge count")
                if n < 0 or m < 0:
                    raise InstanceFormatError("counts must be nonnegative", lineno)
                if n > MAX_VERTICES:
                    raise InstanceFormatError(f"more than {MAX_VERTICES} vertices", lineno)
                header_line = lineno
            elif tag == "e":
                if n is None:
                    raise InstanceFormatError("edge line before header", lineno)
                raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
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
    except BlockslideError:
        if header_line is not None:
            _raise_edge_error(text.splitlines(), n, header_line, lineno - 1)
        raise
    del add  # so that rebinding ends frees the fields

    if ends:
        # Each distinct field is converted once: a vertex's id recurs on
        # every edge line of its edges.
        keys = set(ends)
        try:
            ids = dict(zip(keys, map((-1).__add__, map(int, keys))))  # 0-based
            bad = min(ids.values()) < 0 or max(ids.values()) >= n
        except ValueError:
            bad = True
        if bad:
            _raise_edge_error(text.splitlines(), n, header_line)
            raise InternalError("bulk endpoint check failed on no edge line")
        ends = list(map(ids.__getitem__, ends))
    if n is None:
        raise MissingSectionError("p")
    if len(ends) != 2 * m:
        raise InstanceFormatError(
            f"header promises {m} edges, found {len(ends) // 2}", header_line
        )
    if source is None:
        raise MissingSectionError("s")
    if target is None:
        raise MissingSectionError("t")

    it = iter(ends)
    graph = Graph(n, zip(it, it))  # consecutive ids paired up
    for which, vs in (("source", source), ("target", target)):
        for v in vs:
            if not (1 <= v <= n):
                raise VertexOutOfRangeError(v, n)
    src = TokenSet(graph, [v - 1 for v in source], which="source")
    tgt = TokenSet(graph, [v - 1 for v in target], which="target")
    return Instance(graph, src, tgt)


def render_instance(instance):
    g = instance.graph
    lines = [f"p {g.n} {g.m}"]
    for u, nbrs in enumerate(g.adjacency):
        lines.extend(f"e {u + 1} {v + 1}" for v in nbrs if u < v)
    lines.append(("s " + " ".join(str(v + 1) for v in instance.source)).rstrip())
    lines.append(("t " + " ".join(str(v + 1) for v in instance.target)).rstrip())
    return "\n".join(lines) + "\n"
