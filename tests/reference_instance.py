"""The line-by-line instance parser, kept as a reference.

Every line is stripped, tested for a comment, split, and each edge line's
endpoints are parsed, range-checked, and checked for a self-loop and an
edge given before against a set of (u, v) tuples as the line is read, so a
self-loop or a repeated edge is reported at its line in the file's ids.  Every count and
id must match [0-9]+.  parse_instance must raise the same exception (type, message, line) on every text, or
return the same graph and token sets.
"""

import re
from dataclasses import dataclass

from blockslide import (
    DuplicateEdgeError,
    InstanceFormatError,
    MissingSectionError,
    SelfLoopError,
    TokenSet,
    VertexOutOfRangeError,
)
from blockslide.instance import MAX_VERTICES


@dataclass(frozen=True)
class ReferenceGraph:
    """n, the normalised edge set and sorted adjacency, as Graph held them."""

    n: int
    edges: frozenset
    adjacency: tuple

    def _check_vertex(self, u):
        if not (0 <= u < self.n):
            raise VertexOutOfRangeError(u, self.n)


@dataclass(frozen=True)
class ReferenceInstance:
    graph: ReferenceGraph
    source: TokenSet
    target: TokenSet


def reference_graph(n, edge_list):
    """The per-edge range, self-loop and tuple-keyed duplicate checks."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    adjacency = [[] for _ in range(n)]
    for u, v in edge_list:
        if not (0 <= u < n):
            raise VertexOutOfRangeError(u, n)
        if not (0 <= v < n):
            raise VertexOutOfRangeError(v, n)
        if u == v:
            raise SelfLoopError(u)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise DuplicateEdgeError(*e)
        seen.add(e)
        adjacency[u].append(v)
        adjacency[v].append(u)
    return ReferenceGraph(
        n, frozenset(seen), tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
    )


def _parse_int(token, lineno, what):
    """A run of ASCII digits, leading zeros allowed, as an int."""
    if re.fullmatch(r"[0-9]+", token):
        try:
            return int(token)
        except ValueError:  # past int()'s limit on digits
            pass
    raise InstanceFormatError(f"expected integer {what}, got {token!r}", lineno)


def _parse_tokens(fields, lineno, which):
    vs = [_parse_int(f, lineno, f"{which} vertex") for f in fields]
    seen = set()
    for v in vs:
        if v in seen:
            raise InstanceFormatError(f"{which} vertex {v} repeated", lineno)
        seen.add(v)
    return vs


def reference_parse_instance(text):
    n = m = None
    edges = []
    edge_lines = set()  # (u, v) with u < v per edge line, in file ids
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
            if n > MAX_VERTICES:
                raise InstanceFormatError(f"more than {MAX_VERTICES} vertices", lineno)
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
            if u == v:
                raise SelfLoopError(u, lineno)
            e = (u, v) if u < v else (v, u)
            if e in edge_lines:
                raise DuplicateEdgeError(*e, lineno)
            edge_lines.add(e)
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

    graph = reference_graph(n, edges)
    for which, vs in (("source", source), ("target", target)):
        for v in vs:
            if not (1 <= v <= n):
                raise VertexOutOfRangeError(v, n)
    src = TokenSet(graph, [v - 1 for v in source], which="source")
    tgt = TokenSet(graph, [v - 1 for v in target], which="target")
    return ReferenceInstance(graph, src, tgt)
