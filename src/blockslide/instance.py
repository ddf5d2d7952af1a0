"""Line-oriented instance files.

Format (ASCII, LF line endings):
    # a line whose first field starts with '#' is a comment
    p <n> <m>          header: vertex and edge counts, n <= MAX_VERTICES
    e <u> <v>          exactly m edge lines, 1-based endpoints
    s <v...>           source tokens (may be empty after the tag)
    t <v...>           target tokens

External ids are 1-based; internally everything is 0-based.  Every count
and id is written in ASCII decimal digits, [0-9]+, leading zeros allowed:
a sign, an underscore, or a digit of another script is a format error at
its line, though Python's int() would take them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

from .errors import (
    BlockslideError,
    DuplicateEdgeError,
    InstanceFormatError,
    MissingSectionError,
    SelfLoopError,
    VertexOutOfRangeError,
)
from .graph import Graph, TokenSet

# The largest vertex count a header may declare.  Graph holds a pointer per
# vertex, isolated ones too, and the block DFS a few arrays of n entries and
# a block per isolated vertex: at this limit, parsing a header with no edges
# peaks at 16 MB (tracemalloc), and deciding it takes about 0.38 s at 168 MB
# resident (Python 3.11.7).
MAX_VERTICES = 1 << 20


@dataclass(frozen=True)
class Instance:
    graph: Graph
    source: TokenSet
    target: TokenSet


def _decimal(fields):
    """True iff every field is a run of ASCII digits, the one integer
    syntax of the format; int() would also take a sign, an underscore
    between digits, or the digits of another script."""
    joined = "".join(fields)
    return joined.isascii() and (joined.isdigit() or not joined)


def _parse_int(token, lineno, what):
    if token.isascii() and token.isdigit():  # as _decimal, for one field
        try:
            return int(token)
        except ValueError:  # past int()'s limit on digits
            pass
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


def _check_range(vs, n, lineno):
    """Every id of a token line is in 1..n."""
    for v in vs:
        if not 1 <= v <= n:
            raise VertexOutOfRangeError(v, n, lineno)


def parse_instance(text):
    """The Instance a text describes; the first error in line order raises.

    A text in the layout render_instance writes is read without a loop per
    line (see _parse_rendered).  Every other text, and every text that
    fails one of that path's checks, goes through the line walk, which
    checks each line as it reads it and is the only code that raises a
    parse error.
    """
    inst = _parse_rendered(text)
    return inst if inst is not None else _parse_lines(text)


# The layout render_instance writes: a header, then the edge block.
_HEADER = re.compile(r"p ([0-9]+) ([0-9]+)\n")
# What str.splitlines breaks a line at in ASCII text, LF aside.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
_ZERO_BASED = (-1).__add__


class _Edges:
    """The edges (us[i], vs[i]) of two id lists, paired afresh on every
    iteration, so that Graph can read them again after a failed check."""

    __slots__ = ("us", "vs")

    def __init__(self, us, vs):
        self.us, self.vs = us, vs

    def __iter__(self):
        return zip(self.us, self.vs)

    def __len__(self):
        return len(self.us)


class _KeyedEdges:
    """The edges divmod(key, n) of a set of keys u * n + v, decoded afresh
    on every iteration: one int per edge is all the line walk keeps."""

    __slots__ = ("keys", "n")

    def __init__(self, keys, n):
        self.keys, self.n = keys, n

    def __iter__(self):
        return map(divmod, self.keys, repeat(self.n))

    def __len__(self):
        return len(self.keys)


# The text of each id 1, 2, ..., written without leading zeros, to its
# 0-based id: one table for every text, since what it holds depends on n
# alone.  _id_table grows it to a text's n and never shrinks it, up to
# _IDS_CAP ids, where it retains 7.2 MiB (tracemalloc, Python 3.11).  A
# table built per text costs 66-77 us at n = 358, 6-8% of a solve of the
# benchmark's forest pool.  A parse that reads _IDS while another thread
# grows it can only miss an id, which sends its text to the line walk.
_IDS = {}
_IDS_CAP = 1 << 16


def _id_table(n):
    """A table holding the text of each id 1..n: _IDS, grown to n if it is
    shorter, or above _IDS_CAP a table of the n ids alone."""
    if n > _IDS_CAP:
        return dict(zip(map(str, range(1, n + 1)), range(n)))
    have = len(_IDS)
    if n > have:
        _IDS.update(zip(map(str, range(have + 1, n + 1)), range(have, n)))
    return _IDS


def _parse_rendered(text):
    """The Instance of a text in render_instance's layout, or None.

    The layout is a header 'p n m', then m lines 'e u v', then an 's' line
    and a 't' line, with LF line ends.  The edge block is split once, and
    the endpoint fields are the word slices words[1::3] and words[2::3].
    Counts check the block line by line with no loop per line: it holds m
    LFs and no other line break, every line starts with 'e ', and it holds
    3m words.  Every endpoint field must then be an id, so no line's 'e'
    sits in an endpoint slot: the m lines' 'e's take the m slots 0 mod 3,
    and each line is 'e u v'.  The fields are looked up in _IDS, the
    shared table from the text of each id to its 0-based id, whenever it
    already covers 1..n or n <= m, after growing it to n if need be; a
    text of more than _IDS_CAP vertices and n <= m looks them up in a
    table of its own.  A sparser text that _IDS does not cover converts
    each field that is a run of digits.  A zero-padded field, '0' or any
    other spelling misses every table.  An id above n may hit _IDS, and
    Graph rejects it as out of range.

    None on any other text and on any failed check, those of the ranges,
    the graph and the token sets included: the line walk then reports the
    first error in line order.
    """
    head = _HEADER.match(text)
    if (
        head is None
        or not text.isascii()
        or any(map(text.__contains__, _OTHER_BREAKS))
    ):
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # past int()'s limit on digits
        return None
    start = head.end()
    t_at = text.rfind("\n", start, -1) + 1  # where the last line starts
    if n > MAX_VERTICES or t_at == 0:
        return None
    s_at = text.rfind("\n", start - 1, t_at - 1) + 1
    source, target = text[s_at:t_at].split(), text[t_at:].split()
    words = text[start:s_at].split()
    if (
        source[:1] != ["s"]
        or target[:1] != ["t"]
        or text.count("\n", start, s_at) != m
        or m
        and (
            not text.startswith("e ", start)
            or text.count("\ne ", start, s_at) != m - 1
        )
        or len(words) != 3 * m
    ):
        return None
    us, vs = words[1::3], words[2::3]
    del words  # the largest list of the parse: freed before Graph is built
    source, target = source[1:], target[1:]
    if not (_decimal(source) and _decimal(target)):
        return None
    try:
        if n <= len(_IDS) or n <= m:
            get = _id_table(n).__getitem__
            us = list(map(get, us))
            vs = list(map(get, vs))
            del get
        elif _decimal(us) and _decimal(vs):
            us = list(map(_ZERO_BASED, map(int, us)))
            vs = list(map(_ZERO_BASED, map(int, vs)))
        else:
            return None
        source = list(map(int, source))
        target = list(map(int, target))
    except (KeyError, ValueError):  # a miss, or past int()'s limit on digits
        return None
    if len(set(source)) != len(source) or len(set(target)) != len(target):
        return None
    try:
        graph = Graph(n, _Edges(us, vs))
        src = TokenSet(graph, map(_ZERO_BASED, source), which="source")
        tgt = TokenSet(graph, map(_ZERO_BASED, target), which="target")
    except BlockslideError:
        return None
    return Instance(graph, src, tgt)


def _parse_lines(text):
    """The line walk: each line is checked as it is read, so the error
    raised is the first one in line order.

    One str.split per line: a blank line splits to nothing, and a comment
    is a line whose first field starts with '#'.  An edge line's endpoints
    are converted, range-checked, and checked for a self-loop and for an
    edge given before on its line, so these errors name the line and the
    file's ids; the edge is kept as one int key, u * n + v for its 0-based
    ends u < v, whose set finds an edge given before.  A token line's ids
    are range-checked at that line, or, read before the header, when the
    header is read; an error names the token line.  Only independence,
    which needs every edge, is checked after the last line.
    """
    n = m = None
    keys = set()
    add = keys.add
    tokens = {"s": None, "t": None}  # ids per token line's tag
    early = []  # (ids, line) per token line read before the header
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        tag = fields[0]
        if tag == "e" and len(fields) == 3 and n is not None:
            u = _parse_int(fields[1], lineno, "endpoint")
            v = _parse_int(fields[2], lineno, "endpoint")
            if not 1 <= u <= n:
                raise VertexOutOfRangeError(u, n, lineno)
            if not 1 <= v <= n:
                raise VertexOutOfRangeError(v, n, lineno)
            if u == v:
                raise SelfLoopError(u, lineno)
            if u > v:
                u, v = v, u
            key = (u - 1) * n + v - 1
            if key in keys:
                raise DuplicateEdgeError(u, v, lineno)
            add(key)
        elif tag[0] == "#":
            continue
        elif tag == "p":
            if n is not None:
                raise InstanceFormatError("duplicate header line", lineno)
            if len(fields) != 3:
                raise InstanceFormatError("header must be 'p <n> <m>'", lineno)
            n = _parse_int(fields[1], lineno, "vertex count")
            m = _parse_int(fields[2], lineno, "edge count")
            if n > MAX_VERTICES:
                raise InstanceFormatError(f"more than {MAX_VERTICES} vertices", lineno)
            header_line = lineno
            for vs, line in early:
                _check_range(vs, n, line)
        elif tag == "e":
            if n is None:
                raise InstanceFormatError("edge line before header", lineno)
            raise InstanceFormatError("edge line must be 'e <u> <v>'", lineno)
        elif tag in tokens:
            which = "source" if tag == "s" else "target"
            if tokens[tag] is not None:
                raise InstanceFormatError(f"duplicate {which} line", lineno)
            vs = tokens[tag] = _parse_tokens(fields[1:], lineno, which)
            if n is None:
                early.append((vs, lineno))
            else:
                _check_range(vs, n, lineno)
        else:
            raise InstanceFormatError(f"unknown line tag {tag!r}", lineno)

    if n is None:
        raise MissingSectionError("p")
    if len(keys) != m:
        raise InstanceFormatError(
            f"header promises {m} edges, found {len(keys)}", header_line
        )
    source, target = tokens["s"], tokens["t"]
    if source is None:
        raise MissingSectionError("s")
    if target is None:
        raise MissingSectionError("t")

    graph = Graph(n, _KeyedEdges(keys, n))
    del keys, add
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
