import io
import random
import time
import tracemalloc

import pytest

from blockslide import (
    BlockslideError,
    DuplicateEdgeError,
    Graph,
    InstanceFormatError,
    Instance,
    MissingSectionError,
    NotIndependentError,
    SelfLoopError,
    TokenSet,
    VertexOutOfRangeError,
    parse_instance,
    render_instance,
)
import blockslide.instance as instance_module
from blockslide.cli import main
from blockslide.fuzz import gen_fuzz_instance
from blockslide.instance import MAX_VERTICES
from conftest import fuzz_corpus, union_corpus
from reference_instance import reference_parse_instance


GOOD = """\
# a path on three vertices
p 3 2
e 1 2
e 2 3

s 1
t 3
"""


def test_parse_basic():
    inst = parse_instance(GOOD)
    assert inst.graph.n == 3
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.source.vertices == (0,)
    assert inst.target.vertices == (2,)


def test_render_round_trip():
    inst = parse_instance(GOOD)
    again = parse_instance(render_instance(inst))
    assert again.graph == inst.graph
    assert again.source == inst.source
    assert again.target == inst.target


def test_round_trip_generated_instances():
    for seed in range(25):
        inst = gen_fuzz_instance(seed)
        again = parse_instance(render_instance(inst))
        assert again.graph == inst.graph
        assert again.source == inst.source
        assert again.target == inst.target


def test_empty_token_lines():
    inst = parse_instance("p 2 1\ne 1 2\ns\nt\n")
    assert inst.source.vertices == ()
    assert inst.target.vertices == ()


def test_missing_sections():
    with pytest.raises(MissingSectionError):
        parse_instance("s\nt\n")
    with pytest.raises(MissingSectionError):
        parse_instance("p 2 0\nt\n")
    with pytest.raises(MissingSectionError):
        parse_instance("p 2 0\ns\n")


def test_edge_before_header():
    with pytest.raises(InstanceFormatError):
        parse_instance("e 1 2\np 2 1\ns\nt\n")


def test_edge_count_mismatch():
    with pytest.raises(InstanceFormatError):
        parse_instance("p 3 2\ne 1 2\ns\nt\n")


def test_duplicate_sections():
    with pytest.raises(InstanceFormatError):
        parse_instance("p 2 0\np 2 0\ns\nt\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("p 2 0\ns 1\ns 2\nt\n")


def test_unknown_tag_reports_line():
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 2 0\nq nonsense\ns\nt\n")
    assert exc.value.line == 2


def test_bad_integer():
    with pytest.raises(InstanceFormatError):
        parse_instance("p two 0\ns\nt\n")


@pytest.mark.parametrize("field", ["1_0", "+1", "-1", "\u0661", "1\u0660"])
def test_integers_are_ascii_digits_only(field, tmp_path):
    """int() reads each of these as a number; the format takes [0-9]+ only,
    in a sparse text, a dense one and a token line alike."""
    texts = [
        (f"p 12 2\ne {field} 2\ne 2 3\ns 1\nt 3\n", 2, "endpoint"),
        (f"p 3 2\ne 1 2\ne {field} 3\ns 1\nt 3\n", 3, "endpoint"),
        (f"p 3 2\ne 1 2\ne 2 3\ns {field}\nt 3\n", 4, "source vertex"),
        (f"p {field} 0\ns\nt\n", 1, "vertex count"),
    ]
    for text, line, what in texts:
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert str(exc.value) == f"line {line}: expected integer {what}, got {field!r}"
    path = tmp_path / "odd.ts"
    path.write_text(texts[0][0], encoding="utf-8")
    assert main(["decide", str(path)], out=io.StringIO()) == 2
    # leading zeros stay allowed
    inst = parse_instance("p 03 02\ne 01 002\ne 2 3\ns 001\nt 3\n")
    assert inst.graph.edges == frozenset({(0, 1), (1, 2)})
    assert inst.source.vertices == (0,)


def test_out_of_range_vertices():
    with pytest.raises(VertexOutOfRangeError):
        parse_instance("p 2 1\ne 1 3\ns\nt\n")
    with pytest.raises(VertexOutOfRangeError):
        parse_instance("p 2 0\ns 0\nt\n")


def test_dependent_tokens_rejected():
    with pytest.raises(NotIndependentError) as exc:
        parse_instance("p 2 1\ne 1 2\ns 1 2\nt\n")
    assert exc.value.which == "source"


def test_repeated_token_vertex_rejected_with_line():
    # P3 with "s 1 1" against "t 3" once answered YES: the repeat was dropped
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 3 2\ne 1 2\ne 2 3\ns 1 1\nt 3\n")
    assert exc.value.line == 4
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 3 2\ne 1 2\ne 2 3\ns 1 3\n# target\nt 3 1 3\n")
    assert exc.value.line == 6


def test_render_format():
    g = Graph(2, [(0, 1)])
    inst = Instance(g, TokenSet(g, [0]), TokenSet(g, [1]))
    assert render_instance(inst) == "p 2 1\ne 1 2\ns 1\nt 2\n"


def test_trailing_comment_is_rejected_with_line():
    # only a line whose first field starts with '#' is a comment
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 2 1\ne 1 2 # note\ns\nt\n")
    assert exc.value.line == 2
    assert str(exc.value) == "line 2: edge line must be 'e <u> <v>'"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 2 1\ne 1 2\n  # indented comment\ns 1 # note\nt\n")
    assert exc.value.line == 4
    assert str(exc.value) == "line 4: expected integer source vertex, got '#'"


def test_first_error_in_line_order_wins():
    # an edge line's error beats any error on a later line and every
    # end-of-file check
    with pytest.raises(VertexOutOfRangeError) as exc:
        parse_instance("p 3 2\ne 1 2\ne 2 7\ns\nq\nt\n")
    assert str(exc.value) == "vertex 7 out of range for graph with 3 vertices"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 3 2\ne 1 2\ne x 9\ns 1 1\nt\n")
    assert exc.value.line == 3 and "got 'x'" in str(exc.value)
    with pytest.raises(VertexOutOfRangeError) as exc:
        parse_instance("p 3 9\ne 0 2\ns\n")
    assert exc.value.vertex == 0
    # an error on an earlier line beats a bad edge line after it
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("p 3 2\ne 1 2\np 3 2\ne 2 7\ns\nt\n")
    assert exc.value.line == 3 and "duplicate header" in str(exc.value)


def test_edge_faults_name_their_line_in_file_ids():
    """A self-loop and an edge given twice are reported at their own line,
    in the file's 1-based ids, before an error on any later line."""
    with pytest.raises(SelfLoopError) as exc:
        parse_instance("p 3 2\ne 1 2\ne 3 3\ns 1\nt 1\n")
    assert (str(exc.value), exc.value.line, exc.value.vertex) == (
        "line 3: self-loop at vertex 3", 3, 3
    )
    with pytest.raises(DuplicateEdgeError) as exc:
        parse_instance("p 3 2\ne 2 3\ne 3 2\ns 1\nt 1\n")
    assert (str(exc.value), exc.value.line, exc.value.edge) == (
        "line 3: duplicate edge (2, 3)", 3, (2, 3)
    )
    # the self-loop on line 2 beats the repeated token on line 4
    with pytest.raises(SelfLoopError) as exc:
        parse_instance("p 3 2\ne 1 1\ne 2 3\ns 1 1\nt 1\n")
    assert str(exc.value) == "line 2: self-loop at vertex 1"


def test_header_vertex_count_is_bounded(tmp_path):
    """A header above the limit is rejected before Graph allocates its n
    lists; the limit leaves room for graphs of a million vertices."""
    assert MAX_VERTICES >= 1 << 20
    for count in (MAX_VERTICES + 1, 10**29 + 7):
        text = f"p {count} 0\ns\nt\n"
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(text)
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: more than {MAX_VERTICES} vertices"
        path = tmp_path / "huge.ts"
        path.write_text(text)
        started = time.perf_counter()
        assert main(["decide", str(path)], out=io.StringIO()) == 2
        assert time.perf_counter() - started < 0.5
    assert parse_instance(f"p {MAX_VERTICES} 0\ns\nt\n").graph.n == MAX_VERTICES


# None of them is a vertex count from 11 up to MAX_VERTICES: a mutated
# header allocates n lists.  Counts above the limit are rejected first.
HUGE = [str(MAX_VERTICES + 1), "9" * 30]
BAD_INTEGERS = ["x", "-1", "+2", "1_0", "0", "1.0", "0x1", "\u0663", ""] + HUGE
WHITESPACE = [" ", "\t", "  ", "\xa0", "\u3000"]
SEPARATORS = ["\n", "\r\n", "\r", "\f", "\n\f", "\x85"]


def _random_line(rng, lines, n):
    """One line that is valid, malformed or a comment, drawn from the kinds
    a hand-edited file holds."""
    edges = [f[1:] for f in map(str.split, lines) if len(f) == 3 and f[0] == "e"]
    vertex = lambda: str(rng.randint(1, max(n, 1)))
    kind = rng.randrange(14)
    if kind == 0:
        return rng.choice(["# note", "#", "#e 1 2", "  # indented"])
    if kind == 1:
        return rng.choice(["", " ", "\t \t", "\xa0"])
    if kind == 2:
        return f"e {vertex()} {vertex()}"
    if kind == 3:
        v = vertex()
        return f"e {v} {v}"
    if kind == 4 and edges:
        u, v = rng.choice(edges)
        return f"e {v} {u}" if rng.random() < 0.5 else f"e {u} {v}"
    if kind == 5:
        return rng.choice([f"e {vertex()} {n + 1}", f"e {n + rng.randint(1, 3)} 1"])
    if kind == 6:
        return f"e {rng.choice(BAD_INTEGERS + ['9' * 30])} {vertex()}"
    if kind == 7:
        return f"e {vertex()} {vertex()} # note"
    if kind == 8:
        return rng.choice(["e", f"e {vertex()}", "e 1 2 3", "p", f"p {n} x"])
    if kind == 9:
        return rng.choice(
            [f"p {n} {len(edges)}", f"p {n} {len(edges) + 1}", "p -1 0"]
            + [f"p {count} {len(edges)}" for count in HUGE]
        )
    if kind == 10:
        return f"{rng.choice('st')} " + " ".join(vertex() for _ in range(rng.randint(0, 3)))
    if kind == 11:
        return f"{rng.choice('st')} {rng.choice(BAD_INTEGERS)}"
    if kind == 12:
        return rng.choice(["q 1", "E 1 2", "ee 1 2", "x"])
    return f"e {vertex()} {vertex()}"


def mutate(rng, text, n):
    """Text with one to four random line edits, random whitespace, line
    separators and, sometimes, no trailing newline."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        op = rng.randrange(6)
        i = rng.randint(0, len(lines))
        if op == 0:
            lines.insert(i, _random_line(rng, lines, n))
        elif op == 1 and lines:
            del lines[min(i, len(lines) - 1)]
        elif op == 2 and lines:
            lines.insert(i, rng.choice(lines))
        elif op == 3 and lines:
            j = min(i, len(lines) - 1)
            fields = lines[j].split()
            if len(fields) > 1:
                fields[rng.randrange(1, len(fields))] = rng.choice(BAD_INTEGERS)
                lines[j] = " ".join(fields)
        elif op == 4 and lines:
            j = min(i, len(lines) - 1)
            ws = rng.choice(WHITESPACE)
            lines[j] = ws + lines[j].replace(" ", rng.choice(WHITESPACE)) + ws
        elif op == 5 and lines:
            j = min(i, len(lines) - 1)
            fields = lines[j].split()
            if fields[:1] == ["e"] and len(fields) == 3:
                lines[j] = f"e {fields[2]} {fields[1]}"
    sep = rng.choice(SEPARATORS)
    out = sep.join(lines)
    return out + sep if rng.random() < 0.8 else out


def outcome(parse, text):
    """The error (type, message, line), or the parsed graph and token sets."""
    try:
        inst = parse(text)
    except BlockslideError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    g = inst.graph
    return ("ok", g.n, g.adjacency, g.edges, inst.source.vertices, inst.target.vertices)


def test_parse_matches_line_by_line_reference():
    rng = random.Random(20241)
    seen = set()
    for i in range(4000):
        inst = gen_fuzz_instance(i % 400)
        text = mutate(rng, render_instance(inst), inst.graph.n)
        got = outcome(parse_instance, text)
        assert got == outcome(reference_parse_instance, text), text
        seen.add(got[1].__name__ if got[0] == "error" else "ok")
        if got[0] == "error" and f"more than {MAX_VERTICES} vertices" in got[2]:
            seen.add("huge header")
    # the mutations reach every kind of outcome
    assert seen >= {
        "ok", "InstanceFormatError", "MissingSectionError",
        "VertexOutOfRangeError", "SelfLoopError", "DuplicateEdgeError",
        "NotIndependentError", "huge header",
    }, seen


def _layout_fault(rng, text):
    """The rendered text with one fault that keeps its layout of lines: an
    endpoint or a token out of range, past int()'s digit limit, in a syntax
    int() takes but the format does not (a sign, an underscore, an
    Arabic-Indic digit), or zero-padded, which the format allows, a
    self-loop, an edge given
    twice, a header count that is off, a repeated or a dependent token, a
    wrong tag, a field moved to another edge line or to a line of its own,
    a blank line, a line break other than LF inside a line, extra spaces
    or fields, the token lines swapped, or no last LF."""
    lines = text.splitlines()
    _, n, m = lines[0].split()
    n, m = int(n), int(m)
    edges = lines[1:1 + m]
    tokens = lines[-2:]
    odd = ["0", str(n + 1), str(n + 9), "9" * 30, "9" * 5000, "-1", "+1", "01", "1_0",
           "\u0661"]
    kind = rng.randrange(16)
    if kind == 0 and edges:
        i = rng.randrange(m)
        fields = edges[i].split()
        fields[rng.randint(1, 2)] = rng.choice(odd)
        edges[i] = " ".join(fields)
    elif kind == 1 and n:
        v = rng.randint(1, n)
        edges.insert(rng.randint(0, m), f"e {v} {v}")
        m += 1
    elif kind == 2 and edges:
        _, u, v = rng.choice(edges).split()
        edges.insert(rng.randint(0, m), rng.choice([f"e {u} {v}", f"e {v} {u}"]))
        m += 1
    elif kind == 3:
        m += rng.choice([-1, 1])
    elif kind == 4:
        n = rng.choice([max(n - 1, 0), n + 1, MAX_VERTICES + 1])
    elif kind == 5:
        j = rng.randrange(2)
        tokens[j] += " " + rng.choice(odd + [str(rng.randint(1, max(n, 1)))])
    elif kind == 6:
        j = rng.randrange(2)
        fields = tokens[j].split()
        tokens[j] += " " + (rng.choice(fields[1:]) if len(fields) > 1 else "1 1")
    elif kind == 7 and edges:
        _, u, v = rng.choice(edges).split()
        tokens[rng.randrange(2)] = f"{'st'[rng.randrange(2)]} {u} {v}"
    elif kind == 8:
        body = edges + tokens
        i = rng.choice([0, m, m + 1, rng.randrange(m + 2)])
        body[i] = rng.choice(["E", "q", "ee", "#", "p", "s", "t"]) + body[i][1:]
        edges, tokens = body[:m], body[m:]
    elif kind == 9 and m > 1:
        i, j = rng.sample(range(m), 2)
        head, _, last = edges[i].rpartition(" ")
        edges[i], edges[j] = head, f"{edges[j]} {last}"
    elif kind == 10:
        body = edges + tokens
        i = rng.randrange(len(body))
        fields = body[i].split(" ")
        j = rng.randrange(len(fields))
        fields[j] += rng.choice("\r\x0b\x0c\x1c\x1d\x1e\x85\u2028") + rng.choice(["", "1"])
        body[i] = " ".join(fields)
        edges, tokens = body[:m], body[m:]
    elif kind == 11:
        body = edges + tokens
        i = rng.randrange(len(body))
        body[i] = rng.choice([" ", ""]) + body[i].replace(" ", "  ") + rng.choice([" ", ""])
        edges, tokens = body[:m], body[m:]
    elif kind == 12:
        tokens.reverse()
    elif kind == 13 and edges:
        i = rng.choice([m - 1, rng.randrange(m)])
        edges[i] += " " + rng.choice(["1", "1 1", "e"])
    elif kind == 14 and edges:
        i = rng.randrange(m)
        head, _, last = edges[i].rpartition(" ")
        edges[i:i + 1] = rng.choice([[head, last], [edges[i], ""], ["", edges[i]]])
    else:
        return text[:-1]
    return "\n".join([f"p {n} {m}"] + edges + tokens) + "\n"


def test_rendered_texts_with_faults_match_line_by_line_reference():
    """Texts that keep render_instance's layout of lines but hold a fault,
    or an oddity the line walk accepts: the first error, or the instance,
    is that of the line-by-line reference."""
    rng = random.Random(909)
    seen = set()
    for i in range(4000):
        inst = gen_fuzz_instance(i % 500)
        text = _layout_fault(rng, render_instance(inst))
        got = outcome(parse_instance, text)
        assert got == outcome(reference_parse_instance, text), text
        seen.add(got[1].__name__ if got[0] == "error" else "ok")
    assert seen == {
        "ok", "InstanceFormatError", "MissingSectionError", "VertexOutOfRangeError",
        "SelfLoopError", "DuplicateEdgeError", "NotIndependentError",
    }, seen


@pytest.fixture
def line_walks(monkeypatch):
    """The texts the line walk reads, in call order."""
    calls = []
    original = instance_module._parse_lines

    def counted(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(instance_module, "_parse_lines", counted)
    return calls


def test_fields_that_miss_the_id_table_take_the_line_walk(line_walks):
    """With n <= m the endpoint fields are looked up in one table of the
    ids 1..n: a zero-padded id and one out of range miss it, and the line
    walk then gives the reference's instance or error, the padded text
    the instance of the plain one."""
    texts = [
        render_instance(inst) for inst in fuzz_corpus(60)
        if 0 < inst.graph.n <= inst.graph.m
    ]
    assert len(texts) >= 20
    for text in texts:
        header, first, rest = text.split("\n", 2)
        _, u, v = first.split()
        n = int(header.split()[1])
        padded = f"{header}\ne 0{u} {v}\n{rest}"
        assert outcome(parse_instance, padded) == outcome(reference_parse_instance, text)
        beyond = f"{header}\ne {u} {n + 1}\n{rest}"
        got = outcome(parse_instance, beyond)
        assert got == outcome(reference_parse_instance, beyond)
        assert got[:3] == ("error", VertexOutOfRangeError, f"vertex {n + 1} out of range "
                           f"for graph with {n} vertices")
    assert len(line_walks) == 2 * len(texts)


def test_rendered_instances_never_enter_the_line_walk(line_walks):
    texts = [render_instance(inst) for inst in fuzz_corpus(500) + union_corpus(50)]
    for text in texts:
        assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)
    assert line_walks == []
    # a comment line, a CR or a tab is read by the line walk alone
    for text in texts[:20]:
        for other in ("# note\n" + text, text.replace("\n", "\r\n"), text.replace(" ", "\t")):
            assert outcome(parse_instance, other) == outcome(reference_parse_instance, text)
    assert len(line_walks) == 60


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_isolated_vertices_cost_no_list():
    """A header at the vertex limit with no edge: a pointer per vertex, as
    every isolated vertex shares one empty tuple.  A list per vertex
    peaked at 72 MB."""
    assert _traced_peak(parse_instance, f"p {MAX_VERTICES} 0\ns\nt\n") < 24 * 2**20


def test_parse_peak_of_a_k100_chain_is_bounded():
    """Ten K100 cliques in a chain, 49,500 edge lines: the one split of the
    edge block, its words freed before Graph is built, peaks no higher
    than the per-line splits did (9,199,266 bytes with Python 3.11).  The
    same text after a comment line goes through the line walk, which keeps
    one int key per edge line in a set (7,789,984 bytes with Python 3.11;
    8,869,600 when it kept a 0-based tuple per edge line)."""
    edges = []
    for k in range(10):
        vs = range(99 * k, 99 * k + 100)
        edges += [(a, b) for a in vs for b in vs if a < b]
    g = Graph(991, edges)
    text = render_instance(Instance(g, TokenSet(g, [0]), TokenSet(g, [1])))
    assert _traced_peak(parse_instance, text) <= 9_199_266
    assert _traced_peak(parse_instance, "# c\n" + text) <= 8_900_000
