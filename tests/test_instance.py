import pytest

from blockslide import (
    Graph,
    InstanceFormatError,
    Instance,
    MissingSectionError,
    NotIndependentError,
    TokenSet,
    VertexOutOfRangeError,
    parse_instance,
    render_instance,
)
from blockslide.fuzz import gen_fuzz_instance


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
    assert inst.external_id(0) == 1


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
