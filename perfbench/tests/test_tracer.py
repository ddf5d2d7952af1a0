import importlib

import pytest

import tracer as tracing
from tracer import Span, Tracer, layer_totals, self_times

TEXT = "p 4 3\ne 1 2\ne 2 3\ne 3 4\ns 1 4\nt 1 3\n"  # P4, tokens slide 4 -> 3


def span(id, parent, start, end, name="f", layer="x", counts=None):
    s = Span(id, name, layer, "i", parent, start, end)
    s.counts = counts or {}
    return s


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, 0.0, 10.0, layer="root"),
        span(1, 0, 1.0, 4.0, layer="a"),
        span(2, 1, 1.5, 2.5, layer="b"),
        span(3, 0, 5.0, 9.0, layer="a"),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    by_layer, by_name = layer_totals(spans)
    assert by_layer == pytest.approx({"root": 3.0, "a": 6.0, "b": 1.0})
    assert by_name["f"]["calls"] == 4


def test_counts_are_summed_per_name():
    spans = [
        span(0, None, 0, 1, name="Graph.induced", counts={"edges_scanned": 5}),
        span(1, None, 1, 2, name="Graph.induced", counts={"edges_scanned": 7}),
    ]
    assert layer_totals(spans)[1]["Graph.induced"] == {"calls": 2, "edges_scanned": 12}


def originals():
    out = {}
    for module_name, path in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def test_uninstall_restores_the_original_functions():
    before = originals()
    tracer = Tracer()
    tracer.install()
    wrapped = originals()
    assert all(wrapped[k] is not before[k] for k in before)
    tracer.uninstall()
    after = originals()
    assert all(after[k] is before[k] for k in before)


def solve(text):
    instance = importlib.import_module("blockslide.instance")
    decide = importlib.import_module("blockslide.decide")
    inst = instance.parse_instance(text)
    return decide.decide(inst.graph, inst.source, inst.target).reachable


def test_traced_solve_records_a_span_tree_and_keeps_the_verdict():
    plain = solve(TEXT)
    tracer = Tracer()
    tracer.instance = "p4"
    tracer.install()
    try:
        root = tracer.open("solve", "bench")
        verdict = solve(TEXT)
        tracer.close(root)
    finally:
        tracer.uninstall()
    tracer.finish_instance()
    assert verdict is plain is True
    names = {s.name: s for s in tracer.spans}
    assert names["parse_instance"].parent == root.id
    assert names["decide"].parent == root.id
    assert names["compute_potentials"].layer == "potential"
    assert names["compute_potentials"].counts["passes"] >= 1
    # two cut vertices in two blocks each: four tree edges, both directions
    assert names["decompose"].counts["pairs"] == 8
    assert all(s.instance == "p4" and s.end >= s.start for s in tracer.spans)
    by_name = layer_totals(tracer.spans)[1]
    assert by_name["decompose"]["calls"] == 2  # is_block_graph, then decide


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("blockslide.decide", "no_such_function"),
        ("blockslide.no_such_module", "f"),
    ))
    tracer = Tracer()
    for _ in range(2):  # installed once per traced solve
        tracer.install()
        try:
            assert solve(TEXT) is True
        finally:
            tracer.uninstall()
    assert tracer.absent == ["blockslide.decide.no_such_function", "blockslide.no_such_module.f"]
