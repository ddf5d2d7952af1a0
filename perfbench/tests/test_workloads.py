import pytest

import workloads as W


def parse(text):
    """(n, edges, source, target) of an instance text, 0-based."""
    n, edges, source, target = 0, [], [], []
    for line in text.splitlines():
        tag, *fields = line.split()
        values = [int(f) - 1 for f in fields]
        if tag == "p":
            n = int(fields[0])
        elif tag == "e":
            edges.append(tuple(values))
        elif tag == "s":
            source = values
        elif tag == "t":
            target = values
    return n, edges, source, target


def independent(edges, tokens):
    occupied = set(tokens)
    return not any(u in occupied and v in occupied for u, v in edges)


@pytest.mark.parametrize("workload", ["ladder", "dense", "forest"])
def test_same_seed_gives_identical_texts(workload):
    first = W.pool(workload, 7)
    assert W.pool(workload, 7) == first
    assert W.pool(workload, 8) != first


def test_same_seed_gives_identical_rungs_and_oracle_set():
    for shape in W.LADDER_SHAPES:
        assert W.ladder_instance(3, shape, 256) == W.ladder_instance(3, shape, 256)
    assert W.oracle_instances(20) == W.oracle_instances(20)


@pytest.mark.parametrize("shape", W.LADDER_SHAPES)
def test_every_walk_step_is_legal(shape):
    rng = W.rng_for(5, "test", shape)
    gb = W.SHAPES[shape](200, rng)
    edges = {frozenset(e) for e in gb.edges}
    source = W.greedy_independent_set(gb.adj, range(gb.n), gb.n // 4, rng)
    target, moves = W.slide_walk(gb.adj, source, 4 * gb.n, rng)
    tokens = set(source)
    assert independent(gb.edges, tokens)
    for u, v in moves:
        assert u in tokens and v not in tokens and frozenset((u, v)) in edges
        tokens.remove(u)
        tokens.add(v)
        assert independent(gb.edges, tokens)
    assert sorted(tokens) == target
    if shape != "star":  # leaf tokens of a star are frozen
        assert moves


def test_illegal_slides_are_refused():
    gb = W.build_path(4, None)  # 0-1-2-3
    assert W.slide_is_legal(gb.adj, {0, 3}, 0, 1)
    assert not W.slide_is_legal(gb.adj, {0, 2}, 0, 1)  # lands next to 2
    assert not W.slide_is_legal(gb.adj, {0, 3}, 0, 2)  # not an edge
    assert not W.slide_is_legal(gb.adj, {1, 3}, 0, 1)  # no token on 0


@pytest.mark.parametrize("workload", ["ladder", "dense", "forest"])
def test_pool_instances_are_well_formed(workload):
    for _, text in W.pool(workload, 1):
        n, edges, source, target = parse(text)
        assert len(set(map(frozenset, edges))) == len(edges)
        assert all(0 <= u < n and 0 <= v < n and u != v for u, v in edges)
        assert source and len(source) == len(target)
        assert independent(edges, source) and independent(edges, target)


def test_shape_sizes():
    rng = W.rng_for(0, "sizes")
    for n in (64, 1000):
        assert W.build_path(n, rng).n == n
        assert W.build_star(n, rng).n == n
        assert W.build_caterpillar(n, rng).n == n
        assert W.build_random_blocks(n, rng).n == n
        assert W.build_k4_chain(n, rng).n == 1 + 3 * ((n - 1) // 3)


def test_dense_edges_stay_within_budget():
    for i in range(0, len(W.DENSE_EDGE_BUDGETS), 20):
        budget = W.DENSE_EDGE_BUDGETS[i]
        _, edges, _, _ = parse(W.dense_instance(2, i))
        assert budget - 435 < len(edges) <= budget  # 435 edges in a K30


def test_every_forest_component_holds_a_token():
    n, edges, source, _ = parse(W.forest_instance(4, 0))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    roots = {find(v) for v in range(n)}
    assert len(roots) == W.FOREST_COMPONENTS[0]
    assert {find(v) for v in source} == roots
