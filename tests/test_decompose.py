from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_index import decompose
from palette_index.coloring import palette_summary, verify_proper
from palette_index.decompose import (eulerian_circuit, factor_arcs,
                                     konig_coloring,
                                     matching_covering_max_degree,
                                     maximum_matching, parity_split,
                                     peel_perfect_matchings,
                                     split_part_vertices, swap_kempe_chain,
                                     two_factorization)
from palette_index.graph import (SIDE_X, SIDE_Y, Bipartition, Graph,
                                 GraphError, bipartition, biregular_profile,
                                 build_graph, components,
                                 gen_complete_bipartite,
                                 gen_random_biregular, gen_random_even_bipartite)

from conftest import bipartite_graphs


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def test_eulerian_circuit_c4():
    circuits = eulerian_circuit(cycle(4))
    assert len(circuits) == 1
    assert sorted(circuits[0]) == [0, 1, 2, 3]


def test_eulerian_circuit_k24_single_circuit():
    circuits = eulerian_circuit(gen_complete_bipartite(2, 4))
    assert len(circuits) == 1 and len(circuits[0]) == 8


def test_eulerian_circuit_rejects_odd_degree():
    with pytest.raises(GraphError):
        eulerian_circuit(build_graph(3, [(0, 1), (1, 2)]))


@st.composite
def even_multigraphs(draw):
    """Unions of closed walks on up to 10 vertices, edges shuffled: a
    one-vertex walk or a repeated vertex is a loop, a two-vertex walk a pair
    of parallel edges, and untouched vertices are isolated."""
    n = draw(st.integers(1, 10))
    walks = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=5),
                          max_size=6))
    edges = [(walk[i - 1], walk[i]) for walk in walks for i in range(len(walk))]
    return Graph(n, tuple(draw(st.permutations(edges))))


def circuits_by_components(g):
    """Hierholzer run on each component Graph from its local vertex 0, with
    the trail's edge ids mapped back to g."""
    circuits = []
    for comp in components(g):
        h = comp.graph
        if h.edge_count == 0:
            continue
        used, ptr = [False] * h.edge_count, [0] * h.vertex_count
        stack, trail = [(0, -1)], []
        while stack:
            v, in_edge = stack[-1]
            inc = h.incidence[v]
            while ptr[v] < len(inc) and used[inc[ptr[v]]]:
                ptr[v] += 1
            if ptr[v] == len(inc):
                stack.pop()
                if in_edge >= 0:
                    trail.append(in_edge)
            else:
                used[inc[ptr[v]]] = True
                stack.append((h.other_end(inc[ptr[v]], v), inc[ptr[v]]))
        circuits.append([comp.edge_ids[eid] for eid in reversed(trail)])
    return circuits


@settings(deadline=None, max_examples=200)
@given(even_multigraphs())
def test_eulerian_circuit_matches_the_per_component_runs(g):
    assert eulerian_circuit(g) == circuits_by_components(g)


def reference_eulerian_circuit(g):
    """Hierholzer on the host graph with one stack of (vertex, edge used to
    arrive) tuples and `Graph.other_end`: `eulerian_circuit` as first
    written, kept to pin its trails."""
    degrees = g.degrees
    used = [False] * g.edge_count
    assert all(d % 2 == 0 for d in degrees)
    ptr = [0] * g.vertex_count
    circuits = []
    for start in range(g.vertex_count):
        if degrees[start] == 0 or ptr[start] == len(g.incidence[start]):
            continue
        stack, trail = [(start, -1)], []
        while stack:
            v, in_edge = stack[-1]
            inc = g.incidence[v]
            while ptr[v] < len(inc) and used[inc[ptr[v]]]:
                ptr[v] += 1
            if ptr[v] == len(inc):
                stack.pop()
                if in_edge >= 0:
                    trail.append(in_edge)
            else:
                eid = inc[ptr[v]]
                used[eid] = True
                stack.append((g.other_end(eid, v), eid))
        trail.reverse()
        circuits.append(trail)
    return circuits


@settings(deadline=None, max_examples=300)
@given(even_multigraphs(), st.data())
def test_eulerian_circuit_matches_the_reference_walk(g, data):
    assert eulerian_circuit(g) == reference_eulerian_circuit(g)
    # g's edges shuffled among extra parallel pairs and loops
    n = g.vertex_count
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=4))
    host = Graph(n, tuple(data.draw(st.permutations(list(g.edges) + pairs + pairs))))
    assert eulerian_circuit(host) == reference_eulerian_circuit(host)


def test_eulerian_circuit_agrees_with_networkx_components():
    nx = pytest.importorskip("networkx")
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = []
        for _ in range(rng.randint(0, 5)):  # a union of closed walks is even
            walk = [rng.randrange(n)]
            for _ in range(rng.randint(1, 6)):
                walk.append(rng.choice([v for v in range(n) if v != walk[-1]]))
            if walk[-1] == walk[0]:
                walk.pop()
            if len(walk) > 1:
                edges += [(walk[i - 1], walk[i]) for i in range(1, len(walk))]
                edges.append((walk[-1], walk[0]))
        g = build_graph(n, edges)
        circuits = eulerian_circuit(g)
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        nontrivial = [c for c in nx.connected_components(nxg) if len(c) > 1]
        assert len(circuits) == len(nontrivial)
        covered = []
        for circuit in circuits:
            start = v = min(g.edges[circuit[0]])
            comp = nx.node_connected_component(nxg, start)
            assert sorted(circuit) == [eid for eid, (a, _) in enumerate(edges)
                                       if a in comp]
            for eid in circuit:  # a closed trail from its smallest vertex
                assert v in g.edges[eid]
                v = g.other_end(eid, v)
            assert v == start
            covered += circuit
        assert sorted(covered) == list(range(len(edges)))


def test_eulerian_circuit_consecutive_edges_share_vertices():
    g = gen_random_even_bipartite(4, 5)
    for circuit in eulerian_circuit(g):
        for e1, e2 in zip(circuit, circuit[1:] + circuit[:1]):
            assert set(g.edges[e1]) & set(g.edges[e2])


def test_two_factorization_c6_is_itself():
    factors = two_factorization(cycle(6))
    assert len(factors) == 1 and factors[0] == frozenset(range(6))


def _factor_degrees(g, factor):
    deg = [0] * g.vertex_count
    for eid in factor:
        u, v = g.edges[eid]
        deg[u] += 1
        deg[v] += 1
    return deg


def test_two_factorization_k44():
    g = gen_complete_bipartite(4, 4)
    factors = two_factorization(g)
    assert len(factors) == 2
    for factor in factors:
        assert all(d == 2 for d in _factor_degrees(g, factor))


def test_two_factorization_k5():
    k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    factors = two_factorization(k5)
    assert len(factors) == 2
    seen = set()
    for factor in factors:
        assert all(d == 2 for d in _factor_degrees(k5, factor))
        seen |= factor
    assert seen == set(range(10))


def test_two_factorization_with_loops():
    g = Graph(2, ((0, 1), (0, 1), (0, 0), (1, 1)))
    factors = two_factorization(g)  # 4-regular with loops
    assert len(factors) == 2


def test_two_factorization_rejects_odd_regular():
    with pytest.raises(GraphError):
        two_factorization(gen_complete_bipartite(3, 3))


def realization(g):
    """The in/out bipartite graph of g's Euler orientation: arc a from tail t
    to head h is the edge (t, n + h), in circuit order from each component's
    smallest vertex; returned with its sides and each arc's edge id."""
    n = g.vertex_count
    arcs, arc_source = [], []
    for circuit in eulerian_circuit(g):
        tail = min(min(g.edges[eid]) for eid in circuit)
        for eid in circuit:
            head = g.other_end(eid, tail)
            arcs.append((tail, n + head))
            arc_source.append(eid)
            tail = head
    bip = Bipartition(tuple([SIDE_X] * n + [SIDE_Y] * n))
    return Graph(2 * n, tuple(arcs)), bip, arc_source


@st.composite
def regular_even_multigraphs(draw):
    """2r-regular multigraphs, r = 1..4, on up to 12 vertices, edges shuffled:
    the union of the graphs of r permutations (a fixed point is a loop, a
    2-cycle a parallel pair), each permuting the same blocks of vertices, so
    the graph has at least one component per block."""
    n = draw(st.integers(1, 12))
    r = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    blocks = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    edges = []
    for _ in range(r):
        for block in blocks:
            edges += zip(block, draw(st.permutations(block)))
    return Graph(n, tuple(draw(st.permutations(edges))))


@settings(deadline=None, max_examples=300)
@given(regular_even_multigraphs())
def test_two_factorization_partitions_the_edges_into_2_factors(g):
    factors = two_factorization(g)
    assert len(factors) == g.max_degree // 2
    for factor in factors:
        assert all(d == 2 for d in _factor_degrees(g, factor))
    assert sorted(e for factor in factors for e in factor) == list(range(g.edge_count))
    factor, tail = factor_arcs(g)
    for i, edges in enumerate(factors, start=1):
        assert edges == {e for e, f in enumerate(factor) if f == i}
        # every vertex leaves by exactly one arc of each factor
        assert all(tail[e] in g.edges[e] for e in edges)
        assert sorted(tail[e] for e in edges) == list(range(g.vertex_count))


@pytest.mark.parametrize("g", [gen_complete_bipartite(4, 4), gen_complete_bipartite(6, 6)],
                         ids=["r2", "r3"])
@pytest.mark.parametrize("wrong", [lambda c, r: c % r + 1, lambda c, r: 0,
                                   lambda c, r: r + 1], ids=["other", "zero", "past-r"])
def test_two_factor_table_checks_every_arc_color(monkeypatch, g, wrong):
    table = decompose._regular_bipartite_table

    def one_wrong(n, r, tails, heads):
        color = table(n, r, tails, heads)
        color[0] = wrong(color[0], r)
        return color

    monkeypatch.setattr(decompose, "_regular_bipartite_table", one_wrong)
    with pytest.raises(AssertionError, match="misses an out-arc or an in-arc"):
        factor_arcs(g)


@st.composite
def regular_bipartite_arcs(draw, r):
    """An r-regular bipartite multigraph with sides 0..n-1 and n..2n-1, as
    (n, arcs) with the arcs shuffled: the union of r permutations of the
    same blocks of vertices, so it has at least one component per block,
    and permutations that agree give parallel arcs."""
    n = draw(st.integers(1, 10))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    blocks = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [n])]
    arcs = []
    for _ in range(r):
        for block in blocks:
            arcs += [(t, n + h) for t, h in zip(block, draw(st.permutations(block)))]
    return n, draw(st.permutations(arcs))


# r = 4 and 8 only split, r = 6 splits once into two Kőnig levels of
# degree 3, and an odd r is one Kőnig level
@pytest.mark.parametrize("r", range(1, 9))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_regular_bipartite_table_is_a_proper_r_coloring(r, data):
    nx = pytest.importorskip("networkx")
    n, arcs = data.draw(regular_bipartite_arcs(r))
    tails, heads = [t for t, _ in arcs], [h for _, h in arcs]
    color = decompose._regular_bipartite_table(n, r, tails, heads)
    assert len(color) == len(arcs)
    classes = {c: [a for a, col in enumerate(color) if col == c] for c in range(1, r + 1)}
    # every vertex sees every color exactly once, on its arcs
    for v in range(2 * n):
        seen = sorted(color[a] for a, arc in enumerate(arcs) if v in arc)
        assert seen == list(range(1, r + 1))
    # each color class is a perfect matching of the multigraph
    h = nx.MultiGraph()
    h.add_nodes_from(range(2 * n))
    h.add_edges_from(arcs)
    for c, cls in classes.items():
        assert len(cls) == n
        assert nx.is_perfect_matching(h, {arcs[a] for a in cls})
    assert sorted(a for cls in classes.values() for a in cls) == list(range(len(arcs)))


def test_maximum_matching_sizes():
    k33 = gen_complete_bipartite(3, 3)
    assert len(maximum_matching(k33, bipartition(k33))) == 3
    k13 = gen_complete_bipartite(1, 3)
    assert len(maximum_matching(k13, bipartition(k13))) == 1
    c6 = cycle(6)
    assert len(maximum_matching(c6, bipartition(c6))) == 3


def test_maximum_matching_is_a_matching():
    g = gen_random_biregular(3, 5, 2, 9)
    assert_is_matching(g, maximum_matching(g, bipartition(g)))


def assert_is_matching(g, matching):
    touched = set()
    for eid in matching:
        u, v = g.edges[eid]
        assert u not in touched and v not in touched
        touched.update((u, v))


def test_maximum_matching_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2)
    for _ in range(200):
        a, b = rng.randint(1, 8), rng.randint(1, 8)
        pool = [(i, a + j) for i in range(a) for j in range(b)]
        edges = rng.sample(pool, rng.randint(1, len(pool)))
        edges += rng.choices(edges, k=rng.randint(0, 4))  # parallel edges
        g = build_graph(a + b, edges)
        bip = bipartition(g)
        matching = maximum_matching(g, bip)
        assert_is_matching(g, matching)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(a + b))
        nxg.add_edges_from(edges)
        reference = nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=bip.x_vertices())
        assert 2 * len(matching) == len(reference)


def test_maximum_matching_on_a_long_path_keeps_the_recursion_limit():
    # Edges are listed from the far end and the odd vertices form side X, so
    # the first phase matches each x to its right neighbour and the last x is
    # left with one augmenting path through the whole path.
    n = 20_000
    g = build_graph(n, [(i, i + 1) for i in reversed(range(n - 1))])
    bip = Bipartition(tuple(SIDE_X if v % 2 else SIDE_Y for v in range(n)))
    limit = sys.getrecursionlimit()
    matching = maximum_matching(g, bip)
    assert len(matching) == n // 2
    assert_is_matching(g, matching)
    assert sys.getrecursionlimit() == limit


def test_peel_perfect_matchings_rejects_a_non_regular_graph():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])  # has a perfect matching
    with pytest.raises(GraphError):
        peel_perfect_matchings(path, bipartition(path))


def test_peel_perfect_matchings_splits_a_regular_multigraph():
    g = build_graph(4, [(0, 2), (0, 2), (0, 3), (1, 3), (1, 3), (1, 2)])
    classes = peel_perfect_matchings(g, bipartition(g))
    assert len(classes) == 3
    assert sorted(e for cls in classes for e in cls) == list(range(6))
    for cls in classes:
        assert len(cls) == 2
        assert_is_matching(g, cls)


def test_konig_k33_single_palette():
    g = gen_complete_bipartite(3, 3)
    coloring = konig_coloring(g, bipartition(g))
    assert len(set(coloring)) == 3
    assert palette_summary(g, coloring).distinct == 1


def test_konig_k23():
    g = gen_complete_bipartite(2, 3)
    coloring = konig_coloring(g, bipartition(g))
    assert not verify_proper(g, coloring)
    assert len(set(coloring)) == 3
    summary = palette_summary(g, coloring)
    full = frozenset({1, 2, 3})
    for v in range(g.vertex_count):
        if g.degrees[v] == 3:
            assert summary.palette_of[v] == full


def test_konig_single_edge():
    g = build_graph(2, [(0, 1)])
    assert konig_coloring(g, bipartition(g)) == [1]


@st.composite
def bipartite_multigraphs(draw):
    """Bipartite graphs with parallel edges, each edge stored either way round."""
    a = draw(st.integers(1, 5))
    b = draw(st.integers(1, 5))
    pool = [(i, a + j) for i in range(a) for j in range(b)]
    drawn = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                          min_size=1, max_size=24))
    return build_graph(a + b, [(v, u) if flip else (u, v) for (u, v), flip in drawn])


def reference_konig_coloring(g, bip):
    """Kőnig's alternating-path coloring through `Graph.other_end`:
    `konig_coloring` as first written, kept to pin its colors."""
    delta = g.max_degree
    at = [[-1] * (delta + 1) for _ in range(g.vertex_count)]
    color = [0] * g.edge_count
    for eid, (u, v) in enumerate(g.edges):
        if bip.side_of[u] == SIDE_X:
            u, v = v, u
        a = at[u].index(-1, 1)
        if at[v][a] >= 0:
            b = at[v].index(-1, 1)
            path, w, c = [], v, a
            while (e := at[w][c]) >= 0:
                path.append(e)
                w = g.other_end(e, w)
                c = a + b - c
            for e in path:
                x, y = g.edges[e]
                at[x][color[e]] = at[y][color[e]] = -1
            for e in path:
                color[e] = c = a + b - color[e]
                x, y = g.edges[e]
                at[x][c] = at[y][c] = e
        color[eid] = a
        at[u][a] = at[v][a] = eid
    return color


@st.composite
def sided_multigraphs(draw):
    """Bipartite multigraphs on up to 12 vertices under a drawn side
    assignment, with parallel edges, isolated vertices and several
    components, edges stored either way round."""
    n = draw(st.integers(2, 12))
    sides = draw(st.lists(st.sampled_from([SIDE_X, SIDE_Y]), min_size=n, max_size=n))
    across = [(u, v) for u in range(n) for v in range(n) if sides[u] != sides[v]]
    edges = draw(st.lists(st.sampled_from(across), max_size=30)) if across else []
    return build_graph(n, edges), Bipartition(tuple(sides))


@settings(deadline=None, max_examples=300)
@given(sided_multigraphs())
def test_konig_coloring_matches_the_reference_walk(g_bip):
    g, bip = g_bip
    assert konig_coloring(g, bip) == reference_konig_coloring(g, bip)
    bfs = bipartition(g)
    assert konig_coloring(g, bfs) == reference_konig_coloring(g, bfs)


def test_konig_coloring_matches_the_reference_on_a_realization_graph():
    # the 2-regular in/out graph of a 4-regular graph's Euler orientation,
    # where one alternating chain runs 550 edges long
    g = gen_random_biregular(4, 4, 125, 1)
    assert g.edge_count == 2000
    h, bip, _ = realization(g)
    assert h.max_degree == 2 and h.edge_count == 2000
    assert konig_coloring(h, bip) == reference_konig_coloring(h, bip)


def test_konig_coloring_matches_the_reference_on_a_3_9_graph():
    g = gen_random_biregular(3, 9, 30, 2)
    bip = bipartition(g)
    assert konig_coloring(g, bip) == reference_konig_coloring(g, bip)


def edge_table(g, color, k):
    at = [[-1] * (k + 1) for _ in range(g.vertex_count)]
    for eid, (x, y) in enumerate(g.edges):
        at[x][color[eid]] = at[y][color[eid]] = eid
    return at


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_swap_kempe_chain_swaps_a_hand_built_chain_in_place(length):
    # the 1/3 chain 0-1-...-length starts at vertex 0, which misses 3; a
    # color-2 pendant hangs off each path vertex and must not move
    n = length + 1
    edges = [(i, i + 1) for i in range(length)] + [(i, n + i) for i in range(n)]
    g = build_graph(2 * n, edges)
    color = [1 if i % 2 == 0 else 3 for i in range(length)] + [2] * n
    at = edge_table(g, color, 3)
    ends = [x ^ y for x, y in g.edges]
    assert swap_kempe_chain(at, color, ends, 0, 1, 3) == length  # the far end
    assert color == [3 if i % 2 == 0 else 1 for i in range(length)] + [2] * n
    assert at == edge_table(g, color, 3)  # every slot, so no stale entry
    for eid, (x, y) in enumerate(g.edges):
        assert at[x][color[eid]] == at[y][color[eid]] == eid
    assert at[0][1] == -1 and at[0][3] == 0
    last = 1 if length % 2 else 3  # the color the far end now lacks
    assert at[length][last] == -1 and at[length][4 - last] == length - 1


@settings(deadline=None)
@given(bipartite_multigraphs())
def test_konig_properness_and_color_count(g):
    coloring = konig_coloring(g, bipartition(g))
    assert not verify_proper(g, coloring)
    assert len(set(coloring)) == g.max_degree
    full = frozenset(range(1, g.max_degree + 1))
    summary = palette_summary(g, coloring)
    for v in range(g.vertex_count):
        if g.degrees[v] == g.max_degree:
            assert summary.palette_of[v] == full


def test_matching_covering_k23():
    g = gen_complete_bipartite(2, 3)
    matching = matching_covering_max_degree(g, bipartition(g))
    assert len(matching) == 2
    covered = {v for eid in matching for v in g.edges[eid]}
    assert {0, 1} <= covered  # both degree-3 vertices


def test_matching_covering_regular_is_perfect():
    g = gen_complete_bipartite(3, 3)
    matching = matching_covering_max_degree(g, bipartition(g))
    assert len(matching) == 3


def test_matching_covering_star():
    g = gen_complete_bipartite(1, 3)
    matching = matching_covering_max_degree(g, bipartition(g))
    assert len(matching) == 1
    eid = next(iter(matching))
    assert 0 in g.edges[eid]


@settings(deadline=None)
@given(bipartite_graphs())
def test_matching_covering_minimality(g):
    bip = bipartition(g)
    matching = matching_covering_max_degree(g, bip)
    delta = g.max_degree
    maxdeg_vertices = {v for v in range(g.vertex_count) if g.degrees[v] == delta}
    covered = {v for eid in matching for v in g.edges[eid]}
    assert maxdeg_vertices <= covered
    # removing any member uncovers some max-degree vertex
    for eid in matching:
        rest = {v for other in matching if other != eid
                for v in g.edges[other]}
        assert not (maxdeg_vertices <= rest)


def test_split_part_vertices_k24():
    g = gen_complete_bipartite(2, 4)  # degree 4 on side X, 2 on side Y
    split, back = split_part_vertices(g, 1)  # both sides split
    assert split.vertex_count == 2 * 4 + 4 * 2
    assert set(split.degrees) == {1}
    assert split.edge_count == g.edge_count
    assert back == tuple(v for v in range(g.vertex_count) for _ in range(g.degrees[v]))
    # merging back via the map recovers the original edges, ids unchanged
    assert tuple((back[u], back[v]) for u, v in split.edges) == g.edges


def test_split_identity_when_target_is_degree():
    g = gen_complete_bipartite(3, 3)
    split, back = split_part_vertices(g, 3)
    assert split == g
    assert back == tuple(range(g.vertex_count))


def test_split_k36_to_cubic():
    g = gen_complete_bipartite(3, 6)  # X side: 3 vertices of degree 6
    split, _ = split_part_vertices(g, 3)
    assert set(split.degrees) == {3}
    assert split.vertex_count == 3 * 2 + 6


def test_split_rejects_a_loop_and_a_bad_target():
    g = Graph(2, ((0, 1), (0, 1), (1, 1)))  # degrees 2, 4
    with pytest.raises(GraphError, match="loops"):
        split_part_vertices(g, 2)
    with pytest.raises(GraphError, match="positive"):
        split_part_vertices(gen_complete_bipartite(2, 2), 0)


def test_split_rejects_indivisible():
    g = gen_complete_bipartite(2, 3)  # degree 3 on side X, 2 on side Y
    for target in (2, 3):  # indivisible on side X, then on side Y
        with pytest.raises(GraphError, match="not divisible"):
            split_part_vertices(g, target)


def reference_split_part(g, bip, side, target):
    """`split_part_vertices` as it was when it split one side of a
    bipartition: each vertex of that side becomes degree/target copies."""
    side_val = SIDE_X if side == "X" else SIDE_Y
    on_side = [bip.side_of[v] == side_val for v in range(g.vertex_count)]
    base, back = [], []
    for v in range(g.vertex_count):
        base.append(len(back))
        back.extend([v] * (g.degrees[v] // target if on_side[v] else 1))
    chunk_of = {}
    for v in range(g.vertex_count):
        if on_side[v]:
            for pos, eid in enumerate(g.incidence[v]):
                chunk_of[eid] = pos // target

    def map_end(v, eid):
        return base[v] + chunk_of[eid] if on_side[v] else base[v]

    edges = tuple((map_end(u, eid), map_end(v, eid))
                  for eid, (u, v) in enumerate(g.edges))
    return Graph(len(back), edges), tuple(back)


def reference_split(g, bip, target):
    """The two-pass split the biregular rows used: side X, then side Y of
    the result, with the back maps composed to g's vertex ids."""
    back = tuple(range(g.vertex_count))
    for side in ("X", "Y"):
        g, step = reference_split_part(g, bip, side, target)
        bip = Bipartition(tuple(bip.side_of[w] for w in step))
        back = tuple(back[w] for w in step)
    return g, back


# (a, b, target) for the splits of the (3,3r), (5,5r) and (r,2r) rows, the
# (2k,4k) rest of an odd (r,2r), and a few other common divisors
_SPLIT_PROFILES = [(3, 9, 3), (6, 9, 3), (5, 10, 5), (4, 8, 2), (6, 12, 3),
                   (3, 6, 3), (5, 15, 5), (2, 4, 1), (4, 12, 4), (8, 12, 4),
                   (8, 16, 4)]


@pytest.mark.parametrize("a,b,target", _SPLIT_PROFILES)
def test_split_matches_the_two_pass_reference(a, b, target):
    rng = random.Random(a * 100 + b)
    for scale in (1, 2, 3, 5):
        for seed in range(4):
            g = gen_random_biregular(a, b, scale, seed)
            # and a copy with the sides interleaved and the edges shuffled
            # and reversed at random
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            edges = [(perm[v], perm[u]) if rng.random() < 0.5 else (perm[u], perm[v])
                     for u, v in g.edges]
            rng.shuffle(edges)
            for h in (g, build_graph(g.vertex_count, edges)):
                split, back = split_part_vertices(h, target)
                ref, ref_back = reference_split(h, bipartition(h), target)
                assert split.vertex_count == ref.vertex_count
                assert split.edges == ref.edges
                assert back == ref_back
                assert set(split.degrees) == {target}


def test_parity_split_c4():
    red, blue = parity_split(cycle(4))
    assert {frozenset(red), frozenset(blue)} == {frozenset({0, 2}), frozenset({1, 3})}


def test_parity_split_k24_half_degrees():
    g = gen_complete_bipartite(2, 4)
    red, blue = parity_split(g)
    for v in range(g.vertex_count):
        in_red = sum(1 for e in g.incidence[v] if e in red)
        assert in_red == g.degrees[v] // 2
    halves = [biregular_profile(
        build_graph(g.vertex_count, [g.edges[e] for e in sorted(side)]))
        for side in (red, blue)]
    assert all(p is not None and (p.a, p.b) == (1, 2) for p in halves)


def test_parity_split_rejects_odd_edge_count():
    with pytest.raises(GraphError):
        parity_split(cycle(3))


@settings(deadline=None)
@given(st.integers(2, 3), st.integers(0, 30))
def test_parity_split_property(half, seed):
    g = gen_random_even_bipartite(2 * half, seed)
    if any(len(c) % 2 for c in eulerian_circuit(g)):
        return  # odd component edge count is a documented error case
    red, blue = parity_split(g)
    assert red | blue == set(range(g.edge_count)) and not (red & blue)
    for v in range(g.vertex_count):
        in_red = sum(1 for e in g.incidence[v] if e in red)
        assert in_red == g.degrees[v] // 2
