from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_index.graph import (SIDE_X, Bipartition, Graph, GraphError,
                                 _bipartite_graphical,
                                 _random_bipartite_with_degrees,
                                 bipartition, biregular_profile,
                                 build_graph, components, even_closure,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular,
                                 gen_random_even_bipartite, without_isolated)

from conftest import simple_graphs


def test_build_graph_k3():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.degrees == (2, 2, 2)


def test_build_graph_isolated_vertex():
    g = build_graph(1, [])
    assert g.vertex_count == 1 and g.edge_count == 0


def test_build_graph_rejects_loop_by_default():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])
    g = Graph(2, ((0, 0),))  # the container itself accepts loops
    assert g.degrees[0] == 2


def test_build_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])


def test_isolated_vertices_by_counting_before_degrees():
    g = Graph(3_000_000, ())
    assert g.has_isolated_vertices()
    assert "degrees" not in g.__dict__
    assert build_graph(3, [(0, 1), (0, 1)]).has_isolated_vertices()
    assert not build_graph(4, [(0, 1), (2, 3)]).has_isolated_vertices()


def test_bipartition_c4_alternates():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    bip = bipartition(c4)
    assert bip is not None
    assert bip.side_of[0] != bip.side_of[1]
    assert bip.side_of[0] == bip.side_of[2]


def test_bipartition_odd_cycle_absent():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert bipartition(k3) is None


def test_bipartition_deterministic_root_side():
    k23 = gen_complete_bipartite(2, 3)
    bip = bipartition(k23)
    assert bip.side_of[0] == 0  # vertex 0 always lands on side X
    assert len(bip.x_vertices()) == 2 and len(bip.y_vertices()) == 3


def test_bipartition_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pool, rng.randint(0, min(len(pool), 14)))
        g = build_graph(n, edges)
        bip = bipartition(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        assert (bip is not None) == nx.is_bipartite(nxg)
        if bip is not None:
            assert all(bip.side_of[u] != bip.side_of[v] for u, v in edges)


def reference_bipartition(g):
    """BFS two-coloring through `Graph.other_end` with a deque, the smallest
    vertex of each component on side X; None on an odd cycle or a loop."""
    side = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if side[root] != -1:
            continue
        side[root] = SIDE_X
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for eid in g.incidence[v]:
                w = g.other_end(eid, v)
                if w == v:
                    return None
                if side[w] == -1:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return Bipartition(tuple(side))


@st.composite
def near_bipartite_multigraphs(draw):
    """Multigraphs on up to 10 vertices, possibly disconnected: parallel
    edges across a drawn side assignment, then a few arbitrary edges, which
    may be loops or close odd cycles."""
    n = draw(st.integers(1, 10))
    sides = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    across = [(u, v) for u in range(n) for v in range(n) if sides[u] != sides[v]]
    edges = draw(st.lists(st.sampled_from(across), max_size=16)) if across else []
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    return Graph(n, tuple(draw(st.permutations(edges))))


@settings(deadline=None, max_examples=300)
@given(near_bipartite_multigraphs())
def test_bipartition_matches_the_reference_bfs(g):
    assert bipartition(g) == reference_bipartition(g)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (2, 0)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)],
    [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2)],
    [(0, 1), (1, 1)],
    [(0, 1), (2, 2)],
])
def test_bipartition_rejects_odd_cycles_and_loops(edges):
    g = Graph(1 + max(map(max, edges)), tuple(edges))
    assert bipartition(g) is None
    assert reference_bipartition(g) is None


def test_biregular_profile_k24():
    prof = biregular_profile(gen_complete_bipartite(2, 4))
    assert (prof.a, prof.b, len(prof.x_vertices), len(prof.y_vertices)) == (2, 4, 4, 2)


def test_biregular_profile_path():
    prof = biregular_profile(build_graph(3, [(0, 1), (1, 2)]))
    assert (prof.a, prof.b) == (1, 2)


def test_biregular_profile_absent_for_k3():
    assert biregular_profile(build_graph(3, [(0, 1), (1, 2), (0, 2)])) is None


def test_biregular_profile_component_orientation():
    # two copies of K_{1,2} whose smallest vertices sit on opposite parts
    g = build_graph(6, [(0, 1), (0, 2), (4, 3), (5, 3)])
    prof = biregular_profile(g)
    assert prof is not None and (prof.a, prof.b) == (1, 2)
    assert set(prof.y_vertices) == {0, 3}


def test_gen_complete_bipartite_shapes():
    g = gen_complete_bipartite(2, 3)
    assert g.vertex_count == 5 and g.edge_count == 6
    assert gen_complete_bipartite(1, 1).edge_count == 1
    g = gen_complete_bipartite(4, 6)
    assert g.edge_count == 24
    assert (biregular_profile(g).a, biregular_profile(g).b) == (4, 6)
    with pytest.raises(GraphError):
        gen_complete_bipartite(0, 3)


def test_gen_grid_smallest_is_c4():
    g = gen_grid(2, 2)
    assert g.vertex_count == 4 and g.edge_count == 4
    assert set(g.degrees) == {2}


def test_gen_grid_counts_and_degrees():
    g = gen_grid(2, 3)
    assert g.vertex_count == 6 and g.edge_count == 2 * 2 + 3 * 1
    assert set(gen_grid(3, 3).degrees) == {2, 3, 4}
    assert set(gen_grid(2, 5).degrees) == {2, 3}
    with pytest.raises(GraphError):
        gen_grid(1, 5)


@pytest.mark.parametrize("a,b,scale,seed", [(2, 4, 1, 7), (3, 5, 1, 3),
                                            (2, 6, 2, 1), (4, 8, 2, 5),
                                            (5, 10, 3, 2), (3, 9, 2, 0)])
def test_gen_random_biregular_profile_and_simplicity(a, b, scale, seed):
    g = gen_random_biregular(a, b, scale, seed)
    assert g.is_simple()
    prof = biregular_profile(g)
    assert (prof.a, prof.b) == (a, b)
    assert len(prof.x_vertices) == scale * b and len(prof.y_vertices) == scale * a


def test_gen_random_biregular_forced_star():
    g = gen_random_biregular(1, 3, 1, 0)
    assert g.edge_count == 3 and g.degrees[3] == 3  # K_{1,3}, center forced


def test_gen_random_biregular_deterministic():
    g1 = gen_random_biregular(3, 6, 2, 42)
    g2 = gen_random_biregular(3, 6, 2, 42)
    assert g1.edges == g2.edges


def test_even_closure_even_graph_has_no_join_edges():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    closure = even_closure(c4)
    assert closure.edge_count == 8
    assert closure.edges[:4] == c4.edges  # copy 1 keeps the edge ids


def test_even_closure_star():
    closure = even_closure(gen_complete_bipartite(1, 3))
    assert closure.edge_count == 2 * 3 + 4  # all four vertices are odd
    assert closure.is_even()
    assert bipartition(closure) is not None


def test_even_closure_path():
    closure = even_closure(build_graph(3, [(0, 1), (1, 2)]))
    assert closure.edge_count == 2 * 2 + 2  # two odd-degree vertices


def test_components_split_and_order():
    g = build_graph(7, [(3, 4), (4, 5), (3, 5), (0, 1), (0, 2), (0, 6)])
    comps = components(g)
    assert len(comps) == 2
    assert comps[0].vertex_ids == (0, 1, 2, 6)
    assert comps[1].vertex_ids == (3, 4, 5)
    assert [g.edges[e] for e in comps[1].edge_ids] == [(3, 4), (4, 5), (3, 5)]


def test_components_partition_many_components_in_order():
    rng = random.Random(4)
    n = 300 * 6 + 7  # 300 disjoint K_{2,4} and 7 isolated vertices
    perm = rng.sample(range(n), n)
    edges = [(perm[6 * k + i], perm[6 * k + 2 + j])
             for k in range(300) for i in range(2) for j in range(4)]
    rng.shuffle(edges)
    g = build_graph(n, edges)
    comps = components(g)
    assert len(comps) == 307
    firsts = [c.vertex_ids[0] for c in comps]
    assert firsts == sorted(firsts)
    assert sorted(v for c in comps for v in c.vertex_ids) == list(range(n))
    assert sorted(e for c in comps for e in c.edge_ids) == list(range(len(edges)))
    for c in comps:
        assert list(c.vertex_ids) == sorted(c.vertex_ids)
        assert list(c.edge_ids) == sorted(c.edge_ids)
        for (u, v), host in zip(c.graph.edges, c.edge_ids):
            assert (c.vertex_ids[u], c.vertex_ids[v]) == g.edges[host]


def test_components_trivial_cases():
    assert components(build_graph(0, [])) == []
    assert len(components(gen_grid(3, 3))) == 1


def test_without_isolated_preserves_edge_ids():
    g = build_graph(5, [(1, 3), (3, 4)])
    trimmed, vmap = without_isolated(g)
    assert trimmed.vertex_count == 3
    assert vmap == (1, 3, 4)
    assert trimmed.edges == ((0, 1), (1, 2))


def test_without_isolated_returns_its_input_when_nothing_is_isolated():
    g = gen_grid(3, 4)
    trimmed, vmap = without_isolated(g)
    assert trimmed is g
    assert vmap == tuple(range(12))


def test_without_isolated_drops_isolated_vertices_at_both_ends():
    g = build_graph(7, [(2, 5), (1, 2), (5, 3)])
    trimmed, vmap = without_isolated(g)
    assert vmap == (1, 2, 3, 5)
    assert trimmed == Graph(4, ((1, 3), (0, 1), (3, 2)))


def test_without_isolated_builds_no_per_vertex_list():
    g = Graph(3_000_000, ())
    trimmed, vmap = without_isolated(g)
    assert (trimmed.vertex_count, vmap) == (0, ())
    assert "degrees" not in vars(g)  # the cached degree tuple was never built


@given(simple_graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degrees) == 2 * g.edge_count


@settings(deadline=None)
@given(st.integers(2, 4), st.integers(0, 30))
def test_even_bipartite_generator_invariants(half_max, seed):
    g = gen_random_even_bipartite(2 * half_max, seed)
    assert g.is_even()
    assert g.max_degree == 2 * half_max
    assert bipartition(g) is not None
    assert g.is_simple()


def test_even_bipartite_generator_reaches_max_degree_24():
    # from max degree 16 on, only Y degrees split into equal even parts
    # pass the Gale–Ryser test on most draws
    for max_degree in range(2, 25, 2):
        for seed in range(10):
            g = gen_random_even_bipartite(max_degree, seed)
            assert g.is_even() and g.is_simple() and bipartition(g) is not None
            assert g.max_degree == max_degree


@st.composite
def unions_of_complete_bipartite(draw):
    """Disjoint unions of K_{p,q} with p, q <= 3 (either way round, so the
    low-degree side of a component may hold its smallest vertex or not),
    labels shuffled, sometimes one edge removed."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=1, max_size=4))
    edges, n = [], 0
    for p, q in shapes:
        edges += [(n + i, n + p + j) for i in range(p) for j in range(q)]
        n += p + q
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in edges]
    if len(edges) > 1 and draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    return build_graph(n, edges)


def profile_by_components(g):
    """The profile read off one component Graph at a time."""
    bip = bipartition(g)
    if bip is None or g.vertex_count == 0 or g.has_isolated_vertices():
        return None
    pairs, x_verts = set(), []
    for comp in components(g):
        d0, d1 = ({g.degrees[v] for v in comp.vertex_ids if bip.side_of[v] == side}
                  for side in (0, 1))
        if len(d0) != 1 or len(d1) != 1:
            return None
        d0, d1 = d0.pop(), d1.pop()
        pairs.add((min(d0, d1), max(d0, d1)))
        lo_side = 0 if d0 <= d1 else 1
        x_verts += [v for v in comp.vertex_ids if bip.side_of[v] == lo_side]
    if len(pairs) != 1:
        return None
    a, b = pairs.pop()
    return a, b, tuple(sorted(x_verts))


@settings(deadline=None, max_examples=200)
@given(st.one_of(unions_of_complete_bipartite(), simple_graphs(max_n=8, max_m=10)))
def test_biregular_profile_matches_the_per_component_reading(g):
    prof = biregular_profile(g)
    expected = profile_by_components(g)
    if expected is None:
        assert prof is None
    else:
        assert (prof.a, prof.b, prof.x_vertices) == expected
        assert prof.y_vertices == tuple(v for v in range(g.vertex_count)
                                        if v not in prof.x_vertices)


@settings(deadline=None)
@given(st.sampled_from([(2, 4), (3, 6), (2, 3), (4, 6)]),
       st.integers(1, 3), st.integers(0, 40))
def test_random_biregular_always_matches_profile(profile, scale, seed):
    a, b = profile
    g = gen_random_biregular(a, b, scale, seed)
    prof = biregular_profile(g)
    assert (prof.a, prof.b) == (a, b)
    assert g.is_simple()


def test_seeded_generators_keep_their_output():
    # pinned digests of seeded output: a change to it must be deliberate
    def digest(graphs):
        h = hashlib.sha256()
        for g in graphs:
            h.update(repr((g.vertex_count, g.edges)).encode())
        return h.hexdigest()

    even = [gen_random_even_bipartite(d, seed) for d in (2, 4, 6, 8) for seed in range(5)]
    biregular = [gen_random_biregular(a, b, scale, seed)
                 for a, b, scale in ((3, 5, 2), (4, 8, 3), (3, 9, 2), (6, 6, 2), (5, 10, 1))
                 for seed in range(3)]
    assert digest(even) == "9bbd43d60e8104180d4a02427c6252df40007f024935ae79e1b001f82d46f776"
    assert digest(biregular) == "e2672de83536f4d47b5c6b1d94f5a3530fbf962342e1dcb3e0937e982b074e24"


def _realized_degree_pairs(nx: int, ny: int) -> set:
    """(X degrees, Y degrees) of every simple bipartite graph on nx + ny
    labelled vertices, by enumerating every edge set."""
    cells = [(x, y) for x in range(nx) for y in range(ny)]
    realized = set()
    for mask in range(1 << len(cells)):
        x_degs, y_degs = [0] * nx, [0] * ny
        for bit, (x, y) in enumerate(cells):
            if mask >> bit & 1:
                x_degs[x] += 1
                y_degs[y] += 1
        realized.add((tuple(x_degs), tuple(y_degs)))
    return realized


def test_gale_ryser_accepts_exactly_the_realized_degree_pairs():
    for nx, ny in itertools.product(range(4), repeat=2):
        realized = _realized_degree_pairs(nx, ny)
        # every pair up to one past the other side's size, unequal sums too
        for x_degs in itertools.product(range(ny + 2), repeat=nx):
            for y_degs in itertools.product(range(nx + 2), repeat=ny):
                expected = (x_degs, y_degs) in realized
                assert _bipartite_graphical(list(x_degs), list(y_degs)) == expected, \
                    (x_degs, y_degs)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5), st.integers(1, 5),
       st.data())
def test_gale_ryser_agrees_with_max_flow(x_degs, ny, data):
    nx = pytest.importorskip("networkx")
    # give each X stub a Y end, so both sides have the same sum
    ends = data.draw(st.lists(st.integers(0, ny - 1), min_size=sum(x_degs),
                              max_size=sum(x_degs)))
    y_degs = [ends.count(y) for y in range(ny)]
    flow = nx.DiGraph()
    for x, d in enumerate(x_degs):
        flow.add_edge("s", ("x", x), capacity=d)
        for y in range(ny):
            flow.add_edge(("x", x), ("y", y), capacity=1)
    for y, d in enumerate(y_degs):
        flow.add_edge(("y", y), "t", capacity=d)
    realizable = nx.maximum_flow_value(flow, "s", "t") == sum(x_degs)
    assert _bipartite_graphical(x_degs, y_degs) == realizable


def test_unrealizable_degrees_return_none_without_drawing():
    # equal sums and every degree within the other side's size, yet the
    # three degree-3 X vertices need 9 edges where Y offers them 3 + 3 + 2
    x_degs, y_degs = [3, 3, 3, 1], [4, 4, 2]
    assert not _bipartite_graphical(x_degs, y_degs)
    rng = random.Random(7)
    state = rng.getstate()
    assert _random_bipartite_with_degrees(x_degs, y_degs, rng, restarts=40) is None
    assert rng.getstate() == state
