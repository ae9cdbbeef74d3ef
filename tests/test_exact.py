from __future__ import annotations

import hashlib
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from palette_index.coloring import palette_summary, verify_proper
from palette_index.exact import (_saturation_order, _twin_constraints,
                                 palette_index_exact, palette_index_naive)
from palette_index.graph import (GraphError, build_graph,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular, without_isolated)

from conftest import simple_graphs


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_palette_index_k23():
    result = palette_index_exact(gen_complete_bipartite(2, 3))
    assert result.value == 4 and result.proved
    summary = palette_summary(gen_complete_bipartite(2, 3), result.witness)
    assert summary.distinct == 4


def test_palette_index_c5():
    result = palette_index_exact(cycle(5))
    assert result.value == 3 and result.proved  # regular class 2, so >= 3


def test_palette_index_k4_regular_class1():
    assert palette_index_exact(complete(4)).value == 1


def test_palette_index_witness_achieves_value():
    g = gen_grid(3, 3)
    result = palette_index_exact(g)
    assert not verify_proper(g, result.witness)
    assert palette_summary(g, result.witness).distinct == result.value == 5


def test_palette_index_rejects_isolated():
    with pytest.raises(GraphError):
        palette_index_exact(build_graph(3, [(0, 1)]))


def test_palette_index_node_budget_flags_result():
    g = gen_grid(3, 3)
    result = palette_index_exact(g, max_nodes=5)
    assert not result.proved
    assert palette_summary(g, result.witness).distinct == result.value


def test_search_limits_validation():
    with pytest.raises(ValueError, match="max_nodes must be positive, got 0"):
        palette_index_exact(gen_grid(3, 3), max_nodes=0)


@pytest.mark.parametrize("seconds", [float("nan"), 0.0, -1.0])
def test_search_limits_refuse_a_wall_budget_that_is_not_positive(seconds):
    # NaN compares False both ways, so a `<= 0` test would let it through
    # and the deadline would never fire
    with pytest.raises(ValueError, match="max_seconds must be positive"):
        palette_index_exact(gen_grid(3, 3), max_seconds=seconds)


def test_regular_class2_never_two():
    for g in (cycle(5), cycle(7), complete(3)):
        assert palette_index_exact(g).value != 2


@st.composite
def loopless_multigraphs(draw, max_n=6, max_m=8):
    """Loopless multigraphs with no isolated vertex, parallel edges likely,
    edge ids in drawn order."""
    n = draw(st.integers(2, max_n))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_m))
    g, _ = without_isolated(build_graph(n, edges))
    return g


@settings(deadline=None, max_examples=120)
@given(st.one_of(simple_graphs(max_n=6, max_m=7), loopless_multigraphs()))
def test_solver_matches_naive_enumeration(g):
    g, _ = without_isolated(g)
    if g.vertex_count < 2:
        return
    assert palette_index_exact(g).value == palette_index_naive(g)


@st.composite
def flowers(draw):
    """A hub with 2 or 3 cycles of length 4, 3 or 2 through it (a 2-cycle is
    a pair of parallel edges, a triangle is odd), maybe one chord, relabeled
    and reordered: many vertices of one degree beside the hub's, so that
    two ends of that one degree are often orphaned at slack 2."""
    petals = draw(st.lists(st.sampled_from([4, 3, 2]), min_size=2, max_size=3)
                  .filter(lambda p: sum(p) <= 10))  # the naive side is exponential
    edges = []
    n = 1
    for size in petals:
        cyc = [0, *range(n, n + size - 1)]
        n += size - 1
        edges += [(cyc[i], cyc[i - 1]) for i in range(size)]
    rng = draw(st.randoms())
    if draw(st.booleans()):
        edges.append(tuple(rng.sample(range(n), 2)))
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    return build_graph(n, [(label[a], label[b]) for a, b in edges])


@settings(deadline=None, max_examples=200)
@given(st.one_of(flowers(), loopless_multigraphs(max_n=7, max_m=9)))
# hub 2 with a digon to 0 and a square through 3, 1 and 4: palette index 3
@example(build_graph(5, [(0, 2), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
def test_solver_matches_naive_where_two_degrees_meet(g):
    # the slack-2 prune needs two orphaned ends of different degrees; one
    # that also fired on two of one degree gets flowers wrong
    if len(g.degree_set()) < 2:
        return
    result = palette_index_exact(g)
    assert result.proved
    assert result.value == palette_index_naive(g)
    assert palette_summary(g, result.witness).distinct == result.value


def test_saturation_order_takes_the_vertex_with_fewest_edges_left():
    # 2x3 grid: rows 0-1-2 and 3-4-5, edges 0..3 along the rows, 4..6
    # across.  Corner 0 lists 0 (0-1) and 4 (0-3), leaving corner 3 one edge,
    # 2 (3-4), so it goes next.  Then 1, 2, 4 and 5 have two edges left and
    # 1 wins by id (1, 5), leaving 2 with 6 and 4 with 3.  Ascending degree
    # alone would take the four corners first: [0, 4, 1, 6, 2, 3, 5]
    assert _saturation_order(gen_grid(2, 3)) == [0, 4, 2, 1, 5, 6, 3]


@settings(deadline=None, max_examples=200)
@given(loopless_multigraphs(max_n=7, max_m=12))
def test_saturation_order_is_fail_first(g):
    order = _saturation_order(g)
    assert sorted(order) == list(range(g.edge_count))
    # replay: each run of the order starts at the unfinished vertex with the
    # fewest unlisted edges, lowest id on ties, and lists exactly those
    # edges in id order
    unlisted = [set(ids) for ids in g.incidence]
    pos = 0
    while pos < len(order):
        v = min((v for v in range(g.vertex_count) if unlisted[v]),
                key=lambda v: (len(unlisted[v]), v))
        run = sorted(unlisted[v])
        assert order[pos:pos + len(run)] == run
        for eid in run:
            for w in g.edges[eid]:
                unlisted[w].discard(eid)
        pos += len(run)


@st.composite
def twin_rich_graphs(draw):
    """Subgraphs of K_{a,b} with a <= 3 and b <= 4, which have many twin
    vertices, maybe with one edge doubled."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 4))
    pool = [(i, a + j) for i in range(a) for j in range(b)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1,
                          max_size=8))
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    g, _ = without_isolated(build_graph(a + b, draw(st.permutations(edges))))
    return g


@settings(deadline=None, max_examples=150)
@given(twin_rich_graphs())
def test_solver_matches_naive_on_twin_rich_graphs(g):
    result = palette_index_exact(g)
    assert result.proved
    assert result.value == palette_index_naive(g)
    assert not verify_proper(g, result.witness)
    assert palette_summary(g, result.witness).distinct == result.value


def twin_constraints_by_frozenset(g, order):
    """Reference for `_twin_constraints`: vertices grouped by the frozenset
    of their neighbours, a parallel edge showing as a set shorter than the
    neighbour list."""
    by_neighbours = {}
    for v in range(g.vertex_count):
        nbrs = [g.other_end(eid, v) for eid in g.incidence[v]]
        key = frozenset(nbrs)
        if len(key) == len(nbrs):
            by_neighbours.setdefault(key, []).append(v)
    above = [()] * g.edge_count
    pos = {eid: p for p, eid in enumerate(order)}
    for twins in by_neighbours.values():
        if len(twins) < 2:
            continue
        edge_to = {v: {g.other_end(eid, v): eid for eid in g.incidence[v]}
                   for v in twins}
        first = {v: min((pos[eid], w) for w, eid in edge_to[v].items()) for v in twins}
        for i, u in enumerate(twins):
            for u2 in twins[i + 1:]:
                (p, w), other = min((first[u], u2), (first[u2], u))
                q = pos[edge_to[other][w]]
                above[q] += (p,)
    return above


@st.composite
def k2_70_minus_edges(draw):
    """K_{2,70} less a few drawn edges, maybe with one edge doubled: 72
    vertices, so neighbour bitmasks of the hub side pass 64 bits."""
    pool = [(i, 2 + j) for i in range(2) for j in range(70)]
    gone = draw(st.sets(st.sampled_from(pool), max_size=12))
    edges = [e for e in pool if e not in gone]
    if draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    g, _ = without_isolated(build_graph(72, draw(st.permutations(edges))))
    return g


@settings(deadline=None, max_examples=150)
@given(st.one_of(twin_rich_graphs(), k2_70_minus_edges()), st.randoms())
def test_twin_constraints_match_the_frozenset_grouping(g, rng):
    order = list(range(g.edge_count))
    rng.shuffle(order)
    for o in (order, _saturation_order(g)):
        assert _twin_constraints(g, o) == twin_constraints_by_frozenset(g, o)


@pytest.mark.parametrize("g", [gen_complete_bipartite(2, 2),
                               gen_complete_bipartite(4, 4), cycle(6)],
                         ids=["k2-2", "k4-4", "c6"])
def test_seed_at_the_degree_bound_returns_a_proper_witness(g):
    # the greedy seed meets the degree-count bound, so no node is searched
    # and the seed's witness is returned as it stands
    result = palette_index_exact(g)
    assert (result.value, result.proved, result.nodes) == (1, True, 0)
    assert not verify_proper(g, result.witness)
    assert palette_summary(g, result.witness).distinct == result.value


def test_vertices_with_parallel_edges_are_not_twins():
    # 4 and 5 both see {1, 2}, but 5 meets 2 twice: swapping them is no
    # automorphism, and ordering them as twins would lose the optimum
    g = build_graph(6, [(0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (2, 5)])
    assert palette_index_exact(g).value == palette_index_naive(g) == 4


def test_palette_index_k46_is_proved_within_the_budget():
    result = palette_index_exact(gen_complete_bipartite(4, 6), max_nodes=300_000)
    assert result.value == 4 and result.proved


def test_palette_index_budget_on_1280_edges_keeps_the_recursion_limit():
    g = gen_random_biregular(4, 8, 40, 1)
    assert g.edge_count == 1280
    limit = sys.getrecursionlimit()
    result = palette_index_exact(g, max_nodes=5000)
    assert sys.getrecursionlimit() == limit
    assert not result.proved and result.nodes == 5001
    assert not verify_proper(g, result.witness)
    assert palette_summary(g, result.witness).distinct == result.value >= 3


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def digest(witness):
    return hashlib.sha256(",".join(map(str, witness)).encode()).hexdigest()


PINNED_GRAPHS = {
    "grid3x5": lambda: gen_grid(3, 5),
    "k3-4": lambda: gen_complete_bipartite(3, 4),
    "k3-5": lambda: gen_complete_bipartite(3, 5),
    "petersen": petersen,
    "k4-6": lambda: gen_complete_bipartite(4, 6),
    "b4-8x40": lambda: gen_random_biregular(4, 8, 40, 1),
}


# name: (max_nodes, value, proved, nodes, witness SHA-256)
PINNED_TREES = {
    "grid3x5": (None, 5, True, 1297,
                "6522f40ba87fdf18ab8ef5bb5ebafb5e1462a697c59345db27499410281c86fc"),
    "k3-4": (None, 5, True, 225,
             "aaea7df89bc1d2a34d259c72988a15f5e215672174e7c54a66f46e1c5a676b4e"),
    "k3-5": (None, 5, True, 609,
             "235db128dbd42696ad5598494b27b7da776cfda4f0cbb11740bacd26c9717ccd"),
    "petersen": (None, 3, True, 429,
                 "a613dd9952f9a284515d3e6a0d5abc97ae9a33c34c58ce515e5fa633cc60e2d5"),
    "k4-6": (300_000, 4, True, 1317,
             "2718470116c8998e2a7b583d05b0e125d974f596973db99833505bbe1d22def8"),
    "b4-8x40": (5000, 70, False, 5001,
                "3a05ca782131a2c0ff9601e4e09b72c39f4ba2af0c20debb39b88476cd727662"),
}


@pytest.mark.parametrize("name", PINNED_TREES)
def test_search_tree_is_pinned(name):
    # the node count and the witness fix the order in which the search
    # visits nodes: a change to the loop that keeps them keeps the tree
    max_nodes, value, proved, nodes, witness_sha = PINNED_TREES[name]
    result = palette_index_exact(PINNED_GRAPHS[name](), max_nodes=max_nodes)
    assert (result.value, result.proved, result.nodes) == (value, proved, nodes)
    assert digest(result.witness) == witness_sha


@pytest.mark.parametrize("name, full, max_nodes, value", [
    # the grid's incumbent drops from 6 to 5 in node 283
    ("grid3x5", 5, 1, 6), ("grid3x5", 5, 143, 6), ("grid3x5", 5, 282, 6),
    ("grid3x5", 5, 283, 5), ("grid3x5", 5, 287, 5), ("grid3x5", 5, 1296, 5),
    ("k4-6", 4, 1, 4), ("k4-6", 4, 1269, 4), ("k4-6", 4, 1316, 4),
])
def test_node_budget_cuts_the_tree_at_the_same_node(name, full, max_nodes, value):
    g = PINNED_GRAPHS[name]()
    result = palette_index_exact(g, max_nodes=max_nodes)
    assert result.nodes == max_nodes + 1 and not result.proved
    assert result.value == value >= full
    assert palette_summary(g, result.witness).distinct == result.value


def test_wall_budget_is_read_every_1024_nodes():
    g = gen_random_biregular(4, 8, 40, 1)
    result = palette_index_exact(g, max_seconds=1e-9)
    assert not result.proved and result.nodes == 1024
    assert palette_summary(g, result.witness).distinct == result.value == 71


@settings(deadline=None, max_examples=40)
@given(simple_graphs(max_n=6, max_m=8))
def test_palette_value_at_most_any_proper_coloring(g):
    nx = pytest.importorskip("networkx")
    g, _ = without_isolated(g)
    if g.vertex_count < 2:
        return
    multi = nx.MultiGraph()
    for eid, (u, v) in enumerate(g.edges):
        multi.add_edge(u, v, key=eid)
    greedy = nx.greedy_color(nx.line_graph(multi))
    coloring = [0] * g.edge_count
    for (_, _, eid), c in greedy.items():
        coloring[eid] = c + 1
    value = palette_index_exact(g).value
    assert value <= palette_summary(g, coloring).distinct
    assert value >= len(g.degree_set())
