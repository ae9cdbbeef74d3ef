from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from palette_index.analysis import (classify_full_palette, decide_palette_two,
                                    palette_lower_bound, upper_bound_catalog)
from palette_index.constructions import color_auto
from palette_index.exact import palette_index_exact
from palette_index.graph import (GraphError, build_graph,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular,
                                 gen_random_even_bipartite, without_isolated)

from conftest import simple_graphs


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(j):
    return build_graph(1 + j, [(0, 1 + i) for i in range(j)])


def triangle_with_pendants(j):
    return build_graph(3 + j, [(0, 1), (1, 2), (0, 2)]
                       + [(0, 3 + i) for i in range(j)])


def triangle_star_bridge(j):
    return build_graph(4 + j, [(0, 1), (1, 2), (0, 2), (0, 3)]
                       + [(3, 4 + i) for i in range(j)])


def triangle_plus_star(j):
    return build_graph(4 + j, [(0, 1), (1, 2), (0, 2)]
                       + [(3, 4 + i) for i in range(j)])


def test_lower_bound_k35():
    assert palette_lower_bound(gen_complete_bipartite(3, 5)) == (5, "deg35")


def test_lower_bound_biregular_ratio():
    g = gen_random_biregular(2, 4, 2, 0)
    assert palette_lower_bound(g)[0] == 3


def test_lower_bound_grid_degrees():
    value, tag = palette_lower_bound(gen_grid(3, 4))
    assert value == 3  # three distinct degrees force three palettes


def test_lower_bound_two_odd_profile():
    g = gen_complete_bipartite(2, 5)
    value, tag = palette_lower_bound(g)
    assert value == 2 + 5 // 2 == 4


def test_lower_bound_rejects_isolated():
    with pytest.raises(GraphError):
        palette_lower_bound(build_graph(3, [(0, 1)]))


def test_catalog_even_deg4():
    g = gen_random_even_bipartite(4, 11)
    report = upper_bound_catalog(g)
    tags = {e.tag: e.value for e in report.entries if e.direction == "upper"}
    assert tags["even-deg4"] == 3
    assert report.upper[0] <= 3
    assert color_auto(g).palettes <= report.upper[0]


def test_catalog_46_biregular_routes():
    g = gen_random_biregular(4, 6, 2, 13)
    report = upper_bound_catalog(g)
    tags = {e.tag: e.value for e in report.entries if e.direction == "upper"}
    assert tags["even-deg6"] == 7
    assert tags["even-family"] == 4
    assert report.upper[0] == 4


def test_catalog_bipartite_deg5():
    g = gen_complete_bipartite(3, 5)
    report = upper_bound_catalog(g)
    tags = {e.tag: e.value for e in report.entries if e.direction == "upper"}
    assert tags["deg5"] == 23
    assert tags["deg35-family"] == 7
    assert tags["complete-bipartite"] == 6
    assert report.lower == (5, "deg35")


def test_catalog_stated_entries_have_no_witness_requirement():
    g = gen_random_even_bipartite(8, 2)
    report = upper_bound_catalog(g)
    by_tag = {e.tag: e for e in report.entries}
    assert by_tag["even-deg8-stated"].value == 13
    assert not by_tag["even-deg8-stated"].constructed


def test_catalog_near_regular_formula():
    c5 = cycle(5)
    report = upper_bound_catalog(c5)
    by_tag = {e.tag: e for e in report.entries}
    assert by_tag["near-regular-stated"].value == 2 * 2 + 2 + 1


def test_catalog_lower_never_exceeds_upper_on_randoms():
    for seed in range(6):
        g = gen_random_even_bipartite(6, seed)
        report = upper_bound_catalog(g)
        assert report.lower[0] <= report.upper[0]


def test_catalog_without_constructible_entries_has_no_witness():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5)])
    report = upper_bound_catalog(g)
    assert not any(e.constructed for e in report.entries)
    assert report.upper == (2 ** (g.max_degree + 1) - 2, "power-general")
    with pytest.raises(GraphError):
        color_auto(g)


def test_classify_families():
    assert classify_full_palette(gen_complete_bipartite(1, 4)) == (True, "star")
    assert classify_full_palette(gen_complete_bipartite(1, 2)) == (True, "star")
    assert classify_full_palette(cycle(3)) == (True, "triangle")
    assert classify_full_palette(cycle(4)) == (False, "none")
    for j in (1, 2, 4):
        assert classify_full_palette(triangle_with_pendants(j)) \
            == (True, "triangle-pendants")
    assert classify_full_palette(triangle_star_bridge(3)) \
        == (True, "triangle-star-bridge")
    assert classify_full_palette(triangle_star_bridge(2)) == (False, "none")
    assert classify_full_palette(triangle_plus_star(3)) \
        == (True, "triangle-plus-star")
    assert classify_full_palette(triangle_plus_star(2)) == (False, "none")


def test_classify_single_isolated_vertex_allowed():
    g = build_graph(4, [(0, 1), (1, 2), (0, 2)])
    assert classify_full_palette(g) == (True, "triangle")
    g2 = build_graph(5, [(0, 1), (1, 2), (0, 2)])
    assert classify_full_palette(g2) == (False, "none")


def test_classify_rejects_multigraph():
    with pytest.raises(GraphError):
        classify_full_palette(build_graph(2, [(0, 1), (0, 1)]))


def test_classify_matches_solver_on_family_instances():
    for g in (gen_complete_bipartite(1, 3), triangle_with_pendants(2),
              triangle_star_bridge(3), triangle_plus_star(3)):
        assert palette_index_exact(g).value == g.vertex_count


def relabeled(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def near_misses(g, rng):
    """g with one absent edge added, and g with one edge removed."""
    n = g.vertex_count
    present = {frozenset(e) for e in g.edges}
    absent = [(u, v) for u in range(n) for v in range(u + 1, n)
              if frozenset((u, v)) not in present]
    drop = rng.randrange(g.edge_count)
    return (build_graph(n, [*g.edges, rng.choice(absent)]),
            build_graph(n, [e for eid, e in enumerate(g.edges) if eid != drop]))


def needs_every_palette(g):
    """The solver's answer to whether g needs |V| palettes; isolated vertices
    all share the empty palette, so they add one palette between them."""
    trimmed, _ = without_isolated(g)
    shared_empty = int(trimmed.vertex_count < g.vertex_count)
    return palette_index_exact(trimmed).value + shared_empty == g.vertex_count


@pytest.mark.parametrize("j", range(2, 6))
@pytest.mark.parametrize("family, tag, fewest", [
    (star, "star", 2), (triangle_with_pendants, "triangle-pendants", 1),
    (triangle_star_bridge, "triangle-star-bridge", 3),
    (triangle_plus_star, "triangle-plus-star", 3)])
def test_classification_agrees_with_solver_beyond_six_vertices(family, tag, fewest, j):
    # the bridge and plus families first appear on 7 vertices
    rng = random.Random(f"{tag}-{j}")
    g = relabeled(family(j), rng)
    assert classify_full_palette(g) == ((True, tag) if j >= fewest else (False, "none"))
    for h in (g, *near_misses(g, rng)):
        assert classify_full_palette(h)[0] == needs_every_palette(h)


def test_decide_palette_two_chorded_cycle():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)])
    ok, cert = decide_palette_two(g)
    assert ok
    assert cert.h1_edges == frozenset({6})
    assert cert.h2_edges == frozenset(range(6))


def test_decide_palette_two_certificate_structure():
    # two stacked 4-cycles sharing no edges, plus a matching on two vertices
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)]
    g = build_graph(4, edges)  # K4: regular, never two palettes
    ok, cert = decide_palette_two(g)
    assert not ok and cert is None


def test_decide_palette_two_small_star():
    ok, cert = decide_palette_two(build_graph(3, [(0, 1), (1, 2)]))
    assert not ok  # a two-edge star needs three palettes


def test_decide_palette_two_regular_never():
    for g in (cycle(4), cycle(5), cycle(6)):
        assert decide_palette_two(g)[0] is False


@settings(deadline=None, max_examples=30)
@given(simple_graphs(max_n=6, max_m=8))
def test_classification_agrees_with_solver(g):
    g, _ = without_isolated(g)
    if g.vertex_count < 2:
        return
    full = classify_full_palette(g)[0]
    assert full == (palette_index_exact(g).value == g.vertex_count)


@settings(deadline=None, max_examples=30)
@given(simple_graphs(max_n=6, max_m=9))
def test_lower_bound_below_exact_value(g):
    g, _ = without_isolated(g)
    if g.vertex_count < 2:
        return
    assert palette_lower_bound(g)[0] <= palette_index_exact(g).value
