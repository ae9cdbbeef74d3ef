"""Cross-module invariants: the exact solver against the constructions, the
bound catalog sandwiching the exact value, and closure restriction."""

from __future__ import annotations

import pytest

from palette_index.analysis import palette_lower_bound, upper_bound_catalog
from palette_index.coloring import verify_proper
from palette_index.constructions import (color_auto, color_biregular_auto,
                                         color_grid)
from palette_index.decompose import konig_coloring
from palette_index.exact import palette_index_exact
from palette_index.graph import (bipartition, build_graph, even_closure,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular)

SMALL_CORPUS = [
    gen_complete_bipartite(1, 3),
    gen_complete_bipartite(2, 3),
    gen_complete_bipartite(2, 4),
    gen_complete_bipartite(3, 4),
    gen_complete_bipartite(3, 5),
    gen_grid(2, 4),
    gen_grid(3, 3),
    gen_random_biregular(2, 3, 2, 17),
    build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]),
]


@pytest.mark.parametrize("g", SMALL_CORPUS, ids=range(len(SMALL_CORPUS)))
def test_exact_value_between_bounds(g):
    value = palette_index_exact(g).value
    assert palette_lower_bound(g)[0] <= value
    report = upper_bound_catalog(g)
    assert value <= report.upper[0]
    if any(e.constructed and e.value == report.upper[0] for e in report.entries):
        assert value <= color_auto(g).palettes <= report.upper[0]


@pytest.mark.parametrize("a,b", [(2, 3), (2, 4), (3, 5), (1, 3), (3, 4)])
def test_constructions_never_beat_the_exact_value(a, b):
    g = gen_complete_bipartite(a, b)
    value = palette_index_exact(g).value
    result = color_biregular_auto(g)
    assert value <= result.palettes <= result.claimed_palette_bound


def test_grid_construction_cannot_be_improved_at_3x3():
    result = color_grid(3, 3)
    assert palette_index_exact(gen_grid(3, 3)).value == result.palettes == 5


def test_closure_restriction_is_proper():
    g = gen_complete_bipartite(2, 3)
    closure = even_closure(g)
    assert closure.edges[:g.edge_count] == g.edges  # copy 1 keeps the edge ids
    coloring = konig_coloring(closure, bipartition(closure))
    restricted = coloring[:g.edge_count]
    assert not verify_proper(g, restricted)
