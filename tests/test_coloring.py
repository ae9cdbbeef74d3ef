from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_index import coloring
from palette_index.coloring import (ColoringError, PaletteSummary,
                                    palette_summary, verify_proper)
from palette_index.decompose import konig_coloring
from palette_index.graph import (Graph, bipartition, build_graph,
                                 gen_complete_bipartite)


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_verify_proper_alternating_c4():
    assert verify_proper(c4(), [1, 2, 1, 2]) == []


def test_verify_proper_bad_c4():
    violations = verify_proper(c4(), [1, 1, 2, 2])
    assert len(violations) == 2
    assert {(v.vertex, tuple(sorted((v.edge_a, v.edge_b)))) for v in violations} \
        == {(1, (0, 1)), (3, (2, 3))}


def test_verify_proper_k3_rainbow():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert verify_proper(k3, [1, 2, 3]) == []


def test_verify_rejects_partial():
    with pytest.raises(ColoringError):
        verify_proper(c4(), [1])


def test_verify_rejects_nonpositive_color():
    with pytest.raises(ColoringError):
        verify_proper(c4(), [0, 1, 2, 3])


def test_palette_summary_c5():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    summary = palette_summary(c5, [1, 2, 1, 2, 3])
    assert summary.distinct == 3
    assert summary.palette_of[0] == frozenset({1, 3})
    assert sum(summary.multiplicity.values()) == 5


def test_palette_summary_konig_regular():
    g = gen_complete_bipartite(3, 3)
    assert palette_summary(g, konig_coloring(g, bipartition(g))).distinct == 1


def test_palette_summary_star_all_distinct():
    star = gen_complete_bipartite(1, 3)
    summary = palette_summary(star, [1, 2, 3])
    assert summary.distinct == 4


def test_palette_summary_rejects_improper():
    with pytest.raises(ColoringError):
        palette_summary(c4(), [1, 1, 2, 2])


def reference_summary(g, c):
    """Palette summary in two walks: `verify_proper`, then a frozenset per
    vertex."""
    bad = verify_proper(g, c)
    if bad:
        first = bad[0]
        raise ColoringError(
            f"improper coloring: vertex {first.vertex} sees color "
            f"{c[first.edge_a]} on edges {first.edge_a} and {first.edge_b}")
    palettes = tuple(frozenset(c[eid] for eid in g.incidence[v])
                     for v in range(g.vertex_count))
    multiplicity = {}
    for p in palettes:
        multiplicity[p] = multiplicity.get(p, 0) + 1
    return PaletteSummary(palettes, len(multiplicity), multiplicity)


@st.composite
def colored_multigraphs(draw):
    """Multigraphs, with loops or without, and colorings that are proper,
    improper, non-positive (zero for an edge left uncolored) or of the wrong
    length."""
    n = draw(st.integers(1, 6))
    loops = draw(st.booleans())
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair if loops else pair.filter(lambda e: e[0] != e[1]),
                          max_size=10))
    g = Graph(n, tuple(edges))
    if draw(st.booleans()):
        # greedy: the smallest color free at both ends, proper unless a loop
        seen = [set() for _ in range(n)]
        colors = []
        for u, v in edges:
            colors.append(min(set(range(1, 2 * len(edges) + 2)) - seen[u] - seen[v]))
            seen[u].add(colors[-1])
            seen[v].add(colors[-1])
    else:
        colors = draw(st.lists(st.integers(-1, 4),
                               min_size=len(edges), max_size=len(edges)))
    resize = draw(st.sampled_from((0, 0, 0, -1, 1)))  # now and then a wrong length
    colors = colors[:len(colors) + resize] if resize < 0 else colors + [1] * resize
    return g, colors


def summary_or_error(summarize, g, c):
    try:
        return summarize(g, c)
    except ColoringError as exc:
        return str(exc)


@settings(deadline=None, max_examples=400)
@given(colored_multigraphs())
def test_palette_summary_matches_the_two_walk_reference(case):
    g, c = case
    assert summary_or_error(palette_summary, g, c) == summary_or_error(reference_summary, g, c)


@settings(deadline=None, max_examples=200)
@given(colored_multigraphs(), st.sampled_from((10**18, 2**200)))
def test_palette_summary_matches_the_reference_on_huge_colors(case, offset):
    # a positive color c becomes offset + c, so the ranks are those of the
    # small colors and an error names the huge color
    g, c = case
    huge = [offset + col if col > 0 else col for col in c]
    assert summary_or_error(palette_summary, g, huge) == \
        summary_or_error(reference_summary, g, huge)


@pytest.mark.parametrize("count", [coloring._MASK_COLORS, coloring._MASK_COLORS + 1])
@pytest.mark.parametrize("clash", [False, True])
def test_palette_summary_matches_the_reference_past_the_mask_colors(count, clash):
    # paths of three edges colored with `count` distinct colors; when
    # `clash`, the last edge takes its neighbour's color
    g = Graph(4 * count, tuple((4 * i + j, 4 * i + j + 1)
                               for i in range(count) for j in range(3)))
    c = [1 + (e // 3 + e % 3) % count for e in range(3 * count)]
    if clash:
        c[3 * count - 1] = c[3 * count - 2]
    assert len(set(c)) == count
    assert summary_or_error(palette_summary, g, c) == summary_or_error(reference_summary, g, c)


@pytest.mark.parametrize("colors, message", [
    ([1, 2, 2], "coloring lists 3 edges, but the graph has 4"),
    ([1, 0, 2, 2], "edge 1 has non-positive color 0"),
    ([1, 2, 1, -2], "edge 3 has non-positive color -2"),
    ([1, 1, 2, 2], "improper coloring: vertex 1 sees color 1 on edges 0 and 1"),
])
def test_palette_summary_error_messages(colors, message):
    with pytest.raises(ColoringError) as err:
        palette_summary(c4(), colors)
    assert str(err.value) == message


def test_palette_summary_rejects_a_loop():
    g = Graph(2, ((0, 1), (1, 1)))
    with pytest.raises(ColoringError) as err:
        palette_summary(g, [1, 2])
    assert str(err.value) == "improper coloring: vertex 1 sees color 2 on edges 1 and 1"
