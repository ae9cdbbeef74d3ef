"""Palette extraction, the bound catalog, and structural characterizations:
which graphs need as many palettes as they have vertices, and which can be
colored with exactly two distinct palettes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import EdgeColoring, palette_summary
from .constructions import RouteFacts, grid_palette_value, route_bounds
from .exact import BudgetExhausted, SearchLimits, palette_index_exact
from .graph import Graph, GraphError, without_isolated

__all__ = [
    "BoundEntry", "BoundReport", "PaletteTwoCertificate",
    "classify_full_palette", "decide_palette_two", "palette_lower_bound",
    "upper_bound_catalog",
]


@dataclass(frozen=True)
class BoundEntry:
    value: int
    direction: str  # "lower" or "upper"
    tag: str
    note: str
    constructed: bool = False  # a witness coloring backs this entry


@dataclass
class BoundReport:
    lower: tuple[int, str]
    upper: tuple[int, str]
    entries: list[BoundEntry]
    witness: EdgeColoring | None


def _lower_entries(facts: RouteFacts, chi_prime: int | None) -> list[BoundEntry]:
    g = facts.g
    entries = [BoundEntry(len(g.degree_set()), "lower", "degree-count",
                          "palettes of different sizes are distinct")]
    prof = facts.prof
    if prof is not None and prof.a < prof.b:
        entries.append(BoundEntry(
            1 + math.ceil(prof.b / prof.a), "lower", "biregular-ratio",
            f"({prof.a},{prof.b})-biregular"))
        if (prof.a, prof.b) == (3, 5):
            entries.append(BoundEntry(5, "lower", "deg35",
                                      "(3,5)-biregular graphs need 5 palettes"))
        if prof.a == 2 and prof.b % 2 == 1:
            entries.append(BoundEntry(prof.b // 2 + 2, "lower", "two-odd",
                                      f"(2,{prof.b})-biregular"))
    if chi_prime is not None and len(g.degree_set()) == 1:
        if chi_prime == g.max_degree:
            entries.append(BoundEntry(1, "lower", "regular-class1", "regular, class 1"))
        else:
            entries.append(BoundEntry(3, "lower", "regular-class2",
                                      "regular class 2 graphs need 3 palettes"))
    if facts.dims is not None:
        entries.append(BoundEntry(grid_palette_value(*facts.dims), "lower", "grid",
                                  f"grid {facts.dims[0]}x{facts.dims[1]}, exact value"))
    return entries


def palette_lower_bound(g: Graph, chi_prime: int | None = None) -> tuple[int, str]:
    """Largest applicable lower bound on the palette index, with its tag."""
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    if g.vertex_count == 0:
        return (0, "empty")
    best = max(_lower_entries(RouteFacts(g), chi_prime), key=lambda e: e.value)
    return (best.value, best.tag)


def upper_bound_catalog(g: Graph) -> BoundReport:
    """Every applicable palette bound with its justification.  The witness
    is the coloring `color_auto` builds, given when its route attains the
    smallest upper bound."""
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    if g.edge_count == 0:
        return BoundReport((0, "empty"), (0, "empty"), [], None)
    facts = RouteFacts(g)
    entries = _lower_entries(facts, None)
    lower = max(entries, key=lambda e: e.value)
    routes = route_bounds(facts)
    delta = g.max_degree
    stated = [(2 ** (delta + 1) - 2, "power-general", "any graph, from a maxdeg+1 coloring")]
    if facts.bip is not None:
        stated += [(2 ** delta - 1, "power-bipartite", "bipartite, from a maxdeg coloring"),
                   ((delta + 2) * 2 ** ((delta + 1) // 2), "half-power-bipartite",
                    "bipartite")]
    if facts.even and delta == 8:
        stated.append((13, "even-deg8-stated",
                       "even bipartite, maxdeg 8; stated, not constructed"))
    if delta - g.min_degree <= 2:
        stated.append((delta * delta + delta + 1, "near-regular-stated",
                       "degree spread at most 2; stated, not constructed"))
    uppers = [BoundEntry(value, "upper", route.tag, route.note, True)
              for route, value in routes]
    uppers += [BoundEntry(value, "upper", tag, note) for value, tag, note in stated]
    # the best route comes first, so it wins a tie with a stated bound
    best = min(uppers, key=lambda e: e.value)
    witness = (routes[0][0].build(g, facts, routes[0][1]).coloring
               if best.constructed else None)
    assert lower.value <= best.value, "lower bound exceeds upper bound"
    entries.extend(uppers)
    return BoundReport((lower.value, lower.tag), (best.value, best.tag), entries,
                       witness)


# ----------------------------------------------------------------------
# graphs whose palette index equals the vertex count
# ----------------------------------------------------------------------

# (non-leaf vertices besides the hub, hub edges into them, edges not ending in
# a leaf) -> (family, fewest leaves): the hub and its leaves plus nothing, a
# triangle through the hub, or a triangle one edge or no edge away from it
_SHAPES = {(0, 0, 0): ("star", 2), (2, 2, 3): ("triangle-pendants", 0),
           (3, 1, 4): ("triangle-star-bridge", 3), (3, 0, 3): ("triangle-plus-star", 3)}


def classify_full_palette(g: Graph) -> tuple[bool, str]:
    """Decide whether every proper coloring of g needs |V| distinct palettes.

    True exactly when g is a hub of maximum degree with its degree-1
    neighbors (its leaves) plus one of: nothing (a star, >= 2 leaves), a
    triangle through the hub (the triangle, or a triangle with pendants hung
    on one corner), or a triangle joined to the hub by one edge or by none
    (>= 3 leaves each).  One isolated vertex on top of any of these keeps the
    property.
    """
    if not g.is_simple():
        raise GraphError("classification requires a simple graph")
    trimmed, _ = without_isolated(g)  # no per-vertex list
    isolated = g.vertex_count - trimmed.vertex_count
    if isolated > 1 or not trimmed.edges:
        return (False, "none")
    g = trimmed
    degrees = g.degrees
    hub = max(range(g.vertex_count), key=degrees.__getitem__)
    leaves = sum(degrees[g.other_end(eid, hub)] == 1 for eid in g.incidence[hub])
    # g is simple with no isolated vertex, so the three counts pin its shape
    shape = _SHAPES.get((g.vertex_count - 1 - leaves, degrees[hub] - leaves,
                         g.edge_count - leaves))
    if shape is None or leaves < shape[1]:
        return (False, "none")
    return (True, "triangle" if leaves == 0 else shape[0])


# ----------------------------------------------------------------------
# palette index two
# ----------------------------------------------------------------------

@dataclass
class PaletteTwoCertificate:
    """The structural witness for a two-palette graph: edge-disjoint regular
    class-1 subgraphs whose vertex sets are nested and whose union is g."""

    h1_edges: frozenset[int]  # the d1-d2 extra colors, on big-degree vertices
    h2_edges: frozenset[int]  # the shared colors, spanning every vertex
    coloring: EdgeColoring  # normalized two-palette coloring


def decide_palette_two(g: Graph, limits: SearchLimits | None = None
                       ) -> tuple[bool, PaletteTwoCertificate | None]:
    """Decide whether g can be properly colored with exactly two distinct
    palettes, extracting the regular-decomposition certificate when it can."""
    result = palette_index_exact(g, limits)
    if not result.proved:
        raise BudgetExhausted("palette search ran out of budget before deciding")
    if result.value != 2:
        return (False, None)
    # one palette per degree class; move each color the small palette lacks
    # in the big one onto a big-only color, pairing both in ascending order
    c2, c1 = sorted(palette_summary(g, result.witness).multiplicity, key=len)
    assert len(c2) < len(c1), "two palettes force exactly two degrees"
    relabel = dict(zip(sorted(c2 - c1), sorted(c1 - c2)))
    coloring = EdgeColoring({eid: relabel.get(col, col)
                             for eid, col in result.witness.color_of.items()})
    c2 = frozenset(relabel.get(col, col) for col in c2)
    assert palette_summary(g, coloring).distinct == 2  # raises if improper
    h2 = frozenset(eid for eid, col in coloring.color_of.items() if col in c2)
    h1 = frozenset(eid for eid, col in coloring.color_of.items() if col in c1 - c2)
    _check_regular_on_support(g, h1)
    _check_regular_on_support(g, h2)
    v1 = {v for eid in h1 for v in g.edges[eid]}
    v2 = {v for eid in h2 for v in g.edges[eid]}
    assert v1 <= v2, "vertex sets of the certificate are not nested"
    assert v2 == set(range(g.vertex_count))
    return (True, PaletteTwoCertificate(h1, h2, coloring))


def _check_regular_on_support(g: Graph, edge_ids: frozenset[int]) -> None:
    deg: dict[int, int] = {}
    for eid in edge_ids:
        u, v = g.edges[eid]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert len(set(deg.values())) <= 1, "certificate subgraph is not regular"
