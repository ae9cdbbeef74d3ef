"""Palette extraction, the bound catalog, and structural characterizations:
which graphs need as many palettes as they have vertices, and which can be
colored with exactly two distinct palettes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coloring import (ColoringError, EdgeColoring, PaletteSummary, Violation,
                       distinct_palettes, palette_summary, verify_proper)
from .constructions import (RouteFacts, grid_palette_value, recognize_grid,
                            route_bounds)
from .exact import BudgetExhausted, SearchLimits, palette_index_exact
from .graph import Graph, GraphError, components, without_isolated

__all__ = [
    "BoundEntry", "BoundReport", "ColoringError", "EdgeColoring",
    "PaletteSummary", "PaletteTwoCertificate", "Violation",
    "classify_full_palette", "decide_palette_two", "distinct_palettes",
    "palette_lower_bound", "palette_summary", "recognize_grid",
    "upper_bound_catalog", "verify_proper",
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
    witness = routes[0][0].build(g, facts).coloring if best.constructed else None
    assert lower.value <= best.value, "lower bound exceeds upper bound"
    entries.extend(uppers)
    return BoundReport((lower.value, lower.tag), (best.value, best.tag), entries,
                       witness)


# ----------------------------------------------------------------------
# graphs whose palette index equals the vertex count
# ----------------------------------------------------------------------

def classify_full_palette(g: Graph) -> tuple[bool, str]:
    """Decide whether every proper coloring of g needs |V| distinct palettes.

    True exactly for the triangle, stars with >= 2 leaves, a triangle with
    pendants hung on one corner, a triangle bridged to a star center with
    >= 3 leaves, and the disjoint union of a triangle and such a star.  One
    isolated vertex on top of any of these keeps the property.
    """
    if not g.is_simple():
        raise GraphError("classification requires a simple graph")
    trimmed, _ = without_isolated(g)  # no per-vertex list
    isolated = g.vertex_count - trimmed.vertex_count
    if isolated > 1 or (isolated == 1 and g.vertex_count == 1):
        return (False, "none")
    g = trimmed
    if _is_triangle(g):
        return (True, "triangle")
    if _star_leaves(g) is not None and _star_leaves(g) >= 2:
        return (True, "star")
    if _is_triangle_pendants(g):
        return (True, "triangle-pendants")
    if _is_triangle_star_bridge(g):
        return (True, "triangle-star-bridge")
    if _is_triangle_plus_star(g):
        return (True, "triangle-plus-star")
    return (False, "none")


def _is_triangle(g: Graph) -> bool:
    return g.vertex_count == 3 and g.edge_count == 3


def _star_leaves(g: Graph) -> int | None:
    """Leaf count when g is a star (one hub, rest leaves), else None."""
    n = g.vertex_count
    if n < 3 or g.edge_count != n - 1:
        return None
    degs = sorted(g.degrees)
    if degs[-1] != n - 1 or any(d != 1 for d in degs[:-1]):
        return None
    return n - 1


def _is_triangle_pendants(g: Graph) -> bool:
    n, m = g.vertex_count, g.edge_count
    j = n - 3
    if j < 1 or m != n:
        return False
    if sorted(g.degrees) != [1] * j + [2, 2] + [j + 2]:
        return False
    hub = max(range(n), key=lambda v: g.degrees[v])
    two = [v for v in range(n) if g.degrees[v] == 2]
    leaves = [v for v in range(n) if g.degrees[v] == 1]
    pairs = {tuple(sorted(e)) for e in g.edges}
    if tuple(sorted(two)) not in pairs:
        return False
    if any(tuple(sorted((hub, v))) not in pairs for v in two):
        return False
    return all(tuple(sorted((hub, leaf))) in pairs for leaf in leaves)


def _is_triangle_star_bridge(g: Graph) -> bool:
    n, m = g.vertex_count, g.edge_count
    j = n - 4
    if j < 3 or m != n:
        return False
    if sorted(g.degrees) != [1] * j + [2, 2, 3] + [j + 1]:
        return False
    center = max(range(n), key=lambda v: g.degrees[v])
    bridge = next(v for v in range(n) if g.degrees[v] == 3)
    two = [v for v in range(n) if g.degrees[v] == 2]
    leaves = [v for v in range(n) if g.degrees[v] == 1]
    pairs = {tuple(sorted(e)) for e in g.edges}
    if not all(tuple(sorted((center, leaf))) in pairs for leaf in leaves):
        return False
    if tuple(sorted((center, bridge))) not in pairs:
        return False
    if tuple(sorted(two)) not in pairs:
        return False
    return all(tuple(sorted((bridge, v))) in pairs for v in two)


def _is_triangle_plus_star(g: Graph) -> bool:
    comps = components(g)
    if len(comps) != 2:
        return False
    first, second = comps[0].graph, comps[1].graph
    for tri, star in ((first, second), (second, first)):
        if _is_triangle(tri):
            leaves = _star_leaves(star)
            if leaves is not None and leaves >= 3:
                return True
    return False


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
    coloring = EdgeColoring(dict(result.witness.color_of))
    degree_values = sorted(set(g.degrees), reverse=True)
    assert len(degree_values) == 2, "two palettes force exactly two degrees"
    d1, d2 = degree_values
    big = [v for v in range(g.vertex_count) if g.degrees[v] == d1]
    small = [v for v in range(g.vertex_count) if g.degrees[v] == d2]

    def colors_at(verts: list[int]) -> set[int]:
        out: set[int] = set()
        for v in verts:
            out.update(coloring.color_of[eid] for eid in g.incidence[v])
        return out

    c1, c2 = colors_at(big), colors_at(small)
    while not c2 <= c1:
        j = min(c2 - c1)
        k = min(c1 - c2)
        for eid, col in coloring.color_of.items():
            if col == j:
                coloring.color_of[eid] = k
        c1, c2 = colors_at(big), colors_at(small)
    assert not verify_proper(g, coloring)
    assert distinct_palettes(g, coloring) == 2
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
