"""Constructive proper edge colorings with guaranteed palette bounds.

Each operation returns a :class:`ConstructionResult` whose coloring is
verified proper and whose distinct-palette count is checked against the
bound the construction promises before it is handed back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .coloring import EdgeColoring, palette_summary
from .decompose import (Matching, eulerian_circuit, konig_coloring,
                        matching_covering_max_degree, maximum_matching,
                        parity_split, peel_perfect_matchings,
                        split_part_vertices, two_factorization)
from .exact import BudgetExhausted
from .graph import (SIDE_X, SIDE_Y, Bipartition, BiregularProfile, Graph,
                    GraphError, bipartition, biregular_profile, edge_subgraph,
                    even_closure, gen_complete_bipartite, gen_grid,
                    without_isolated)


@dataclass
class ConstructionResult:
    coloring: EdgeColoring
    claimed_palette_bound: int
    theorem_tag: str
    colors_used: int
    palettes: int  # distinct palettes actually achieved


def _finish(g: Graph, colors: dict[int, int], bound: int,
            tag: str) -> ConstructionResult:
    coloring = EdgeColoring(dict(colors))
    summary = palette_summary(g, coloring)  # raises if improper
    if summary.distinct > bound:
        raise AssertionError(
            f"{tag}: produced {summary.distinct} palettes, over the promised {bound}")
    return ConstructionResult(coloring, bound, tag, coloring.colors_used(),
                              summary.distinct)


def _require_bipartite(g: Graph) -> Bipartition:
    bip = bipartition(g)
    if bip is None:
        raise GraphError("graph is not bipartite")
    return bip


# ----------------------------------------------------------------------
# even bipartite graphs and the doubling trick
# ----------------------------------------------------------------------

def color_even_bipartite(g: Graph) -> ConstructionResult:
    """Proper coloring of an even bipartite graph where every palette is a
    union of color pairs {2i-1, 2i}.

    Loops are added to raise every vertex to the maximum degree, the regular
    multigraph is split into 2-factors, and after dropping the loops each
    factor's even cycles are colored alternately with its own color pair.
    The distinct-palette count is at most the sum over present degrees d of
    C(maxdeg/2, d/2).
    """
    _require_bipartite(g)
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    if not g.is_even():
        raise GraphError("all degrees must be even")
    if g.edge_count == 0:
        return _finish(g, {}, 0, "even-bipartite-pairs")
    delta = g.max_degree
    r = delta // 2
    m = g.edge_count
    padded_edges = list(g.edges)
    for v in range(g.vertex_count):
        padded_edges.extend([(v, v)] * (r - g.degrees[v] // 2))
    star = Graph(g.vertex_count, tuple(padded_edges), loop_allowed=True)
    factors = two_factorization(star).factors
    colors: dict[int, int] = {}
    for i, factor in enumerate(factors, start=1):
        # each trail is one even cycle, from its smallest vertex along its
        # smaller edge id
        for cycle in eulerian_circuit(g, [eid for eid in factor if eid < m]):
            for pos, eid in enumerate(cycle):
                colors[eid] = 2 * i - 1 + pos % 2
    return _finish(g, colors, _even_pairs_bound(g), "even-bipartite-pairs")


def _even_pairs_bound(g: Graph) -> int:
    return sum(math.comb(g.max_degree // 2, d // 2) for d in g.degree_set())


def doubling_palette_bound(g: Graph) -> int:
    """Palette bound for a bipartite graph colored through its even closure:
    odd degrees d contribute C(ceil(maxdeg/2), (d+1)/2)*(d+1) palettes, even
    degrees d contribute C(ceil(maxdeg/2), d/2)."""
    half = (g.max_degree + 1) // 2
    bound = 0
    for d in g.degree_set():
        if d % 2 == 1:
            bound += math.comb(half, (d + 1) // 2) * (d + 1)
        else:
            bound += math.comb(half, d // 2)
    return bound


def color_via_doubling(g: Graph) -> ConstructionResult:
    """Color any bipartite graph by coloring its even closure and restricting
    back; works for odd degrees at the cost of a larger palette bound."""
    _require_bipartite(g)
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    closure, embedding = even_closure(g)
    inner = color_even_bipartite(closure)
    colors = {orig: inner.coloring.color_of[new] for new, orig in embedding.items()}
    bound = doubling_palette_bound(g)
    if g.max_degree == 4:
        assert bound <= 11
        if g.min_degree >= 2:
            assert bound <= 7
    return _finish(g, colors, bound, "doubling")


def color_deg5(g: Graph) -> ConstructionResult:
    """Color a bipartite graph of maximum degree 5: a matching covering the
    degree-5 vertices gets a fifth color, the rest is colored by doubling.

    With a perfect matching the palette bound drops from 23 to 12.
    """
    return _build_row("deg5", g)


def _color_deg5(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    # a perfect matching earns 12 from either deg5 row
    if 2 * len(f.matching) == g.vertex_count:
        return _five_on_matching(g, f.matching, 12, "deg5-perfect-matching")
    return _five_on_matching(g, matching_covering_max_degree(g, f.bip), bound, "deg5")


def _five_on_matching(g: Graph, matching: Matching, bound: int,
                      tag: str) -> ConstructionResult:
    """Color 5 on `matching`, the rest of g by doubling."""
    rest = [eid for eid in range(g.edge_count) if eid not in matching.edge_ids]
    colors: dict[int, int] = {}
    _color_part(g, rest, color_via_doubling, colors)
    for eid in matching.edge_ids:
        colors[eid] = 5
    return _finish(g, colors, bound, tag)


# ----------------------------------------------------------------------
# grids
# ----------------------------------------------------------------------

def grid_palette_value(m: int, n: int) -> int:
    """The exact palette index of the m-by-n grid."""
    if m < 2 or n < 2:
        raise GraphError(f"grid dimensions must be at least 2, got ({m}, {n})")
    if m == 2 and n == 2:
        return 1
    if min(m, n) == 2:
        return 2
    if (m * n) % 2 == 0:
        return 3
    return 5


def _grid_color(m: int, n: int, i: int, j: int, down: bool) -> int:
    """Color of the m-by-n grid's edge from 1-based position (i, j) to its
    right neighbour, or to the one below when `down` is true.

    An even number of rows takes the even-row pattern, and m odd with n even
    takes it on the transposed grid.  With m and n both odd, rows 1..m-3
    take the even-row pattern, the last three rows a 3-row pattern, and the
    seam between them is colored 4 throughout.
    """
    if m % 2 and n % 2 == 0:
        m, n, i, j, down = n, m, j, i, not down
    if m % 2:
        row = i - (m - 3)  # 1..3 in the last three rows, 0 on the seam's top
        if row == 0 and down:
            return 4
        if row > 0 and not down:
            return (2, 2, 4)[row - 1] if j % 2 else (1, 4, 2)[row - 1]
        if row == 1:
            return 1 if j == 1 else 2 if j == n else 3
        if row == 2:
            return 3 if j == 1 else 1
    if not down:
        return 2 if j % 2 else 1
    if i % 2 == 0:
        return 3 if j in (1, n) else 4
    if j == n:
        return 2 if n % 2 else 1
    return 1 if j == 1 else 3


def color_grid(m: int, n: int) -> ConstructionResult:
    """Color the m-by-n grid with at most 4 colors achieving the exact
    palette-index value (1, 2, 3, or 5 depending on the dimensions)."""
    return _build_row("grid", gen_grid(m, n))


def _color_grid_edges(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    """Apply the pattern of the grid `f.dims` to g's edges."""
    m, n = f.dims
    colors: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u > v:
            u, v = v, u
        # vertex x is grid position (x // n + 1, x % n + 1)
        colors[eid] = _grid_color(m, n, u // n + 1, u % n + 1, v - u == n)
    return _finish(g, colors, bound, "grid")


def recognize_grid(g: Graph) -> tuple[int, int] | None:
    """Dimensions (m, n) when g carries the grid generator's exact labeling
    (any edge order)."""
    n_verts = g.vertex_count
    for m in range(2, n_verts // 2 + 1):
        n, rest = divmod(n_verts, m)
        if rest or 2 * m * n - m - n != g.edge_count:
            continue
        # with as many edges as the m-by-n grid, each one a grid edge (x to
        # x + n, or x to x + 1 within a row) and none repeated, g is that
        # grid; edge x to x + n is keyed 2x + 1, x to x + 1 keyed 2x
        seen = bytearray(2 * n_verts)
        for u, v in g.edges:
            if u > v:
                u, v = v, u
            if v - u == n:
                key = 2 * u + 1
            elif v - u == 1 and v % n:
                key = 2 * u
            else:
                break
            if seen[key]:
                break
            seen[key] = 1
        else:
            return (m, n)
    return None


def color_grid_on(g: Graph) -> ConstructionResult:
    """Color a graph recognized as a grid, keyed to its own edge ids."""
    return _build_row("grid", g)


# ----------------------------------------------------------------------
# complete bipartite graphs
# ----------------------------------------------------------------------

def _complete_bipartite_color(a: int, b: int, i: int, j: int) -> int:
    """Color of K_{a,b}'s edge from the i-th vertex of the a-vertex side to
    the j-th of the b-vertex side, both 1-based.

    A base d-coloring of K_{d,d} (d = gcd) is translated across blocks of d;
    every vertex on the a-vertex side sees all b colors, and the b-vertex
    side shares palettes in blocks of d, giving 1 + b/d palettes in total.
    """
    d = math.gcd(a, b)
    return 1 + (i + j - 2) % d + d * (((i - 1) // d + (j - 1) // d) % (b // d))


def color_complete_bipartite(a: int, b: int) -> ConstructionResult:
    """Proper b-coloring of K_{a,b} (a < b) with exactly 1 + b/gcd(a,b)
    distinct palettes; every vertex on the small side sees all b colors."""
    if a < 1 or a >= b:
        raise GraphError(f"need 1 <= a < b, got ({a}, {b})")
    g = gen_complete_bipartite(a, b)
    result = _build_row("complete-bipartite", g)
    summary = palette_summary(g, result.coloring)
    full = frozenset(range(1, b + 1))
    assert all(summary.palette_of[i] == full for i in range(a))
    assert result.palettes == result.claimed_palette_bound
    return result


# ----------------------------------------------------------------------
# biregular families
# ----------------------------------------------------------------------

def _split_classes(g: Graph, bip: Bipartition, unit: int) -> list[frozenset[int]]:
    """Split every vertex into degree-`unit` copies and peel the
    `unit`-regular result into `unit` perfect matchings.  Edge ids survive
    the split, so each class meets every vertex of g degree/unit times."""
    for side in ("X", "Y"):
        g, back = split_part_vertices(g, bip, side, unit)
        bip = Bipartition(tuple(bip.side_of[orig] for orig in back))
    return peel_perfect_matchings(g, bip, unit)


def _color_part(g: Graph, edge_ids, build: Callable[[Graph], ConstructionResult],
                colors: dict[int, int], shift: int = 0) -> None:
    """Color the subgraph on an edge subset, isolated vertices dropped, with
    `build`, and merge the shifted colors into `colors` under g's edge ids."""
    sub, kept = edge_subgraph(g, edge_ids)
    trimmed, _ = without_isolated(sub)  # edge ids survive the trim
    for ne, c in build(trimmed).coloring.color_of.items():
        colors[kept[ne]] = c + shift


def _color_factor(g: Graph, factor: frozenset[int], big_side: tuple[int, ...],
                  first: int, colors: dict[int, int]) -> None:
    """Give each big-side vertex's factor edges, in id order, the colors
    first, first+1, ..."""
    for y in big_side:
        for k, eid in enumerate(e for e in g.incidence[y] if e in factor):
            colors[eid] = first + k


def color_3_3r(g: Graph) -> ConstructionResult:
    """Color a (3,3r)- or (3r-3,3r)-biregular graph within r*r + 1 palettes.

    A perfect matching of the cubic split graph pulls back to a factor F
    meeting each big-side vertex r times; the rest is a graph with all
    degrees even, colored in pairs, and F gets the r extra colors.
    """
    return _build_row("deg3-family", g)


def _color_3_3r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    r = f.prof.b // 3
    factor = _split_classes(g, f.bip, 3)[0]
    rest = [eid for eid in range(g.edge_count) if eid not in factor]
    colors: dict[int, int] = {}
    _color_part(g, rest, color_even_bipartite, colors)
    if f.prof.a == 3:
        _color_factor(g, factor, f.prof.y_vertices, 2 * r + 1, colors)
    else:
        # each small-side vertex holds r-1 factor edges, so per-vertex color
        # lists could clash; a degree-many coloring of F avoids that
        _color_part(g, factor, lambda h: _build_row("konig-biregular", h),
                    colors, 2 * r)
    tag = "deg3-multiple" if f.prof.a == 3 else "deg3-multiple-complement"
    return _finish(g, colors, bound, tag)


def color_4_4r(g: Graph) -> ConstructionResult:
    """Color a (4,4r)- or (4r-4,4r)-biregular graph within r*r + 1 palettes
    by parity-splitting into two half-degree graphs colored in disjoint
    pair ranges."""
    return _build_row("deg4-family", g)


def _color_4_4r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    r = f.prof.b // 4
    red, blue = parity_split(g)
    colors: dict[int, int] = {}
    _color_part(g, red, color_even_bipartite, colors)
    _color_part(g, blue, color_even_bipartite, colors, 2 * r)
    tag = "deg4-multiple" if f.prof.a == 4 else "deg4-multiple-complement"
    return _finish(g, colors, bound, tag)


def color_5_5r(g: Graph) -> ConstructionResult:
    """Color a (5,5r)-biregular graph within r**3 + 1 palettes: pull back a
    factor from the 5-regular split, color the remaining (4,4r) graph, and
    spend r extra colors on the factor."""
    return _build_row("deg5-family", g)


def _color_5_5r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    r = f.prof.b // 5
    factor = _split_classes(g, f.bip, 5)[0]
    rest = [eid for eid in range(g.edge_count) if eid not in factor]
    colors: dict[int, int] = {}
    _color_part(g, rest, color_4_4r, colors)
    _color_factor(g, factor, f.prof.y_vertices, 4 * r + 1, colors)
    return _finish(g, colors, bound, "deg5-multiple")


def color_r_2r(g: Graph) -> ConstructionResult:
    """Color an (r,2r)-biregular graph within 2**ceil(r/2) + 1 palettes.

    Even r = 2k: the degree-k split decomposes the graph into k pieces with
    degrees (2,4), each colored in its own 4-color band.  Odd r = 2k+1: a
    pulled-back (1,2) factor takes the last two colors and the rest recurses
    into the even case.
    """
    return _build_row("half-family", g)


def _color_r_2r(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    r = f.prof.a
    k = r // 2
    colors: dict[int, int] = {}
    if r % 2 == 0:
        for i, piece in enumerate(_split_classes(g, f.bip, k)):
            _color_part(g, piece, color_even_bipartite, colors, 4 * i)
    else:
        # side X has degree r, so only side Y really splits
        factor = _split_classes(g, f.bip, r)[0]
        rest = [eid for eid in range(g.edge_count) if eid not in factor]
        # the rest is (2k,4k)-biregular and lands in the even case
        _color_part(g, rest, color_r_2r, colors)
        _color_factor(g, factor, f.prof.y_vertices, 4 * k + 1, colors)
        assert all(sum(e in factor for e in g.incidence[y]) == 2
                   for y in f.prof.y_vertices)
    return _finish(g, colors, bound, "half-degree-family")


def color_3_5(g: Graph) -> ConstructionResult:
    """Color a (3,5)-biregular graph within 7 palettes: a matching saturating
    the degree-5 side takes color 5, the rest is colored by doubling."""
    return _build_row("deg35-family", g)


def _color_3_5(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    return _five_on_matching(g, matching_covering_max_degree(g, f.bip), bound,
                             "deg35-matching")


def color_2_odd(g: Graph) -> ConstructionResult:
    """Color a (2,2r+1)-biregular graph within 2r+2 palettes.

    A coloring with 2r+2 colors in which every vertex's colors form a
    consecutive block is found by backtracking, then all colors are reduced
    modulo 2r+1 into 1..2r+1.
    """
    return _build_row("two-odd-family", g)


def _color_2_odd(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    interval = _interval_coloring_search(g, f.prof, bound)
    colors = {eid: 1 + (c - 1) % f.prof.b for eid, c in interval.items()}
    return _finish(g, colors, bound, "two-odd-cyclic")


def _interval_coloring_search(g: Graph, prof: BiregularProfile, t: int,
                              budget: int = 10 ** 7) -> dict[int, int]:
    """Backtracking search for a proper t-coloring where each vertex's colors
    form a consecutive block; edges are processed grouped by big-side vertex
    so the block constraints propagate early."""
    order: list[int] = []
    for y in prof.y_vertices:
        order.extend(g.incidence[y])
    assert len(order) == g.edge_count
    deg = g.degrees
    used = [0] * g.vertex_count  # bitmask of colors present at each vertex
    lo = [t + 1] * g.vertex_count
    hi = [0] * g.vertex_count
    color = [0] * len(order)  # color placed at each depth, 0 for none
    saved: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * len(order)
    nodes = 0
    idx = 0
    while 0 <= idx < len(order):
        u, v = g.edges[order[idx]]
        c = color[idx]
        if c:  # back at this depth: take its color off before trying the next
            used[u] &= ~(1 << c)
            used[v] &= ~(1 << c)
            lo[u], hi[u], lo[v], hi[v] = saved[idx]
        for c in range(c + 1, t + 1):
            bit = 1 << c
            if (used[u] | used[v]) & bit:
                continue
            if not (max(hi[u], c) - min(lo[u], c) < deg[u]
                    and max(hi[v], c) - min(lo[v], c) < deg[v]):
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(
                    f"interval coloring search exceeded {budget} nodes")
            saved[idx] = (lo[u], hi[u], lo[v], hi[v])
            used[u] |= bit
            used[v] |= bit
            lo[u], hi[u] = min(lo[u], c), max(hi[u], c)
            lo[v], hi[v] = min(lo[v], c), max(hi[v], c)
            color[idx] = c
            idx += 1
            break
        else:
            color[idx] = 0
            idx -= 1
    if idx < 0:
        raise BudgetExhausted("no block-interval coloring found "
                              f"with {t} colors (search exhausted)")
    return dict(zip(order, color))


def _star_coloring(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    """Color a disjoint union of stars: each center's edges get 1..b."""
    colors: dict[int, int] = {}
    for center in f.prof.y_vertices:
        for k, eid in enumerate(g.incidence[center]):
            colors[eid] = k + 1
    return _finish(g, colors, bound, "star")


def _konig_result(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    return _finish(g, dict(konig_coloring(g, f.bip).color_of), bound, "konig")


def _is_complete_bipartite(g: Graph, prof: BiregularProfile) -> bool:
    return (g.is_simple()
            and g.edge_count == prof.x_count * prof.y_count
            and prof.b == prof.x_count and prof.a == prof.y_count)


def _complete_on_graph(g: Graph, f: RouteFacts, bound: int) -> ConstructionResult:
    """Apply the complete-bipartite pattern to a graph recognized as K_{a,b},
    whatever its vertex labels."""
    a, b = f.prof.a, f.prof.b
    us = sorted(f.prof.y_vertices)  # the small, high-degree side
    vs = sorted(f.prof.x_vertices)
    u_index = {v: i + 1 for i, v in enumerate(us)}
    v_index = {v: j + 1 for j, v in enumerate(vs)}
    colors = {}
    for eid, (p, q) in enumerate(g.edges):
        if p not in u_index:
            p, q = q, p
        colors[eid] = _complete_bipartite_color(a, b, u_index[p], v_index[q])
    return _finish(g, colors, bound, "complete-bipartite")


def color_complete_bipartite_on(g: Graph) -> ConstructionResult:
    """Color a graph recognized as K_{a,b} with a < b, whatever its vertex
    labels, within 1 + b/gcd(a,b) palettes."""
    return _build_row("complete-bipartite", g)


# ----------------------------------------------------------------------
# the route table: where each construction applies and what it promises
# ----------------------------------------------------------------------

@dataclass
class RouteFacts:
    """The facts about one graph that the routes test, each computed at most
    once and only when a route asks for it."""

    g: Graph

    @cached_property
    def prof(self) -> BiregularProfile | None:
        return biregular_profile(self.g)

    @cached_property
    def bip(self) -> Bipartition | None:
        """A bipartition; with a profile, the one whose side X has degree a.

        A graph recognized as the m-by-n grid (`dims`) takes its sides from
        the grid labeling, position parity (x // n + x % n) % 2, without a
        search: the grid is connected and vertex 0 is on side X, so these
        are the sides `bipartition` finds.
        """
        if self.prof is None:
            if self.dims is not None:
                n = self.dims[1]
                return Bipartition(tuple((x // n + x % n) % 2
                                         for x in range(self.g.vertex_count)))
            return bipartition(self.g)
        side = [SIDE_Y] * self.g.vertex_count
        for v in self.prof.x_vertices:
            side[v] = SIDE_X
        return Bipartition(tuple(side))

    @cached_property
    def dims(self) -> tuple[int, int] | None:
        # Every grid but 2x2 puts (1,1), of degree 2, and (2,2), of degree 3
        # or 4, on one side, so no other biregular graph is a grid.
        if self.prof is not None and (self.prof.a, self.prof.b) != (2, 2):
            return None
        return recognize_grid(self.g)

    @cached_property
    def even(self) -> bool:  # bipartite with every degree even
        return self.bip is not None and self.g.is_even()

    @cached_property
    def matching(self) -> Matching:  # a maximum matching; needs a bipartition
        return maximum_matching(self.g, self.bip)


@dataclass(frozen=True)
class Route:
    """A construction with the catalog tag and justification of its bound.
    `bound` is None where the route does not apply."""

    tag: str
    note: str
    bound: Callable[[RouteFacts], int | None]
    build: Callable[[Graph, RouteFacts, int], ConstructionResult]


def _on_profile(family: Callable[[int, int], int | None]
                ) -> Callable[[RouteFacts], int | None]:
    """Route bound of a family of (a,b)-biregular graphs, a <= b."""
    return lambda f: None if f.prof is None else family(f.prof.a, f.prof.b)


def _deg5_perfect_bound(f: RouteFacts) -> int | None:
    g, bip = f.g, f.bip
    # a perfect matching needs sides of equal size; a regular bipartite graph has one
    if bip is None or g.max_degree != 5 or 2 * len(bip.x_vertices()) != g.vertex_count:
        return None
    regular = f.prof is not None and f.prof.a == f.prof.b
    return 12 if regular or 2 * len(f.matching) == g.vertex_count else None


# A row whose construction is a public builder that the benchmark's tracer
# wraps (`color_even_bipartite`, `color_via_doubling`) calls it through a
# lambda, which looks the module attribute up when the row runs, so the
# tracer's rebinding is seen.  Every other row names its body.  The order
# breaks ties.
ROUTES: tuple[Route, ...] = (
    Route("grid", "grid, exact value",
          lambda f: None if f.dims is None else grid_palette_value(*f.dims),
          _color_grid_edges),
    Route("star", "disjoint stars",
          _on_profile(lambda a, b: b + 1 if a == 1 < b else None), _star_coloring),
    Route("even-family", "(2,2r)- or (2r-2,2r)-biregular",
          _on_profile(lambda a, b: b // 2 + 1
                      if b % 2 == 0 and a in (2, b - 2) and a < b else None),
          lambda g, f, bound: color_even_bipartite(g)),
    Route("two-odd-family", "(2,2r+1)-biregular",
          _on_profile(lambda a, b: b + 1 if a == 2 and b % 2 == 1 else None),
          _color_2_odd),
    Route("deg3-family", "(3,3r)- or (3r-3,3r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 3) ** 2 + 1
                      if b % 3 == 0 and b // 3 >= 2 and a in (3, b - 3) else None),
          _color_3_3r),
    Route("deg4-family", "(4,4r)- or (4r-4,4r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 4) ** 2 + 1
                      if b % 4 == 0 and b // 4 >= 2 and a in (4, b - 4) else None),
          _color_4_4r),
    Route("deg5-family", "(5,5r)-biregular, r >= 2",
          _on_profile(lambda a, b: (b // 5) ** 3 + 1
                      if a == 5 and b % 5 == 0 and b // 5 >= 2 else None),
          _color_5_5r),
    Route("half-family", "(r,2r)-biregular, r >= 2",
          _on_profile(lambda a, b: 2 ** ((a + 1) // 2) + 1
                      if b == 2 * a and a >= 2 else None),
          _color_r_2r),
    Route("deg35-family", "(3,5)-biregular",
          _on_profile(lambda a, b: 7 if (a, b) == (3, 5) else None), _color_3_5),
    Route("complete-bipartite", "complete bipartite K_{a,b}, a < b",
          lambda f: (1 + f.prof.b // math.gcd(f.prof.a, f.prof.b)
                     if f.prof is not None and f.prof.a < f.prof.b
                     and _is_complete_bipartite(f.g, f.prof) else None),
          _complete_on_graph),
    Route("konig-regular", "regular bipartite",
          _on_profile(lambda a, b: 1 if a == b else None), _konig_result),
    Route("konig-biregular", "(a,b)-biregular, from a maxdeg coloring",
          _on_profile(lambda a, b: 1 + math.comb(b, a) if a < b else None),
          _konig_result),
    Route("even-pairs", "even bipartite",
          lambda f: _even_pairs_bound(f.g) if f.even else None,
          lambda g, f, bound: color_even_bipartite(g)),
    Route("even-deg4", "even bipartite, maxdeg 4",
          lambda f: 3 if f.even and f.g.max_degree == 4 else None,
          lambda g, f, bound: color_even_bipartite(g)),
    Route("even-deg6", "even bipartite, maxdeg 6",
          lambda f: 7 if f.even and f.g.max_degree == 6 else None,
          lambda g, f, bound: color_even_bipartite(g)),
    Route("doubling", "bipartite",
          lambda f: None if f.bip is None else doubling_palette_bound(f.g),
          lambda g, f, bound: color_via_doubling(g)),
    Route("deg4", "bipartite, maxdeg 4",
          lambda f: 11 if f.bip is not None and f.g.max_degree == 4 else None,
          lambda g, f, bound: color_via_doubling(g)),
    Route("deg4-no-pendant", "bipartite, maxdeg 4, no pendants",
          lambda f: (7 if f.bip is not None and f.g.max_degree == 4
                     and f.g.min_degree >= 2 else None),
          lambda g, f, bound: color_via_doubling(g)),
    Route("deg5", "bipartite, maxdeg 5",
          lambda f: 23 if f.bip is not None and f.g.max_degree == 5 else None,
          _color_deg5),
    Route("deg5-perfect-matching", "bipartite, maxdeg 5, perfect matching",
          _deg5_perfect_bound, _color_deg5),
)


def route_bounds(facts: RouteFacts) -> list[tuple[Route, int]]:
    """The routes that apply, with their bounds, smallest first; ties keep
    table order, so the first is the route `color_auto` takes."""
    bounds = [(route, route.bound(facts)) for route in ROUTES]
    return sorted((rb for rb in bounds if rb[1] is not None), key=lambda rb: rb[1])


def _color_by_best_route(g: Graph, facts: RouteFacts) -> ConstructionResult:
    routes = route_bounds(facts)
    if not routes:
        raise GraphError("no coloring strategy applies to this graph")
    route, bound = routes[0]
    return route.build(g, facts, bound)


def _build_row(tag: str, g: Graph) -> ConstructionResult:
    """Build the ROUTES row `tag` on g; the public builder of a row checks
    its input through the row's bound, so the row's condition is written
    once."""
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    route = next(r for r in ROUTES if r.tag == tag)
    facts = RouteFacts(g)
    bound = route.bound(facts)
    if bound is None:
        raise GraphError(f"graph is not {route.note}")
    return route.build(g, facts, bound)


def color_auto(g: Graph) -> ConstructionResult:
    """Color g by the applicable route that promises the fewest palettes;
    ties go to the route listed first in ROUTES."""
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")
    return _color_by_best_route(g, RouteFacts(g))


def color_biregular_auto(g: Graph) -> ConstructionResult:
    """`color_auto` for biregular graphs, and for bipartite graphs whose
    degrees are all even."""
    facts = RouteFacts(g)
    if facts.prof is None and (not facts.even or g.has_isolated_vertices()):
        raise GraphError("graph is not biregular")
    return _color_by_best_route(g, facts)
