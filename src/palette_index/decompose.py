"""Decompositions the colorings are built from: Eulerian circuits,
2-factorizations, bipartite matchings, degree-many edge colorings of
bipartite graphs, vertex splitting, and alternating parity splits.

One primitive carries the general bipartite work: `konig_coloring`, the
alternating-path max-degree edge coloring.  Perfect matchings of regular
bipartite graphs are read from its color classes; a true maximum matching
(Hopcroft-Karp) is computed only where one is asked for.  Its alternating
paths are swapped by `swap_kempe_chain`, one walk that exchanges two colors
in place over an `at[v][c] -> edge` table; `cyclic_interval_coloring`
swaps its chains with the same walk.

2-factors come from a proper coloring of the arcs of an Euler
orientation of the graph, kept as one color per arc in a flat list, so
that every vertex has one out-arc and one in-arc of each color.  The
padding loops that make the graph regular are appended as arcs, not
walked.  The arcs are colored level by level: a level of even degree
splits into two halves along closed trails, and Kőnig colors only the
levels of odd degree, so the coloring costs O(m log r) when r is a power
of two.  `factor_arcs` reads off each edge's arc its factor (the arc's
color), the vertex the arc leaves and the arc's place in the orientation,
and `two_factorization` groups the edges by factor.  In a bipartite graph
a circuit alternates arcs that leave side X with arcs that leave side Y,
and has even length, so an arc's index is even exactly when it leaves the
side of its circuit's start, the smallest vertex of its component: that
parity is all `color_even_bipartite` needs to alternate a factor's color
pair, with no search for the sides.

Everything here is deterministic: trails start at the smallest vertex id,
edges are colored, and scanned for augmenting paths, in ascending edge-id
order, and the repair's rng is seeded with the edge count.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import accumulate
from operator import xor

from .graph import SIDE_X, SIDE_Y, Bipartition, Graph, GraphError


def eulerian_circuit(g: Graph) -> list[list[int]]:
    """One closed Eulerian trail per component with edges, as edge-id lists.

    Requires every degree to be even.  Hierholzer stitching with
    smallest-unused-edge tie-breaking runs on the host graph from each
    vertex, in id order, that still has an unused edge, so each trail starts
    at the smallest vertex id of its component.
    """
    degrees = g.degrees
    for v, d in enumerate(degrees):
        if d % 2 != 0:
            raise GraphError(f"vertex {v} has odd degree {d}; no Eulerian circuit")
    incidence, edges = g.incidence, g.edges
    used = [False] * g.edge_count
    ptr = [0] * g.vertex_count
    circuits: list[list[int]] = []
    for start in range(g.vertex_count):
        if ptr[start] == len(incidence[start]):
            continue  # isolated, or its component's trail is done
        # the walk as two parallel stacks: each vertex, and the edge used to
        # arrive there (-1 at the start)
        at, via = [start], [-1]
        trail: list[int] = []
        while at:
            v = at[-1]
            inc = incidence[v]
            p, end = ptr[v], len(inc)
            while p < end and used[inc[p]]:
                p += 1
            if p == end:
                ptr[v] = p
                at.pop()
                eid = via.pop()
                if eid >= 0:
                    trail.append(eid)
            else:
                ptr[v] = p + 1
                eid = inc[p]
                used[eid] = True
                x, y = edges[eid]
                at.append(x ^ y ^ v)  # the other end
                via.append(eid)
        trail.reverse()
        circuits.append(trail)
    assert 2 * sum(map(len, circuits)) == sum(degrees)
    return circuits


def two_factorization(g: Graph) -> tuple[frozenset[int], ...]:
    """Split a 2r-regular multigraph (loops allowed, counting 2) into r
    2-factors, each the edge-id set of a spanning 2-regular subgraph.

    Factor i holds the edges that `factor_arcs` puts in factor i.  For r a
    power of two the factors cost O(m log r).  A graph without edges has
    no factors.
    """
    degs = set(g.degrees)
    if len(degs) > 1:
        raise GraphError(f"graph is not regular: degrees {sorted(degs)}")
    factor = factor_arcs(g)[0]
    groups: list[list[int]] = [[] for _ in range(g.max_degree // 2)]
    for eid, i in enumerate(factor):
        groups[i - 1].append(eid)
    return tuple(map(frozenset, groups))


def factor_arcs(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """`(factor, tail, arc)` by edge id: the 2-factor (1..r) of g padded
    with loops to its maximum degree 2r that holds the edge, which is the
    color `_two_factor_table` gives the edge's arc; the vertex that arc
    leaves in the Euler orientation; and the arc's index in that
    orientation, which lists each component's circuit in turn, each from
    its smallest vertex.

    Requires every degree to be even.  Each factor is a set of directed
    cycles, one out-arc and one in-arc per vertex, so in a bipartite graph
    a factor's cycles alternate arcs that leave side X with arcs that leave
    side Y.  A vertex's padding loop in factor i is both its arcs there, so
    a vertex has either two edges of g in factor i or none.
    """
    if not g.is_even():
        raise GraphError("all degrees must be even")
    m, r = g.edge_count, g.max_degree // 2
    factor, tail, arc = [0] * m, [0] * m, [0] * m
    if r == 0:
        return factor, tail, arc
    color, tails, source = _two_factor_table(g, r)
    # zip stops at the padding loops, the arcs after g's m edges
    for a, (eid, i, t) in enumerate(zip(source, color, tails)):
        factor[eid], tail[eid], arc[eid] = i, t, a
    return factor, tail, arc


def _two_factor_table(g: Graph, r: int
                      ) -> tuple[list[int], list[int], list[int]]:
    """Petersen's 2-factorization of g padded to 2r-regular, as a proper
    r-coloring of the arcs of an Euler orientation.

    Each component's Eulerian circuit, walked on g itself, is oriented from
    its smallest vertex, and arc a from tail t to head h is the edge
    (t, n + h) of the in/out bipartite realization.  Then every vertex v of
    degree d gets r - d/2 padding loops as arcs (v, n + v), after g's
    arcs: a loop gives the same arc either way round, so it need not be
    walked.  The realization is r-regular, and `_regular_bipartite_table`
    colors its arcs with 1..r so that every vertex has one out-arc and one
    in-arc of each color: each color is a spanning 2-regular factor.
    Returns, by arc, `color[a]` and `tails[a]`, and `source[a]`, the edge
    id of arc a < m: arcs 0..m-1 are g's edges, in circuit order, and the
    rest the padding loops.
    """
    n, edges = g.vertex_count, g.edges
    ends = [x ^ y for x, y in edges]
    tails: list[int] = []
    heads: list[int] = []
    source: list[int] = []
    for circuit in eulerian_circuit(g):
        # the trail starts at its smallest vertex, and each edge leads on
        # to the xor of its ends with the vertex it leaves
        trail = list(accumulate(map(ends.__getitem__, circuit), xor,
                                initial=min(edges[circuit[0]])))
        tails += trail[:-1]
        heads += map(n.__add__, trail[1:])
        source += circuit
    pad = [v for v, d in enumerate(g.degrees) for _ in range(r - d // 2)]
    tails += pad
    heads += map(n.__add__, pad)
    color = _regular_bipartite_table(n, r, tails, heads)
    # n*r arcs, and at every tail and head the colors 1..r: so one arc of
    # each color leaves and enters each vertex
    seen = [0] * (2 * n)
    for t, h, c in zip(tails, heads, color):
        seen[t] |= 1 << c
        seen[h] |= 1 << c
    full = (1 << (r + 1)) - 2
    assert len(color) == n * r and seen.count(full) == 2 * n, \
        "a vertex misses an out-arc or an in-arc of some color"
    return color, tails, source


def _regular_bipartite_table(n: int, r: int, tails: list[int],
                             heads: list[int]) -> list[int]:
    """`color[a]`, in 1..r, of each arc a of a proper r-coloring of an
    r-regular bipartite multigraph on 2n vertices whose arc a runs from
    `tails[a]` < n to `heads[a]` >= n.

    A stack holds levels: arc lists that are d-regular on every vertex, with
    the colors base+1..base+d to give.  A level of even d is split along
    closed trails: the arcs at each vertex are paired, each pair is a
    passage through that vertex, and following the passages walks every arc
    once, from tail to head or back, so each vertex keeps d/2 arcs of each
    direction.  Arcs walked forward take the colors base+1..base+d/2 and the
    others the rest.  A level of odd d > 1 is colored by `_konig_table`, and
    one of degree 1 takes its one color.  When r is a power of two the cost
    is O(|arcs| log r).
    """
    color = [0] * len(tails)
    mate_t = [0] * len(tails)  # the arc paired with each arc at its tail
    mate_h = [0] * len(tails)  # and at its head
    # the degree of the last even level that walked each arc: an arc's
    # levels halve in degree, so it never equals the current one beforehand
    walked = [0] * len(tails)
    levels: list[tuple[Sequence[int], int, int]] = []
    if r:
        levels.append((range(len(tails)), 0, r))
    while levels:
        level, base, d = levels.pop()
        if d == 1:
            for a in level:
                color[a] = base + 1
        elif d % 2:
            arcs = [(tails[a], heads[a]) for a in level]
            _, konig, _ = _konig_table(2 * n, d, arcs, [SIDE_X] * n + [SIDE_Y] * n)
            for a, c in zip(level, konig):
                color[a] = base + c
        else:
            pending = [-1] * (2 * n)
            for a in level:
                t, h = tails[a], heads[a]
                if (p := pending[t]) < 0:
                    pending[t] = a
                else:
                    mate_t[a], mate_t[p], pending[t] = p, a, -1
                if (p := pending[h]) < 0:
                    pending[h] = a
                else:
                    mate_h[a], mate_h[p], pending[h] = p, a, -1
            forward: list[int] = []
            back: list[int] = []
            for a0 in level:
                if walked[a0] == d:
                    continue
                a = a0
                while True:  # tail to head along a, head to tail along b
                    b = mate_h[a]
                    walked[a] = walked[b] = d
                    forward.append(a)
                    back.append(b)
                    a = mate_t[b]
                    if a == a0:
                        break
            half = d // 2
            levels.append((back, base + half, half))
            levels.append((forward, base, half))
    return color


def maximum_matching(g: Graph, bip: Bipartition) -> frozenset[int]:
    """The edge ids of a maximum-cardinality matching, by Hopcroft-Karp (1973).

    Each phase layers the X side by breadth-first search from the free
    X-vertices, then augments along vertex-disjoint layered paths found by a
    depth-first search on an explicit stack.  X-vertices and their edges are
    scanned in ascending order.
    """
    n = g.vertex_count
    inc, edges = g.incidence, g.edges
    mate = [-1] * n  # matched edge id of each vertex
    xs = [v for v in range(n) if bip.side_of[v] == SIDE_X]
    while True:
        free = [x for x in xs if mate[x] < 0]
        layer = [-1] * n
        for x in free:
            layer[x] = 0
        queue, found = free[:], False
        for x in queue:
            for eid in inc[x]:
                y = g.other_end(eid, x)
                if mate[y] < 0:
                    found = True
                    continue
                x2 = g.other_end(mate[y], y)
                if layer[x2] < 0:
                    layer[x2] = layer[x] + 1
                    queue.append(x2)
        if not found:
            break
        ptr = [0] * n
        for root in free:
            stack, path = [root], []
            while stack:
                x = stack[-1]
                if ptr[x] == len(inc[x]):
                    layer[x] = -1  # dead end for the rest of the phase
                    stack.pop()
                    if path:
                        path.pop()
                    continue
                eid = inc[x][ptr[x]]
                ptr[x] += 1
                y = g.other_end(eid, x)
                if mate[y] < 0:
                    path.append(eid)
                    for e in path:
                        u, v = edges[e]
                        mate[u] = mate[v] = e
                    break
                x2 = g.other_end(mate[y], y)
                if layer[x2] == layer[x] + 1:
                    stack.append(x2)
                    path.append(eid)
    return frozenset(mate[x] for x in xs if mate[x] >= 0)


def peel_perfect_matchings(g: Graph, bip: Bipartition) -> list[frozenset[int]]:
    """Split a d-regular bipartite multigraph into d perfect matchings: the
    color classes 1..d of `konig_coloring`, where d is the common degree
    (no matchings for a graph without edges)."""
    rounds = g.max_degree
    if any(d != rounds for d in g.degrees):
        raise GraphError("graph is not regular")
    classes: list[set[int]] = [set() for _ in range(rounds)]
    for eid, c in enumerate(konig_coloring(g, bip)):
        classes[c - 1].add(eid)
    return [frozenset(cls) for cls in classes]


def swap_kempe_chain(at: list[list[int]], color: list[int], ends: list[int],
                     v: int, a: int, b: int) -> int:
    """Swap colors a and b, in place, along the a/b Kempe chain from v,
    which must miss b, and return the chain's far end.

    `at[w][c]` is the edge of color c at w (-1 if none), `color[e]` the color
    of edge e, and `ends[e]` the xor of its two ends.  The chain from a vertex
    missing b is a path, so each of its vertices is visited once, and
    exchanging the a and b slots of its table row is its whole update: an
    inner vertex keeps both edges, and an end holds -1 in one of the slots.
    """
    w, c = v, a
    row = at[v]
    while (e := row[c]) >= 0:
        row[a], row[b] = row[b], row[a]
        c = a + b - c
        color[e] = c
        w ^= ends[e]  # the other end
        row = at[w]
    row[a], row[b] = row[b], row[a]
    return w


def konig_coloring(g: Graph, bip: Bipartition) -> list[int]:
    """Colors, by edge id, of a proper edge coloring of a bipartite
    multigraph with exactly max-degree many colors, so every maximum-degree
    vertex sees the full palette 1..max degree.

    Kőnig's alternating-path proof: edges are colored in ascending id order.
    Edge uv, with u on side Y, takes the smallest color a free at u; when a
    is taken at v, colors a and b (the smallest free at v) are exchanged in
    place along the a/b chain from v by `swap_kempe_chain`.  That chain
    enters u's side only by a-edges, and u has none, so it never reaches u.
    No padding to a regular graph is needed.
    """
    return _konig_table(g.vertex_count, g.max_degree, g.edges, bip.side_of)[1]


def _konig_table(vertex_count: int, delta: int,
                 edges: Sequence[tuple[int, int]], side_of: Sequence[int]
                 ) -> tuple[list[list[int]], list[int], list[int]]:
    """`konig_coloring` over plain lists: its table `at[v][c]`, the edge of
    color c at v (-1 if none, slot 0 unused), `color[e]` and `ends[e]`."""
    at = [[-1] * (delta + 1) for _ in range(vertex_count)]
    color = [0] * len(edges)
    ends = [x ^ y for x, y in edges]
    for eid, (u, v) in enumerate(edges):
        if side_of[u] == SIDE_X:
            u, v = v, u
        at_u, at_v = at[u], at[v]
        a = at_u.index(-1, 1)
        if at_v[a] >= 0:
            swap_kempe_chain(at, color, ends, v, a, at_v.index(-1, 1))
        color[eid] = a
        at_u[a] = at_v[a] = eid
    return at, color, ends


_REPAIR_STEPS_PER_EDGE = 5  # the budget of `cyclic_interval_coloring`


def cyclic_interval_coloring(g: Graph, bip: Bipartition) -> list[int] | None:
    """Colors 1..b, per edge id, of a (2,b)-biregular graph with side X of
    degree 2, where each degree-2 vertex's colors are adjacent mod b; None
    if `_REPAIR_STEPS_PER_EDGE` steps per edge do not get there.

    From Kőnig's b-coloring, each step swaps, at a random costly vertex x,
    the Kempe chain from x that most lowers the count of costly vertices
    (random among equals, or with probability 0.1 any chain); only x and
    the chain's far end change palette.
    """
    b = g.max_degree
    at, color, ends = _konig_table(g.vertex_count, b, g.edges, bip.side_of)
    inc = g.incidence
    costly: list[int] = []  # the costly vertices, v at index pos[v]
    pos = [-1] * g.vertex_count

    def is_costly(v: int) -> bool:
        return (color[inc[v][0]] - color[inc[v][1]]) % b not in (1, b - 1)

    def update(v: int) -> None:
        if is_costly(v) and pos[v] < 0:
            pos[v] = len(costly)
            costly.append(v)
        elif not is_costly(v) and pos[v] >= 0:  # v's slot takes the last one
            last = costly[pos[v]] = costly[-1]
            pos[last], pos[v] = pos[v], -1
            costly.pop()

    def change(x: int, a: int, c: int) -> int:  # swaps the chain, and back
        w = swap_kempe_chain(at, color, ends, x, a, c)
        delta = is_costly(x) + is_costly(w) - 1 - (pos[w] >= 0)
        swap_kempe_chain(at, color, ends, x, c, a)
        return delta

    for v in bip.x_vertices():
        update(v)
    rng = random.Random(g.edge_count)
    for _ in range(_REPAIR_STEPS_PER_EDGE * g.edge_count):
        if not costly:
            break
        x = costly[rng.randrange(len(costly))]
        pair = (color[inc[x][0]], color[inc[x][1]])
        moves = [(a, c) for a in pair for c in range(1, b + 1) if c not in pair]
        if rng.random() < 0.1:
            a, c = moves[rng.randrange(len(moves))]
        else:  # the best move, ties broken at random
            a, c = min(moves, key=lambda m: (change(x, *m), rng.random()))
        update(swap_kempe_chain(at, color, ends, x, a, c))
        update(x)
    return None if costly else color


def matching_covering_max_degree(g: Graph, bip: Bipartition) -> frozenset[int]:
    """The edge ids of an inclusion-minimal matching covering every
    maximum-degree vertex.

    Color class 1 of the degree-many coloring covers all of them (such a
    vertex is incident with every color); members touching no maximum-degree
    vertex are then dropped.
    """
    delta = g.max_degree
    if delta == 0:
        return frozenset()
    class1 = [eid for eid, c in enumerate(konig_coloring(g, bip)) if c == 1]
    kept = [eid for eid in class1
            if g.degrees[g.edges[eid][0]] == delta
            or g.degrees[g.edges[eid][1]] == delta]
    return frozenset(kept)


def split_part_vertices(g: Graph, target: int) -> tuple[Graph, tuple[int, ...]]:
    """Replace each vertex of degree d by d/target copies of degree `target`,
    in vertex order, giving the copies its incident edges in consecutive
    edge-id blocks.  Edge ids are preserved.

    Rejects loops, a target below 1 and a degree not divisible by `target`.
    Returns the new graph and a back-map (new vertex id -> original id).
    """
    if target < 1:
        raise GraphError(f"target degree must be positive, got {target}")
    for v, d in enumerate(g.degrees):
        if d % target != 0:
            raise GraphError(f"vertex {v} has degree {d}, not divisible by {target}")
    if any(u == v for u, v in g.edges):
        raise GraphError("cannot split a graph with loops")
    edges = g.edges
    back: list[int] = []
    # the new ends of each edge: the copy of its first end, and of its second
    firsts, seconds = [0] * g.edge_count, [0] * g.edge_count
    for v, inc in enumerate(g.incidence):
        base = len(back)
        for pos, eid in enumerate(inc):
            (firsts if edges[eid][0] == v else seconds)[eid] = base + pos // target
        back.extend([v] * (len(inc) // target))
    return Graph(len(back), tuple(zip(firsts, seconds))), tuple(back)


def parity_split(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Alternating red/blue split along each component's Eulerian circuit.

    Needs all degrees even and an even number of edges per component; then
    every vertex has exactly half of its degree on each side.
    """
    red: set[int] = set()
    blue: set[int] = set()
    for circuit in eulerian_circuit(g):
        if len(circuit) % 2 != 0:
            raise GraphError(
                f"component with odd edge count {len(circuit)} cannot be parity-split")
        for pos, eid in enumerate(circuit):
            (red if pos % 2 == 0 else blue).add(eid)
    return frozenset(red), frozenset(blue)
