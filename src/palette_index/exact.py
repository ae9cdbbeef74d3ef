"""Desk-scale exact solver: the minimum distinct-palette count over all
proper edge colorings, and the unpruned enumeration it is checked against.

The palette solver enumerates set partitions of the edge set into matchings
in restricted-growth (first-use) order, which quotients out color
permutations; palettes are compared as sets of block indices.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .graph import Graph, GraphError


@dataclass
class PaletteIndexResult:
    value: int
    witness: list[int]  # a coloring, by edge id, with `value` palettes
    proved: bool  # False when a budget stopped the search
    nodes: int


def _check_solver_input(g: Graph) -> None:
    if any(u == v for u, v in g.edges):
        raise GraphError("loops cannot be properly edge-colored")
    if g.has_isolated_vertices():
        raise GraphError("isolated vertices are not allowed here")


def palette_index_exact(g: Graph, max_nodes: int | None = None,
                        max_seconds: float | None = None) -> PaletteIndexResult:
    """Minimum number of distinct palettes over all proper edge colorings,
    with a witness coloring attaining it.

    Branch and bound over canonical matching partitions, on an explicit
    stack so that only the budgets bound the search.  Edges are taken in a
    fail-first order fixed before the search: repeatedly the vertex with
    the fewest edges not yet listed lists them, so palettes freeze early
    and the frozen-palette prunes fire near the root.  Pruning uses the
    running best, the palettes of already-saturated vertices, the fact
    that palettes of different sizes are always distinct, and orphans.
    Twin vertices (same neighbours, no parallel edges) are ordered by a
    lex-leader constraint.  When a budget runs out the best coloring found
    so far is returned with proved=False.

    An end of the edge is orphaned when it has uncolored edges, some
    vertex of its degree is frozen, and no frozen palette of that degree
    contains its palette.  With slack = best - distinct - missing, one
    orphan refuses the block at slack 1, and two orphans of different
    degrees refuse it at slack 2.  Sound: an orphan's final palette is
    none of the counted ones and not of a missing degree's size, and two
    orphans of different degrees end with palettes of different sizes, so
    the count reaches the best.  Only the incumbent and the frozen palettes
    are used, never a claimed value.  `wit[w]` caches the frozen palette
    that last extended w's palette; while it is frozen and still extends,
    the test needs no scan, and a scan that finds one stores it, so the
    cache never changes an answer.

    The incumbent starts from a greedy first-fit seed, whose palette count
    is read off its per-vertex block bitmasks; no palette summary is built.
    The returned witness is proper by construction: the seed and the search
    both put an edge only in a block that misses both its ends.

    The search is one flat loop.  Per vertex it keeps `pal`, the bitmask of
    blocks at it, and `rem`, its edges not yet colored; a vertex is frozen
    (saturated) once `rem` is 0.  `frozen` maps, per degree, each frozen
    palette mask to the number of frozen vertices with it, and `missing`
    counts the degrees with no frozen vertex yet.  Per depth it keeps the
    blocks still to try, the block taken, and the distinct and opened-block
    counts on entry.  Undo rule: taking a block sets it in both palettes,
    lowers both `rem` and freezes each end whose `rem` reaches 0, so undoing
    it unfreezes exactly the ends whose `rem` is 0 before restoring the
    rest; a refused block and a backtrack share this one undo.  Nodes are
    counted on entry, in first-use block order; tests pin the node count
    and the witness on fixed graphs, which guards that order and the place
    where a budget cuts the tree.
    """
    for name, val in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
        if val is not None and not val > 0:  # NaN is not > 0 either
            raise ValueError(f"{name} must be positive, got {val}")
    _check_solver_input(g)
    m = g.edge_count
    if m == 0:
        return PaletteIndexResult(0, [], True, 0)

    degs = g.degrees
    edges = g.edges
    global_lb = len(set(degs))  # palettes of different sizes differ

    # greedy first-fit seed in degree-sum order: independent upper bound and
    # fallback witness; its palette count is that of its per-vertex block
    # bitmasks, and when it meets the degree-count bound nothing is left
    seed_order = sorted(range(m), key=lambda e: (-(degs[edges[e][0]] + degs[edges[e][1]]), e))
    seed_assign, seed_pal = _greedy_blocks([edges[e] for e in seed_order], g.vertex_count)
    best_value = len(set(seed_pal))
    if best_value <= global_lb:
        return PaletteIndexResult(best_value, _witness(seed_order, seed_assign), True, 0)

    order = _saturation_order(g)
    ends = [edges[e] for e in order]
    block_of = dict(zip(seed_order, seed_assign))
    best_assign = [block_of[e] for e in order]
    above = _twin_constraints(g, order)

    rem = list(degs)  # uncolored incident edges per vertex
    pal = [0] * g.vertex_count  # block-index bitmask per vertex
    # frozen[w] is the map of w's degree, shared by every vertex of that
    # degree: palette mask -> count of saturated vertices with it
    by_degree: dict[int, dict[int, int]] = {d: {} for d in degs}
    frozen = [by_degree[d] for d in degs]
    missing = global_lb  # degrees no saturated vertex has yet
    # wit[w]: the frozen palette last found to extend w's palette; 0 matches
    # no frozen palette, and a stale key fails the membership test
    wit = [0] * g.vertex_count
    # per depth: blocks still to try, block taken, and the distinct count
    # and opened-block count on entry
    todo = [0] * m
    taken = [0] * m
    entry_distinct = [0] * m
    entry_count = [0] * m
    nodes = 0
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    out_of_budget = False

    depth = 0
    distinct = 0
    count = 0  # blocks opened so far
    while depth >= 0:
        # enter the node at `depth`
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            out_of_budget = True
            break
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            out_of_budget = True
            break
        u, v = ends[depth]
        # an open block, or the first unopened one (first-use order)
        free = ~(pal[u] | pal[v]) & ((2 << count) - 1)
        for p in above[depth]:
            free &= -(2 << taken[p])
        entry_distinct[depth] = distinct
        entry_count[depth] = count
        bit = 0
        while True:
            if bit:
                # undo block `bit` on edge uv: an end with no uncolored edge
                # left froze when the block was added
                r = rem[u]
                key = pal[u]
                if not r:
                    palettes = frozen[u]
                    seen = palettes[key]
                    if seen > 1:
                        palettes[key] = seen - 1
                    else:
                        del palettes[key]
                        if not palettes:
                            missing += 1
                pal[u] = key ^ bit
                rem[u] = r + 1
                r = rem[v]
                key = pal[v]
                if not r:
                    palettes = frozen[v]
                    seen = palettes[key]
                    if seen > 1:
                        palettes[key] = seen - 1
                    else:
                        del palettes[key]
                        if not palettes:
                            missing += 1
                pal[v] = key ^ bit
                rem[v] = r + 1
            if not free:
                # backtrack: undo the block taken one level up, try its next
                depth -= 1
                if depth < 0:
                    break
                u, v = ends[depth]
                free = todo[depth]
                bit = 1 << taken[depth]
                distinct = entry_distinct[depth]
                count = entry_count[depth]
                continue
            bit = free & -free
            free ^= bit
            new_distinct = distinct
            key = pal[u] | bit
            pal[u] = key
            r = rem[u] - 1
            rem[u] = r
            if not r:
                palettes = frozen[u]
                seen = palettes.get(key)
                if seen:
                    palettes[key] = seen + 1
                else:
                    new_distinct += 1
                    if not palettes:
                        missing -= 1
                    palettes[key] = 1
            key = pal[v] | bit
            pal[v] = key
            r = rem[v] - 1
            rem[v] = r
            if not r:
                palettes = frozen[v]
                seen = palettes.get(key)
                if seen:
                    palettes[key] = seen + 1
                else:
                    new_distinct += 1
                    if not palettes:
                        missing -= 1
                    palettes[key] = 1
            slack = best_value - new_distinct - missing
            if slack < 1:
                continue
            # an end is orphaned when it is unsaturated, its degree has a
            # frozen palette, and none of those extends its own: it needs a
            # palette not counted yet.  One orphan refuses at slack 1, two
            # of different degrees (two new sizes) at slack 2
            if slack == 1 or slack == 2 and degs[u] != degs[v]:
                need = slack
                for w in (u, v):
                    palettes = frozen[w]
                    orphan = False
                    if rem[w] and palettes:
                        pw = pal[w]
                        key = wit[w]
                        if key & pw != pw or key not in palettes:
                            for key in palettes:
                                if key & pw == pw:
                                    wit[w] = key
                                    break
                            else:
                                orphan = True
                    if orphan:
                        need -= 1
                        if not need:
                            break
                    elif slack == 2:
                        break  # the first end is no orphan: two cannot be
                if not need:
                    continue
            # take the block
            b = bit.bit_length() - 1
            taken[depth] = b
            if depth + 1 == m:
                # every vertex is saturated, and the bound let only a
                # strictly better partition through
                best_value, best_assign = new_distinct, taken.copy()
                if best_value <= global_lb:
                    depth = -1
                    break
                continue
            if b == count:
                count += 1
            todo[depth] = free
            distinct = new_distinct
            depth += 1
            break

    return PaletteIndexResult(best_value, _witness(order, best_assign),
                              not out_of_budget, nodes)


def _witness(order: list[int], assign: list[int]) -> list[int]:
    colors = [0] * len(order)
    for eid, block in zip(order, assign):
        colors[eid] = block + 1
    return colors


def _saturation_order(g: Graph) -> list[int]:
    """Edge ids by vertex, fail-first: repeatedly the unfinished vertex with
    the fewest edges not yet listed, lowest id on ties, lists those edges in
    id order, so that palettes freeze as early as possible.

    A heap of (edges left, vertex) with stale entries skipped on pop.
    """
    edges = g.edges
    incidence = g.incidence
    left = list(g.degrees)
    listed = [False] * g.edge_count
    heap = [(d, v) for v, d in enumerate(left)]
    heapq.heapify(heap)
    order = []
    while heap:
        d, v = heapq.heappop(heap)
        if d != left[v] or not d:
            continue  # stale, or every edge at v already listed
        for eid in incidence[v]:
            if not listed[eid]:
                listed[eid] = True
                order.append(eid)
                x, y = edges[eid]
                w = x ^ y ^ v  # the other end
                left[w] -= 1
                heapq.heappush(heap, (left[w], w))
        left[v] = 0
    return order


def _twin_constraints(g: Graph, order: list[int]) -> list[tuple[int, ...]]:
    """For each position q of the order, the earlier positions p whose block
    the edge at q must exceed.

    Twins are vertices u < u' with the same neighbour set and no parallel
    edge at either; swapping them is an automorphism.  With p the first
    position of an edge at u or u', say xw, and q that of its twin x'w, the
    lex-leader constraint for the swap is block[p] < block[q]: the edges
    before p are fixed by the swap, and xw, x'w share w.  That needs
    nothing of the edge order but that it is fixed before the search: p is
    the first position at u or u', so no edge before it touches either.
    """
    edges = g.edges
    incidence = g.incidence
    # neighbour bitmask -> vertices; a parallel edge leaves fewer bits than
    # edges, which excludes its ends
    by_neighbours: dict[int, list[int]] = {}
    for v, ids in enumerate(incidence):
        mask = 0
        for eid in ids:
            x, y = edges[eid]
            mask |= 1 << (x ^ y ^ v)
        if mask.bit_count() == len(ids):
            by_neighbours.setdefault(mask, []).append(v)
    above: list[tuple[int, ...]] = [()] * g.edge_count
    groups = [twins for twins in by_neighbours.values() if len(twins) > 1]
    if not groups:
        return above
    pos = {eid: p for p, eid in enumerate(order)}
    for twins in groups:
        edge_to = {v: {edges[eid][0] ^ edges[eid][1] ^ v: eid for eid in incidence[v]}
                   for v in twins}
        first = {v: min((pos[eid], w) for w, eid in edge_to[v].items()) for v in twins}
        for i, u in enumerate(twins):
            for u2 in twins[i + 1:]:
                (p, w), other = min((first[u], u2), (first[u2], u))
                q = pos[edge_to[other][w]]
                above[q] += (p,)
    return above


def _greedy_blocks(ends, n: int) -> tuple[list[int], list[int]]:
    """First-fit block assignment in the given edge order, which always
    succeeds, and the block bitmask of each of the n vertices.

    The first block that misses both ends is the lowest bit clear in both
    palettes: when every open block meets an end, that is the next block.
    """
    pal = [0] * n
    assign = []
    for u, v in ends:
        used = pal[u] | pal[v]
        bit = ~used & (used + 1)
        pal[u] |= bit
        pal[v] |= bit
        assign.append(bit.bit_length() - 1)
    return assign, pal


def palette_index_naive(g: Graph) -> int:
    """Reference enumeration of every matching partition, no pruning at all.

    Exponential; meant for cross-checking the branch-and-bound solver on
    graphs with very few edges.  Edge idx tries each open block that misses
    both its ends, then a new block, as a depth-first walk on an explicit
    stack: assign[idx] is the block it holds, -1 before its first try.
    """
    _check_solver_input(g)
    m = g.edge_count
    if m == 0:
        return 0
    best = m + 1
    blocks: list[int] = []  # vertex bitmask of each open block
    opened_by: list[int] = []  # the edge that opened each block
    assign = [-1] * m
    idx = 0
    while idx >= 0:
        if idx == m:
            palettes: dict[int, int] = {}
            for (u, v), b in zip(g.edges, assign):
                palettes[u] = palettes.get(u, 0) | 1 << b
                palettes[v] = palettes.get(v, 0) | 1 << b
            best = min(best, len(set(palettes.values())))
            idx -= 1
            continue
        u, v = g.edges[idx]
        ends = 1 << u | 1 << v
        b = assign[idx]
        if b >= 0:
            if opened_by[b] == idx:  # a new block is the last try
                blocks.pop()
                opened_by.pop()
                assign[idx] = -1
                idx -= 1
                continue
            blocks[b] ^= ends
        b += 1
        while b < len(blocks) and blocks[b] & ends:
            b += 1
        if b == len(blocks):
            blocks.append(ends)
            opened_by.append(idx)
        else:
            blocks[b] |= ends
        assign[idx] = b
        idx += 1
    return best
