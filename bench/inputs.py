"""Seeded benchmark inputs and the fixed op list of each workload.

The generators here are the benchmark's own (stdlib only), so the inputs
for a seed stay the same when the package's generators change.  Labelings
follow the package's conventions where an op depends on them: grids use
the grid generator's vertex ids (the CLI recognizes grids by labeling), and
an (a,b)-biregular graph at a scale puts its scale*b degree-a vertices
first.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("construct", "catalog", "exact", "suite")


@dataclass(frozen=True)
class Op:
    """One CLI call in a pass.

    ``expect`` is what the checker pins for it: for ``color`` the route's
    (bound, theorem); for ``bounds`` the (largest lower, smallest upper);
    for ``exact`` the proved value, or None when a node budget stops the
    search and only the admissible range ``(low, high)`` in ``budget_range``
    is known.
    """

    op_id: str
    command: str
    graph: str | None = None
    args: tuple[str, ...] = ()
    expect: object = None
    budget_range: tuple[int, int | None] | None = None


# ----------------------------------------------------------------------
# graph generators: each returns (vertex_count, edge list, 0-indexed)
# ----------------------------------------------------------------------

def grid(m: int, n: int):
    """The m-by-n grid with the package's labeling and edge order."""
    edges = [(i * n + j, i * n + j + 1) for i in range(m) for j in range(n - 1)]
    edges += [(i * n + j, (i + 1) * n + j) for i in range(m - 1) for j in range(n)]
    return m * n, edges


def complete_bipartite(a: int, b: int):
    """K_{a,b}: the a-side is 0..a-1, the b-side a..a+b-1."""
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, sorted(tuple(sorted(e)) for e in outer + spokes + inner)


def biregular(a: int, b: int, scale: int, rng: random.Random):
    """A simple (a,b)-biregular bipartite graph: scale*b vertices of degree
    a (ids first), scale*a of degree b.  Configuration pairing, then
    duplicate edges are swapped away; a swap never creates a duplicate."""
    xn, yn = scale * b, scale * a
    if b == xn:
        return xn + yn, [(x, xn + y) for x in range(xn) for y in range(yn)]
    x_stubs = [x for x in range(xn) for _ in range(a)]
    y_stubs = [xn + y for y in range(yn) for _ in range(b)]
    rng.shuffle(y_stubs)
    pairs = list(zip(x_stubs, y_stubs))
    counts = Counter(pairs)
    seen: set[tuple[int, int]] = set()
    extra = []
    for i, p in enumerate(pairs):
        if p in seen:
            extra.append(i)
        seen.add(p)
    for i in extra:
        for _ in range(10_000):
            if counts[pairs[i]] == 1:
                break
            j = rng.randrange(len(pairs))
            (xi, yi), (xj, yj) = pairs[i], pairs[j]
            if xi == xj or yi == yj or counts[(xi, yj)] or counts[(xj, yi)]:
                continue
            counts[pairs[i]] -= 1
            counts[pairs[j]] -= 1
            pairs[i], pairs[j] = (xi, yj), (xj, yi)
            counts[pairs[i]] += 1
            counts[pairs[j]] += 1
        else:
            raise RuntimeError(f"could not repair a ({a},{b}) pairing")
    return xn + yn, sorted(pairs)


def relabeled_union(copies: int, part, rng: random.Random):
    """Disjoint union of `copies` copies of `part`, with vertex ids permuted
    and edges shuffled by the seed."""
    n, edges = part
    perm = list(range(copies * n))
    rng.shuffle(perm)
    out = [(perm[k * n + u], perm[k * n + v]) for k in range(copies) for u, v in edges]
    rng.shuffle(out)
    return copies * n, out


def graph_text(graph) -> str:
    n, edges = graph
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def make_inputs(workload: str, seed: int) -> dict[str, str]:
    """GraphFile text of every input of the workload, keyed by file name."""
    if workload == "construct":
        graphs = {
            "b4-8x320": biregular(4, 8, 320, _rng(seed, "b4-8x320")),
            "b6-6x300": biregular(6, 6, 300, _rng(seed, "b6-6x300")),
            "b3-9x300": biregular(3, 9, 300, _rng(seed, "b3-9x300")),
            "b5-10x100": biregular(5, 10, 100, _rng(seed, "b5-10x100")),
            "b6-12x70": biregular(6, 12, 70, _rng(seed, "b6-12x70")),
            "b3-5x200": biregular(3, 5, 200, _rng(seed, "b3-5x200")),
            "k2-4x800": relabeled_union(800, complete_bipartite(2, 4),
                                        _rng(seed, "k2-4x800")),
            "grid150": grid(150, 150),
        }
    elif workload == "catalog":
        graphs = {
            "grid150": grid(150, 150),
            "grid151": grid(151, 151),
            "b3-5x200": biregular(3, 5, 200, _rng(seed, "b3-5x200")),
            "b5-5x300": biregular(5, 5, 300, _rng(seed, "b5-5x300")),
        }
    elif workload == "exact":
        graphs = {
            "grid3x5": grid(3, 5),
            "k3-4": complete_bipartite(3, 4),
            "k3-5": complete_bipartite(3, 5),
            "petersen": petersen(),
            "b3-5x1": biregular(3, 5, 1, _rng(seed, "b3-5x1")),
            "k4-6": complete_bipartite(4, 6),
            "b4-8x40": biregular(4, 8, 40, _rng(seed, "b4-8x40")),
        }
    elif workload == "suite":
        graphs = {}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {f"{name}.txt": graph_text(g) for name, g in graphs.items()}


# (bound, theorem) of the route the auto strategy takes for each profile
_COLOR_ROUTES = {
    "b4-8x320": (5, "deg4-multiple"),
    "b6-6x300": (1, "konig"),
    "b3-9x300": (10, "deg3-multiple"),
    "b5-10x100": (9, "deg5-multiple"),
    "b6-12x70": (9, "half-degree-family"),
    "b3-5x200": (7, "deg35-matching"),
    "k2-4x800": (3, "even-bipartite-pairs"),
    "grid150": (3, "grid"),
}

# (largest lower, smallest upper) printed by `bounds`
_CATALOG = {
    "grid150": (3, 3),
    "grid151": (5, 5),
    "b3-5x200": (5, 7),
    "b5-5x300": (1, 1),
}

# proved palette index; grid 3x5 is the paper's value
_EXACT = {
    "grid3x5": 5,
    "k3-4": 5,
    "k3-5": 5,
    "petersen": 3,
    "b3-5x1": 5,
}


def ops(workload: str) -> list[Op]:
    """The ops of one pass, in the order they run."""
    if workload == "construct":
        return [Op(f"color.{name}", "color", f"{name}.txt", expect=route)
                for name, route in _COLOR_ROUTES.items()]
    if workload == "catalog":
        return [Op(f"bounds.{name}", "bounds", f"{name}.txt", expect=pair)
                for name, pair in _CATALOG.items()]
    if workload == "exact":
        out = [Op(f"exact.{name}", "exact", f"{name}.txt", expect=value)
               for name, value in _EXACT.items()]
        # K_{4,6}: 4 found (complete-bipartite pattern), 3 is the lower bound
        out.append(Op("exact.k4-6", "exact", "k4-6.txt",
                      ("--max-nodes", "300000"), budget_range=(3, 4)))
        # (4,8)-biregular: at least 1 + 8/4 palettes; no upper pin under a budget
        out.append(Op("exact.b4-8x40", "exact", "b4-8x40.txt",
                      ("--max-nodes", "5000"), budget_range=(3, None)))
        return out
    if workload == "suite":
        return [Op("suite", "suite")]
    raise ValueError(f"unknown workload {workload!r}")
