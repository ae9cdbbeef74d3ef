"""Command-line surface: generate graphs, color them, query bounds, run the
exact solver, verify colorings, classify, and run the reproduction suite.

Exit codes: 0 success, 1 failed verification or suite, 2 usage or malformed
input, 3 budget-exhausted search (the partial result is still printed).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import classify_full_palette, upper_bound_catalog
from .coloring import ColoringError, palette_summary, verify_proper
from .constructions import (color_auto, color_biregular_auto,
                            color_complete_bipartite_on, color_deg5,
                            color_even_bipartite, color_grid_on,
                            color_via_doubling)
from .exact import BudgetExhausted, SearchLimits, palette_index_exact
from .fileformat import (FormatError, parse_coloring, parse_graph,
                         serialize_coloring, serialize_graph)
from .graph import (Graph, GraphError, gen_complete_bipartite, gen_grid,
                    gen_random_biregular, without_isolated)
from .suite import run_suite


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    return parse_graph(_read_text(path))


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    if args.family == "grid":
        g = gen_grid(args.m, args.n)
    elif args.family == "kab":
        g = gen_complete_bipartite(args.a, args.b)
    elif args.family == "star":
        g = gen_complete_bipartite(1, args.b)
    else:
        g = gen_random_biregular(args.a, args.b, args.scale, args.seed)
    sys.stdout.write(serialize_graph(g))
    return 0


_STRATEGIES = {"auto": color_auto, "even": color_even_bipartite,
               "doubling": color_via_doubling, "deg5": color_deg5,
               "grid": color_grid_on, "kab": color_complete_bipartite_on,
               "biregular": color_biregular_auto}


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    result = _STRATEGIES[args.strategy](g)
    text = serialize_coloring(result.coloring, result.palettes)
    _emit(text, args.output)
    sys.stdout.write(f"palettes={result.palettes} "
                     f"bound={result.claimed_palette_bound} "
                     f"theorem={result.theorem_tag}\n")
    return 0


def _cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    extra = 0
    if g.has_isolated_vertices():
        # isolated vertices all share the empty palette; solve the rest
        trimmed, _ = without_isolated(g)
        isolated = g.vertex_count - trimmed.vertex_count
        g = trimmed
        extra = 1
        sys.stderr.write(f"note: {isolated} isolated vertices contribute one "
                         "shared empty palette, included in the result\n")
    limits = SearchLimits(max_nodes=args.max_nodes, max_seconds=args.max_seconds,
                          max_colors=args.max_colors)
    result = palette_index_exact(g, limits)
    summary = palette_summary(g, result.witness)
    _emit(serialize_coloring(result.witness, summary.distinct + extra), args.output)
    sys.stdout.write(f"palette_index={result.value + extra} "
                     f"proved={str(result.proved).lower()}\n")
    return 0 if result.proved else 3


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    report = upper_bound_catalog(g)
    lowers = sorted((e for e in report.entries if e.direction == "lower"),
                    key=lambda e: (-e.value, e.tag))
    uppers = sorted((e for e in report.entries if e.direction == "upper"),
                    key=lambda e: (e.value, e.tag))
    for entry in lowers:
        sys.stdout.write(f"lower {entry.value} {entry.tag}\n")
    for entry in uppers:
        sys.stdout.write(f"upper {entry.value} {entry.tag}\n")
    return 0


def _cmd_verify(args) -> int:
    # isolated vertices have no edges to clash; edge ids survive the trim
    g, host = without_isolated(_load_graph(args.graph))
    coloring, _header = parse_coloring(_read_text(args.coloring))
    # name a missing or stray edge 1-based, as the ColoringFile does; the
    # parser already refuses non-positive colors, so nothing else is left
    # for verify_proper to raise on
    colored = coloring.color_of
    missing = next((eid for eid in range(g.edge_count) if eid not in colored), None)
    if missing is not None:
        raise ColoringError(f"partial coloring: edge {missing + 1} has no color")
    if len(colored) > g.edge_count:
        stray = min(eid for eid in colored if eid >= g.edge_count)
        raise ColoringError(
            f"edge {stray + 1} is colored, but the graph has {g.edge_count} edges")
    violations = verify_proper(g, coloring)
    for v in violations:
        sys.stdout.write(f"violation vertex={host[v.vertex] + 1} "
                         f"edges={v.edge_a + 1},{v.edge_b + 1}\n")
    return 0 if not violations else 1


def _cmd_classify(args) -> int:
    g = _load_graph(args.graph)
    full, tag = classify_full_palette(g)
    sys.stdout.write(f"{tag if full else 'none'}\n")
    return 0


def _cmd_suite(args) -> int:
    report = run_suite(args.filter, include_slow=args.slow, threads=args.threads)
    sys.stdout.write(report.render())
    slowest = sorted(report.runtimes.items(), key=lambda kv: -kv[1])[:5]
    for case_id, seconds in slowest:
        sys.stderr.write(f"# {case_id}: {seconds:.2f}s\n")
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palette-index",
        description="Edge colorings with few distinct vertex palettes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("--family", required=True,
                   choices=("grid", "kab", "biregular", "star"))
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="construct a bounded-palette coloring")
    p.add_argument("graph", nargs="?", default="-",
                   help="GraphFile path, or - for stdin")
    p.add_argument("--strategy", choices=_STRATEGIES, default="auto")
    p.add_argument("--output", help="write the ColoringFile here instead of stdout")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("exact", help="exact minimum palette count")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--output", help="write the witness ColoringFile here")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("bounds", help="catalog of palette bounds")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="check a coloring for properness")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="full-palette family membership")
    p.add_argument("graph", nargs="?", default="-")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("suite", help="run the reproduction suite")
    p.add_argument("--filter", default=None,
                   help="run only cases whose id contains this substring")
    p.add_argument("--slow", action="store_true",
                   help="include the exhaustive 6-vertex equivalence case")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count (default: PALETTE_SUITE_THREADS or 1)")
    p.set_defaults(func=_cmd_suite)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, GraphError, ColoringError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BudgetExhausted as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
