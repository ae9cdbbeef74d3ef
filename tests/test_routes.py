"""The route table: `color_auto` and the bound catalog read the same routes,
so the catalog's best constructed bound is the route the dispatcher takes."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import palette_index
from palette_index import constructions, graph
from palette_index.analysis import upper_bound_catalog
from palette_index.cli import cli_main
from palette_index.coloring import palette_summary
from palette_index.constructions import (ROUTES, RouteFacts, build_route,
                                         color_3_3r, color_3_5, color_4_4r,
                                         color_5_5r, color_auto, color_deg5,
                                         color_grid_on, color_r_2r,
                                         route_bounds)
from palette_index.fileformat import serialize_graph
from palette_index.graph import (GraphError, build_graph,
                                 gen_complete_bipartite, gen_grid,
                                 gen_random_biregular,
                                 gen_random_even_bipartite, without_isolated)
from palette_index.suite import BIREGULAR_BOUNDS, CONJECTURE_PROFILES

from conftest import bipartite_graphs

SUITE_PROFILES = sorted(set(BIREGULAR_BOUNDS) | set(CONJECTURE_PROFILES))


def assert_catalog_agrees_with_dispatcher(g):
    report = upper_bound_catalog(g)
    uppers = [e for e in report.entries if e.direction == "upper"]
    best = min(e.value for e in uppers)
    assert report.upper[0] == best
    if not any(e.constructed and e.value == best for e in uppers):
        return
    route, bound = route_bounds(RouteFacts(g))[0]
    assert (bound, route.tag) == report.upper
    result = color_auto(g)
    assert result.palettes <= result.claimed_palette_bound <= bound


def suite_member(a, b):
    return gen_random_biregular(a, b, 1 if a * b >= 96 else 2, 5)


@pytest.mark.parametrize("a,b", SUITE_PROFILES)
def test_catalog_agrees_with_dispatcher_on_suite_profiles(a, b):
    assert_catalog_agrees_with_dispatcher(suite_member(a, b))


def test_the_catalog_builds_nothing(monkeypatch):
    graphs = [suite_member(a, b) for a, b in SUITE_PROFILES]
    graphs += [gen_grid(5, 6), gen_complete_bipartite(3, 5)]
    reports = [upper_bound_catalog(g) for g in graphs]

    def refuse(*args):
        raise AssertionError("the catalog built a coloring")

    monkeypatch.setattr(constructions, "_finish", refuse)
    for g, report in zip(graphs, reports):
        again = upper_bound_catalog(g)
        assert ((again.entries, again.lower, again.upper)
                == (report.entries, report.lower, report.upper))


@st.composite
def routed_graphs(draw):
    kind = draw(st.sampled_from(("biregular", "even", "bipartite")))
    if kind == "biregular":
        a = draw(st.integers(1, 6))
        b = draw(st.integers(a, 8))
        try:
            return gen_random_biregular(a, b, draw(st.integers(1, 2)),
                                        draw(st.integers(0, 10 ** 6)))
        except GraphError:
            assume(False)
    if kind == "even":
        return gen_random_even_bipartite(draw(st.sampled_from((2, 4, 6, 8))),
                                         draw(st.integers(0, 10 ** 6)))
    return without_isolated(draw(bipartite_graphs(max_side=6, max_m=20)))[0]


@settings(deadline=None, max_examples=40)
@given(routed_graphs())
def test_catalog_agrees_with_dispatcher_on_random_graphs(g):
    assert_catalog_agrees_with_dispatcher(g)


def test_kab_strategy_checks_its_input():
    g = gen_complete_bipartite(2, 6)
    relabeled = build_graph(8, [(7 - u, 7 - v) for u, v in g.edges])
    assert build_route("complete-bipartite", relabeled).palettes == 4
    for not_kab in (gen_complete_bipartite(3, 3), gen_random_biregular(2, 4, 2, 1)):
        with pytest.raises(GraphError):
            build_route("complete-bipartite", not_kab)


def relabeled(g):
    top = g.vertex_count - 1
    return build_graph(g.vertex_count, [(top - u, top - v) for u, v in g.edges])


# every row with a named builder, and two rows built through `build_route`
# alone, each with a member on which `color_auto` takes it
ROW_MEMBERS = [
    (color_grid_on, "grid", gen_grid(5, 6)),
    (partial(build_route, "two-odd-family"), "two-odd-family",
     gen_random_biregular(2, 5, 2, 1)),
    (color_3_3r, "deg3-family", gen_random_biregular(3, 9, 2, 1)),
    (color_3_3r, "deg3-family", gen_random_biregular(6, 9, 2, 1)),
    (color_4_4r, "deg4-family", gen_random_biregular(4, 8, 2, 1)),
    (color_5_5r, "deg5-family", gen_random_biregular(5, 10, 2, 1)),
    (color_r_2r, "half-family", gen_random_biregular(6, 12, 2, 1)),
    (color_r_2r, "half-family", gen_random_biregular(7, 14, 2, 1)),
    (color_3_5, "deg35-family", gen_random_biregular(3, 5, 2, 1)),
    (partial(build_route, "complete-bipartite"), "complete-bipartite",
     relabeled(gen_complete_bipartite(3, 7))),
    # degrees 5, 3, 2 and 1 and unequal sides: no perfect matching, and
    # the doubling bound is 27
    (color_deg5, "deg5", build_graph(8, [(0, 3), (0, 4), (0, 5), (0, 6), (0, 7),
                                         (1, 3), (1, 4), (1, 5), (2, 6)])),
]


@pytest.mark.parametrize("builder,tag,g", ROW_MEMBERS, ids=lambda v: (
    "build_route" if isinstance(v, partial) else None))
def test_a_public_builder_is_its_row(builder, tag, g):
    route = route_bounds(RouteFacts(g))[0][0]
    assert route.tag == tag
    auto, direct = color_auto(g), builder(g)
    assert direct.coloring == auto.coloring
    assert ((direct.palettes, direct.claimed_palette_bound, direct.theorem_tag)
            == (auto.palettes, auto.claimed_palette_bound, auto.theorem_tag))
    off_row = gen_complete_bipartite(3, 4) if tag == "grid" else gen_grid(3, 4)
    with pytest.raises(GraphError) as err:
        builder(off_row)
    assert route.note in str(err.value)


# a member of every row; where `color_auto` takes another row (even-deg4,
# even-deg6, deg4, deg4-no-pendant, deg5-perfect-matching) the row is still
# built on request
ROUTE_MEMBERS = {
    "grid": gen_grid(5, 6),
    "star": gen_random_biregular(1, 4, 3, 1),
    "even-family": gen_random_biregular(2, 4, 2, 1),
    "two-odd-family": gen_random_biregular(2, 5, 2, 1),
    "deg3-family": gen_random_biregular(3, 9, 2, 1),
    "deg4-family": gen_random_biregular(4, 8, 2, 1),
    "deg5-family": gen_random_biregular(5, 10, 2, 1),
    "half-family": gen_random_biregular(6, 12, 2, 1),
    "deg35-family": gen_random_biregular(3, 5, 2, 1),
    "complete-bipartite": relabeled(gen_complete_bipartite(3, 7)),
    "konig-regular": gen_random_biregular(3, 3, 2, 1),
    "konig-biregular": gen_random_biregular(5, 7, 2, 1),
    "even-pairs": gen_random_even_bipartite(8, 1),
    "even-deg4": gen_random_even_bipartite(4, 1),
    "even-deg6": gen_random_even_bipartite(6, 1),
    "doubling": gen_random_biregular(3, 7, 2, 1),
    "deg4": gen_random_biregular(1, 4, 3, 1),
    "deg4-no-pendant": gen_random_biregular(3, 4, 2, 1),
    "deg5": ROW_MEMBERS[-1][2],
    "deg5-perfect-matching": gen_random_biregular(5, 5, 1, 1),
}
# an odd cycle is not bipartite, so it is outside every row
OFF_EVERY_ROW = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.tag)
def test_build_route_builds_its_row(route):
    g = ROUTE_MEMBERS[route.tag]
    bound = route.bound(RouteFacts(g))
    result = build_route(route.tag, g)
    # the coloring is proper, and `_finish` held it to its claimed bound,
    # which is at most the row's
    assert palette_summary(g, result.coloring).distinct == result.palettes
    assert result.palettes <= result.claimed_palette_bound <= bound
    if route_bounds(RouteFacts(g))[0][0] is route:
        auto = color_auto(g)
        assert (result.coloring, result.claimed_palette_bound, result.theorem_tag) \
            == (auto.coloring, auto.claimed_palette_bound, auto.theorem_tag)
    with pytest.raises(GraphError) as err:
        build_route(route.tag, OFF_EVERY_ROW)
    assert route.note in str(err.value)


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.tag)
def test_color_strategy_takes_every_route_tag(route, capsys, tmp_path):
    member = tmp_path / "member.txt"
    member.write_text(serialize_graph(ROUTE_MEMBERS[route.tag]))
    result = build_route(route.tag, ROUTE_MEMBERS[route.tag])
    assert cli_main(["color", "--strategy", route.tag, str(member),
                     "--output", str(tmp_path / "c.txt")]) == 0
    assert capsys.readouterr().out == (
        f"palettes={result.palettes} bound={result.claimed_palette_bound} "
        f"theorem={result.theorem_tag}\n")
    off = tmp_path / "off.txt"
    off.write_text(serialize_graph(OFF_EVERY_ROW))
    assert cli_main(["color", "--strategy", route.tag, str(off)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: graph is not {route.note}\n")


def test_build_route_refuses_an_unknown_tag():
    with pytest.raises(ValueError, match="no route is tagged 'kab'"):
        build_route("kab", gen_complete_bipartite(2, 3))


def test_the_readme_route_table_lists_the_routes_in_order():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Routes\n")[1]
    section = section.split("\n## ")[0]
    tags = re.findall(r"^\| \d+ \| `([^`]+)` \|", section, re.MULTILINE)
    assert tags == [route.tag for route in ROUTES]


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("palette_index"):
                continue
            offenders.extend(f"{path.name}: {alias.name}" for alias in node.names
                             if alias.name.startswith("_"))
    assert offenders == []


def test_every_imported_name_is_used():
    # `__init__.py` imports only to export; `__future__` names are flags
    offenders = []
    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:  # `import a.b` binds `a`
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        offenders.extend(f"{path.name}:{line}: {name}"
                         for name, line in imported.items() if name not in used)
    assert offenders == []


def test_every_benchmark_traced_name_resolves():
    # the benchmark's tracer looks every TRACED name up with getattr, so a
    # deleted or renamed function would stop every workload
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{name}" for mod, names in spans.TRACED.items()
               for name in names if not callable(getattr(
                   importlib.import_module(f"palette_index.{mod}"), name, None))]
    assert missing == []


def test_no_module_sets_the_recursion_limit():
    offenders = []
    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            # `sys.setrecursionlimit` is an attribute; `from sys import ...` an alias
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "setrecursionlimit":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_nested_function_calls_itself():
    # a recursive function, module-level or nested, is bounded by Python's
    # recursion limit, not by the search budgets
    offenders = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)

    def calls_itself(fn):
        return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == fn.name for node in ast.walk(fn))

    for path in sorted(Path(palette_index.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, functions) and calls_itself(top):
                offenders.add(f"{path.name}: {top.name}")
        for outer in ast.walk(tree):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, functions):
                    continue
                if calls_itself(inner):
                    offenders.add(f"{path.name}: {outer.name}.{inner.name}")
    assert offenders == set()


def test_auto_computes_the_deg5_matching_once(monkeypatch):
    # balanced sides, maximum degree 5, not regular, with a perfect matching
    g = build_graph(12, [(0, 6), (1, 6), (1, 10), (2, 6), (2, 7), (2, 8),
                         (2, 11), (3, 8), (3, 9), (3, 11), (4, 8), (4, 9),
                         (4, 10), (5, 6), (5, 7), (5, 9), (5, 10), (5, 11)])
    calls = []
    real = constructions.maximum_matching

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "maximum_matching", counted)
    result = color_auto(g)
    assert result.theorem_tag == "deg5-perfect-matching"
    assert len(calls) == 1


def sharp_doubling_union():
    # K_{1,4}, K_{2,4} and K_{3,4} side by side: bipartite, degrees 1..4
    edges = [(u + offset, a + v + offset)
             for a, offset in ((1, 0), (2, 5), (3, 11))
             for u in range(a) for v in range(4)]
    return build_graph(18, edges)


@pytest.mark.parametrize("make,tag,searches", [
    pytest.param(partial(gen_random_biregular, 3, 9, 4, 1), "deg3-multiple", 0,
                 id="3-9-deg3-multiple"),
    pytest.param(partial(gen_random_biregular, 4, 8, 4, 1), "deg4-multiple", 0,
                 id="4-8-deg4-multiple"),
    pytest.param(partial(gen_random_biregular, 5, 10, 4, 1), "deg5-multiple", 0,
                 id="5-10-deg5-multiple"),
    pytest.param(partial(gen_random_biregular, 6, 12, 4, 1), "half-degree-family", 0,
                 id="6-12-half-degree-family"),
    pytest.param(partial(gen_random_biregular, 7, 14, 4, 1), "half-degree-family", 0,
                 id="7-14-half-degree-family"),
    pytest.param(partial(gen_random_biregular, 3, 5, 4, 1), "deg35-matching", 0,
                 id="3-5-deg35-matching"),
    pytest.param(partial(gen_random_even_bipartite, 6, 3), "even-bipartite-pairs", 1,
                 id="even-pairs"),
    pytest.param(sharp_doubling_union, "doubling", 1, id="doubling"),
])
def test_a_family_route_reads_the_profile_once(monkeypatch, make, tag, searches):
    # one profile, one bipartition search unless the profile's degree
    # classes are the sides (a < b), and one verification of the whole
    g = make()
    calls = {"profile": [], "bipartition": [], "summary": []}

    def counted(module, name, key):
        real = getattr(module, name)

        def call(*args):
            calls[key].append(args[0])
            return real(*args)

        monkeypatch.setattr(module, name, call)

    counted(constructions, "biregular_profile", "profile")
    counted(constructions, "palette_summary", "summary")
    # `even_closure` and a regular graph's profile search under graph's own name
    counted(constructions, "bipartition", "bipartition")
    counted(graph, "bipartition", "bipartition")
    assert color_auto(g).theorem_tag == tag
    assert calls["profile"] == [g]
    assert calls["summary"] == [g]
    assert calls["bipartition"] == [g] * searches


@pytest.mark.parametrize("entry", [color_auto, upper_bound_catalog])
def test_a_grid_is_recognized_once(monkeypatch, entry):
    calls = []
    real = constructions.recognize_grid

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(constructions, "recognize_grid", counted)
    entry(gen_grid(5, 6))
    assert len(calls) == 1


@pytest.mark.parametrize("entry", [color_auto, upper_bound_catalog])
def test_the_interval_search_runs_once(monkeypatch, entry):
    # the row's cyclic-interval repair, in its bound and in its build
    calls = []
    real = constructions.cyclic_interval_coloring

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(constructions, "cyclic_interval_coloring", counted)
    g = gen_random_biregular(2, 5, 2, 1)
    entry(g)
    assert len(calls) == 1
