from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette_index import cli, decompose
from palette_index.cli import cli_main
from palette_index.constructions import color_even_bipartite
from palette_index.fileformat import (FormatError, parse_coloring, parse_graph,
                                      serialize_graph)
from palette_index.graph import (GraphError, build_graph, gen_complete_bipartite,
                                 gen_grid, gen_random_biregular,
                                 gen_random_even_bipartite)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_gen_grid_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "grid", "--m", "3", "--n", "3")
    assert code == 0
    assert parse_graph(out).edge_count == 12


def test_gen_biregular_deterministic(capsys):
    args = ("gen", "--family", "biregular", "--a", "2", "--b", "4",
            "--scale", "2", "--seed", "5")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_color_grid_strategy(capsys, tmp_path):
    path = write_graph(tmp_path, gen_grid(4, 5))
    code, out, _ = run_cli(capsys, "color", "--strategy", "grid", path)
    assert code == 0
    assert "palettes=3 bound=3 theorem=grid" in out


def test_even_pairs_strategy_writes_the_pairs_coloring(capsys, tmp_path):
    g = gen_random_even_bipartite(6, 3)
    code, out, _ = run_cli(capsys, "color", "--strategy", "even-pairs",
                           write_graph(tmp_path, g))
    assert code == 0
    assert parse_coloring(out, g.edge_count)[0] == color_even_bipartite(g).coloring


@pytest.mark.parametrize("strategy", ["even", "kab", "biregular"])
def test_retired_strategy_names_exit_2(capsys, tmp_path, strategy):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 4))
    code, out, _ = run_cli(capsys, "color", "--strategy", strategy, gpath)
    assert (code, out) == (2, "")


def test_color_output_file_reverifies(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 4))
    cpath = str(tmp_path / "coloring.txt")
    code, out, _ = run_cli(capsys, "color", "--strategy", "auto", gpath,
                           "--output", cpath)
    assert code == 0 and "palettes=3" in out
    code, out, _ = run_cli(capsys, "verify", gpath, cpath)
    assert code == 0 and out == ""


def test_color_stdout_stream_reparses(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 4))
    code, out, _ = run_cli(capsys, "color", gpath)
    assert code == 0
    coloring, _ = parse_coloring(out, 8)  # summary line is tolerated
    assert len(coloring) == 8


def test_color_two_odd_on_many_components_keeps_the_recursion_limit(capsys, tmp_path):
    # 2,400 edges in 400 components, colored by one repair of one table
    k23 = gen_complete_bipartite(2, 3)
    g = build_graph(2000, [(5 * i + u, 5 * i + v) for i in range(400)
                           for u, v in k23.edges])
    limit = sys.getrecursionlimit()
    code, out, err = run_cli(capsys, "color", write_graph(tmp_path, g))
    assert sys.getrecursionlimit() == limit
    assert code == 0 and "Traceback" not in err
    assert "palettes=4 bound=4 theorem=two-odd-cyclic" in out


def test_exact_k23(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 3))
    code, out, _ = run_cli(capsys, "exact", gpath)
    assert code == 0
    assert "palette_index=4 proved=true" in out


def test_exact_budget_exit_code(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_grid(3, 3))
    code, out, _ = run_cli(capsys, "exact", gpath, "--max-nodes", "3")
    assert code == 3
    assert "proved=false" in out


def test_exact_budget_on_1280_edges_exits_3_without_traceback(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_random_biregular(4, 8, 40, 1))
    code, out, err = run_cli(capsys, "exact", gpath, "--max-nodes", "5000")
    assert code == 3
    assert "proved=false" in out
    assert "Traceback" not in err


def test_verify_tampered_coloring(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 3))
    code, out, _ = run_cli(capsys, "exact", gpath, "--output",
                           str(tmp_path / "w.txt"))
    assert code == 0
    text = (tmp_path / "w.txt").read_text()
    lines = text.splitlines()
    lines[1] = lines[1].rsplit(" ", 1)[0] + " " + lines[2].rsplit(" ", 1)[1]
    bad = str(tmp_path / "bad.txt")
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "verify", gpath, bad)
    assert code == 1
    assert "violation vertex=" in out


def test_verify_rejects_a_color_for_a_missing_edge(capsys, tmp_path):
    gpath = tmp_path / "path.txt"
    gpath.write_text("p 3 2\ne 1 2\ne 2 3\n")
    cpath = tmp_path / "stray.txt"
    cpath.write_text("s 2 3\nc 1 1\nc 2 2\nc 7 1\n")
    code, out, err = run_cli(capsys, "verify", str(gpath), str(cpath))
    assert code == 2
    assert out == ""
    assert err == "error: edge 7 is colored, but the graph has 2 edges\n"


def test_verify_names_an_uncolored_edge_as_the_file_does(capsys, tmp_path):
    gpath = tmp_path / "path.txt"
    gpath.write_text("p 3 2\ne 1 2\ne 2 3\n")
    cpath = tmp_path / "partial.txt"
    cpath.write_text("s 1 2\nc 1 1\n")
    code, out, err = run_cli(capsys, "verify", str(gpath), str(cpath))
    assert code == 2
    assert out == ""
    assert err == "error: partial coloring: edge 2 has no color\n"


def test_color_falls_through_when_the_interval_search_runs_out(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(decompose, "_REPAIR_STEPS_PER_EDGE", 0)
    gpath = write_graph(tmp_path, gen_random_biregular(2, 5, 2, 1))
    code, out, err = run_cli(capsys, "color", gpath, "--output",
                             str(tmp_path / "c.txt"))
    assert (code, out, err) == (0, "palettes=5 bound=9 theorem=doubling\n", "")


def test_bounds_drops_the_interval_row_when_its_search_runs_out(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(decompose, "_REPAIR_STEPS_PER_EDGE", 0)
    gpath = write_graph(tmp_path, gen_random_biregular(2, 5, 2, 1))
    code, out, err = run_cli(capsys, "bounds", gpath)
    assert code == 0
    assert err == ""
    assert "two-odd-family" not in out
    assert out.split("upper ", 1)[1].startswith("9 doubling\n")


# 50 edges on which a block-interval search of 5*10**4 nodes finds no
# coloring; the cyclic-interval repair finds one in 8 steps
TWO_ODD_REPRO = ("gen", "--family", "biregular", "--a", "2", "--b", "5",
                 "--scale", "5", "--seed", "1")


def test_color_on_a_graph_the_interval_row_repairs(capsys, tmp_path):
    code, text, _ = run_cli(capsys, *TWO_ODD_REPRO)
    assert code == 0
    gpath = tmp_path / "g.txt"
    gpath.write_text(text)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "color", str(gpath), "--output",
                             str(tmp_path / "c.txt"))
    assert time.perf_counter() - start < 10
    assert (code, out, err) == (0, "palettes=6 bound=6 theorem=two-odd-cyclic\n", "")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", str(gpath))
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    assert out.split("upper ", 1)[1].startswith("6 two-odd-family\n")


def test_exact_refuses_a_nan_wall_budget(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 3))
    code, out, err = run_cli(capsys, "exact", gpath, "--max-seconds", "nan")
    assert code == 2
    assert out == ""
    assert err == "error: max_seconds must be positive, got nan\n"


def test_grid_strategy_names_the_class_it_rejects(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(3, 4))
    code, out, err = run_cli(capsys, "color", "--strategy", "grid", gpath)
    assert code == 2
    assert out == ""
    assert err == ("error: graph is not m-by-n grid in the generator's "
                   "labeling\n")


def test_bounds_lines(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(2, 3))
    code, out, _ = run_cli(capsys, "bounds", gpath)
    assert code == 0
    lines = out.splitlines()
    assert all(line.split()[0] in ("lower", "upper") for line in lines)
    assert "lower 3 biregular-ratio" in out
    assert any(line.startswith("upper 4 ") for line in lines)


def test_bounds_reads_a_graph_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    text = serialize_graph(gen_complete_bipartite(2, 3))
    plain, bom, bad = (tmp_path / name for name in ("plain.txt", "bom.txt", "bad.txt"))
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    bad.write_text("q 2 1\ne 1 2\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli(capsys, "bounds", str(plain))
    assert expected[0] == 0 and "lower 3 biregular-ratio" in expected[1]
    assert run_cli(capsys, "bounds", str(bom)) == expected
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(bom.read_bytes()), encoding="utf-8")
    try:
        assert run_cli(capsys, "bounds", "-") == expected
    finally:
        sys.stdin = stdin
    assert run_cli(capsys, "bounds", str(bad)) == (
        2, "", "error: line 1: expected header 'p <vertices> <edges>'\n")


def test_bounds_on_the_empty_graph_names_both_bounds(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("p 0 0\n")
    assert run_cli(capsys, "bounds", str(path)) == (0, "lower 0 empty\nupper 0 empty\n", "")


def test_classify_star(capsys, tmp_path):
    gpath = write_graph(tmp_path, gen_complete_bipartite(1, 4))
    code, out, _ = run_cli(capsys, "classify", gpath)
    assert code == 0 and out.strip() == "star"
    gpath = write_graph(tmp_path, gen_grid(2, 2), "c4.txt")
    code, out, _ = run_cli(capsys, "classify", gpath)
    assert code == 0 and out.strip() == "none"


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, "gen", "--no-such-flag")
    assert code == 2


def run_on_fresh_streams(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch):
    g = write_graph(tmp_path, gen_random_biregular(2, 5, 5, 1), "g.txt")
    k46 = write_graph(tmp_path, gen_complete_bipartite(4, 6), "k46.txt")
    calls = [("color", "--no-such-flag"), ("color", "--help"),
             ("color", g, "--strategy", "konig-biregular"), ("color", g),
             ("exact", k46, "--max-nodes", "5"), ("exact", k46)]
    first = []
    for argv in calls:  # each call as the first of its process
        cli._build_parser.cache_clear()
        first.append(run_on_fresh_streams(*argv))
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    results = [run_on_fresh_streams(*argv) for argv in calls]
    assert results == first
    assert built.count("palette-index") == 1  # subcommand parsers add "palette-index <cmd>"
    unknown, help_, konig, auto, budget, proof = results
    assert unknown[:2] == (2, "") and unknown[2].startswith("usage: palette-index ")
    assert unknown[2].endswith("error: unrecognized arguments: --no-such-flag\n")
    assert help_[0] == 0 and help_[1].startswith("usage: palette-index color")
    assert help_[2] == "" and "--strategy" in help_[1]
    assert konig[0] == 0 and konig[1].endswith(" theorem=konig\n")
    assert auto[0] == 0 and auto[1].endswith(" theorem=two-odd-cyclic\n")
    assert budget[0] == 3 and budget[1].endswith("palette_index=4 proved=false\n")
    assert proof[0] == 0 and proof[1].endswith("palette_index=4 proved=true\n")


def test_malformed_input_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p 2 1\ne 1 9\n")
    code, out, err = run_cli(capsys, "exact", str(path))
    assert code == 2
    assert "error:" in err


def test_exact_isolated_vertices_noted(capsys, tmp_path):
    path = tmp_path / "iso.txt"
    path.write_text("p 4 1\ne 1 2\n")
    code, out, err = run_cli(capsys, "exact", str(path))
    assert code == 0
    assert "palette_index=2 proved=true" in out
    assert "empty palette" in err


@pytest.mark.parametrize("command", ["bounds", "color"])
def test_huge_vertex_count_is_rejected_without_per_vertex_lists(capsys, tmp_path, command):
    path = tmp_path / "huge.txt"
    path.write_text("p 3000000 0\n")
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, command, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert err == "error: isolated vertices are not allowed here\n"
    assert peak < 2 ** 22  # one list of 3,000,000 entries is 24 MB


def test_exact_on_a_huge_vertex_count_builds_no_per_vertex_list(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("p 3000000 0\n")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "exact", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == "s 0 1\npalette_index=1 proved=true\n"
    assert "3000000 isolated vertices" in err
    assert peak < 2 ** 22


@pytest.mark.parametrize("argv,expected", [(["classify"], "none\n"),
                                           (["verify", "empty.txt"], "")])
def test_huge_vertex_count_is_answered_without_per_vertex_lists(capsys, tmp_path,
                                                                argv, expected):
    path = tmp_path / "huge.txt"
    path.write_text("p 3000000 0\n")
    (tmp_path / "empty.txt").write_text("s 0 0\n")
    files = [str(tmp_path / name) for name in argv[1:]]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv[0], str(path), *files)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, expected, "")
    assert peak < 2 ** 22


def test_suite_filter_runs_only_matching(capsys):
    code, out, _ = run_cli(capsys, "suite", "--filter", "kab-exact")
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("case")]
    assert lines and all("kab-exact" in line for line in lines)


def test_suite_filter_matching_nothing_exits_2(capsys):
    # a mistyped pattern must not pass as an empty suite
    code, out, err = run_cli(capsys, "suite", "--filter", "no-such-case")
    assert (code, out) == (2, "")
    assert err == "error: no suite case id contains 'no-such-case'\n"


def test_suite_takes_no_thread_count(capsys):
    code, out, _ = run_cli(capsys, "suite", "--threads", "2")
    assert (code, out) == (2, "")


# Text near the two file formats: keywords, small integers (so a header
# never asks for a large graph) and short junk, a few tokens per line; and
# well-formed graph files on at most 6 vertices, which may have isolated
# vertices and parallel edges.
_TOKENS = st.one_of(st.sampled_from(["p", "e", "s", "c", "#", "x=1"]),
                    st.integers(-2, 9).map(str), st.text(max_size=3))
_FORMAT_LIKE = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join),
                        max_size=8).map("\n".join)
_GRAPH_LIKE = st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(
    lambda e: e[0] != e[1]), max_size=10).map(lambda edges: "\n".join(
    [f"p {max((max(e) for e in edges), default=0)} {len(edges)}"]
    + [f"e {u} {v}" for u, v in edges]))
# Arbitrary text without three digits in a row, for the same reason.
_JUNK = st.text(max_size=40).filter(lambda t: not re.search(r"[\d_]{3}", t))


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.text(), _FORMAT_LIKE), st.integers(0, 9))
def test_parsers_raise_only_format_errors(text, edge_count):
    for parse in (parse_graph, lambda t: parse_coloring(t, edge_count)):
        try:
            parse(text)
        except (FormatError, GraphError):
            pass


@pytest.mark.parametrize("argv", [("bounds", "-"), ("color", "-"), ("classify", "-"),
                                  ("exact", "-", "--max-nodes", "200")],
                         ids=lambda argv: argv[0])
@settings(deadline=None, max_examples=200)
@given(st.one_of(_JUNK, _FORMAT_LIKE, _GRAPH_LIKE))
def test_bounds_exit_code_contract_on_any_text(argv, text):
    # every command that reads a graph, from stdin ("-"): it skips a file
    # write per example
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        code, _, err = run_on_fresh_streams(*argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
