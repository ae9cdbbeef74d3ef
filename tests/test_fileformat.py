from __future__ import annotations

import pytest

from palette_index.fileformat import (FormatError, parse_coloring, parse_graph,
                                      serialize_coloring, serialize_graph)
from palette_index.graph import build_graph, gen_grid


def test_parse_graph_k3():
    g = parse_graph("p 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_parse_graph_comments_and_blanks():
    g = parse_graph("# a triangle\n\np 3 3\ne 1 2\n# middle\ne 2 3\ne 1 3\n")
    assert g.edge_count == 3


def test_graph_roundtrip_grid():
    g = gen_grid(3, 3)
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text
    assert parse_graph(text) == g  # parse after serialize is the identity


def test_parse_graph_range_error_carries_line():
    with pytest.raises(FormatError, match="line 2"):
        parse_graph("p 2 1\ne 1 3\n")


def test_parse_graph_header_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_graph("q 2 1\ne 1 2\n")
    with pytest.raises(FormatError, match="missing header"):
        parse_graph("# nothing\n")


def test_parse_graph_count_mismatch():
    with pytest.raises(FormatError, match="promises 2 edges"):
        parse_graph("p 3 2\ne 1 2\n")


def test_parse_graph_rejects_loop():
    with pytest.raises(FormatError, match="loop"):
        parse_graph("p 2 1\ne 2 2\n")


def test_coloring_roundtrip():
    colors = [1, 2, 1]
    text = serialize_coloring(colors, 3)
    assert text == "s 2 3\nc 1 1\nc 2 2\nc 3 1\n"
    assert parse_coloring(text, 3) == (colors, (2, 3))


def test_parse_coloring_takes_lines_in_any_order():
    assert parse_coloring("s 3 3\nc 3 2\nc 1 3\nc 2 1\n", 3) == ([3, 1, 2], (3, 3))


def test_parse_coloring_tolerates_summary_line():
    text = "s 2 3\nc 1 1\nc 2 2\npalettes=3 bound=3 theorem=grid\n"
    parsed, _ = parse_coloring(text, 2)
    assert parsed == [1, 2]


def test_parse_coloring_duplicate_edge():
    with pytest.raises(FormatError, match="colored twice"):
        parse_coloring("s 1 1\nc 1 1\nc 1 2\n", 1)


def test_parse_coloring_rejects_nonpositive_color():
    with pytest.raises(FormatError, match="positive"):
        parse_coloring("s 1 1\nc 1 0\n", 1)


@pytest.mark.parametrize("text, message", [
    ("s 1 2\nc 1 1\n", "partial coloring: edge 2 has no color"),
    ("s 1 2\nc 3 1\nc 1 1\n", "partial coloring: edge 2 has no color"),
    ("s 2 3\nc 1 1\nc 9 1\nc 2 2\nc 7 1\n", "edge 7 is colored, but the graph has 2 edges"),
    ("", "line 1: missing header"),
])
def test_parse_coloring_names_a_missing_or_stray_edge_1_based(text, message):
    with pytest.raises(FormatError) as err:
        parse_coloring(text, 2)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    ("", "line 1: missing header"),
    ("# only a comment\n\n", "line 1: missing header"),
    ("q 2 1\ne 1 2\n", "line 1: expected header 'p <vertices> <edges>'"),
    ("p 2\n", "line 1: expected header 'p <vertices> <edges>'"),
    ("p 2 1 0\ne 1 2\n", "line 1: expected header 'p <vertices> <edges>'"),
    ("\n# c\np 2 1 # trailing\n", "line 3: expected header 'p <vertices> <edges>'"),
    ("p two 1\n", "line 1: non-integer header fields"),
    ("p 2 1.0\n", "line 1: non-integer header fields"),
    ("p -1 0\n", "line 1: negative counts in header"),
    ("p 2 -1\n", "line 1: negative counts in header"),
    ("p 2 1\np 2 1\n", "line 2: expected edge line 'e <u> <v>'"),
    ("p 2 1\ne 1\n", "line 2: expected edge line 'e <u> <v>'"),
    ("p 2 1\ne 1 2 3\n", "line 2: expected edge line 'e <u> <v>'"),
    ("p 2 1\nE 1 2\n", "line 2: expected edge line 'e <u> <v>'"),
    ("p 2 1\ne 1 x\n", "line 2: non-integer endpoint"),
    ("p 2 1\ne 1.5 2\n", "line 2: non-integer endpoint"),
    ("p 2 1\ne 1 3\n", "line 2: endpoint out of range 1..2"),
    ("p 2 1\ne 0 1\n", "line 2: endpoint out of range 1..2"),
    ("p 2 1\ne 3 1\n", "line 2: endpoint out of range 1..2"),
    ("p 2 1\ne -1 2\n", "line 2: endpoint out of range 1..2"),
    ("p 0 1\ne 1 1\n", "line 2: endpoint out of range 1..0"),
    ("p 2 1\ne 2 2\n", "line 2: loop at vertex 2 is not allowed"),
    ("p 3 2\ne 1 2\n", "line 2: header promises 2 edges, found 1"),
    ("p 3 2\ne 1 2\n# end\n\n", "line 4: header promises 2 edges, found 1"),
    ("p 3 0\ne 1 2\n", "line 2: header promises 0 edges, found 1"),
    ("p 3 1\n", "line 1: header promises 1 edges, found 0"),
    ("# c\n\t\n  # indented comment\np\t3 1\n e\t1 2 \ne 2 3\n",
     "line 6: header promises 1 edges, found 2"),
])
def test_parse_graph_error_messages(text, message):
    with pytest.raises(FormatError) as err:
        parse_graph(text)
    assert str(err.value) == message


def test_parse_graph_whitespace_and_comment_lines():
    text = "  # c\n\n\t\np\t3  2\n\te 1\t2\n#mid\n e 3 2 \n"
    g = parse_graph(text)
    assert (g.vertex_count, g.edges) == (3, ((0, 1), (2, 1)))
    assert parse_graph("p 0 0\n") == build_graph(0, [])


def test_parsers_skip_one_leading_byte_order_mark():
    graph = "p 3 2\r\ne 1 2\r\ne 2 3\r\n"
    assert parse_graph("\ufeff" + graph) == parse_graph(graph)
    coloring = "s 2 1\nc 1 1\nc 2 2\n"
    assert parse_coloring("\ufeff" + coloring, 2) == parse_coloring(coloring, 2)
    with pytest.raises(FormatError, match="line 1: expected header 'p "):
        parse_graph("\ufeff\ufeff" + graph)
    with pytest.raises(FormatError, match="line 1: expected header 's "):
        parse_coloring("\ufeff\ufeff" + coloring, 2)
