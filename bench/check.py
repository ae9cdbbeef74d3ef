"""Independent output checker (stdlib only).

It re-reads what each op printed or wrote and recounts it itself; it never
calls the package, whose verification and palette code is measured.  Each
check returns (what it recounted, None) when the output is right and
(None, a one-line reason) when it is not.
"""

from __future__ import annotations

import re
from collections import Counter


def parse_graph(text: str) -> list[tuple[int, int]]:
    """Edges of a GraphFile the benchmark wrote, 1-indexed endpoints."""
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return edges


def _summary(stdout: str) -> dict[str, str]:
    """The key=value tokens of an op's summary line."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def recount(edges: list[tuple[int, int]], text: str) -> tuple[int | None, str | None]:
    """Distinct palettes of a ColoringFile over `edges`, or a reason why the
    file is not a total proper coloring whose header matches the recount."""
    header = None
    color_of: dict[int, int] = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "s" and header is None and len(parts) == 3:
            header = (int(parts[1]), int(parts[2]))
        elif parts[0] == "c" and len(parts) == 3:
            eid, col = int(parts[1]), int(parts[2])
            if eid in color_of:
                return None, f"edge {eid} colored twice"
            if not 1 <= eid <= len(edges):
                return None, f"edge {eid} out of range"
            if col < 1:
                return None, f"edge {eid} has color {col}"
            color_of[eid] = col
        else:
            return None, f"unexpected line {line!r}"
    if header is None:
        return None, "missing 's' header"
    if len(color_of) != len(edges):
        return None, f"{len(edges) - len(color_of)} edges uncolored"
    palette: dict[int, set[int]] = {}
    for eid, (u, v) in enumerate(edges, start=1):
        col = color_of[eid]
        for w in (u, v):
            seen = palette.setdefault(w, set())
            if col in seen:
                return None, f"vertex {w} sees color {col} twice"
            seen.add(col)
    distinct = len({frozenset(p) for p in palette.values()})
    if header != (len(set(color_of.values())), distinct):
        return None, f"header {header} disagrees with the recount"
    return distinct, None


def check_color(edges, stdout: str, coloring: str,
                route: tuple[int, str]) -> tuple[tuple[int, bool] | None, str | None]:
    """Returns ((palettes, proved), reason).  The recount must equal the
    printed `palettes=`, stay within `bound=`, and the route must be the
    pinned one.  `proved` says the count meets the degree-count lower bound
    (palettes of different sizes are distinct), so it is optimal."""
    fields = _summary(stdout)
    try:
        printed, bound = int(fields["palettes"]), int(fields["bound"])
        theorem = fields["theorem"]
    except (KeyError, ValueError):
        return None, f"malformed summary {stdout!r}"
    if (bound, theorem) != route:
        return None, f"route {(bound, theorem)} is not the pinned {route}"
    distinct, why = recount(edges, coloring)
    if why:
        return None, why
    if distinct != printed:
        return None, f"printed palettes={printed}, recount {distinct}"
    if distinct > bound:
        return None, f"{distinct} palettes over the bound {bound}"
    degree = Counter(w for edge in edges for w in edge)
    return (distinct, distinct == len(set(degree.values()))), None


def check_bounds(stdout: str, pinned: tuple[int, int]) -> tuple[tuple[int, int] | None, str | None]:
    """Returns ((largest lower, smallest upper), reason)."""
    lowers, uppers = [], []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != 3 or parts[0] not in ("lower", "upper"):
            return None, f"unexpected line {line!r}"
        (lowers if parts[0] == "lower" else uppers).append(int(parts[1]))
    if not lowers or not uppers:
        return None, "missing lower or upper bounds"
    pair = (max(lowers), min(uppers))
    if pair[0] > pair[1]:
        return None, f"lower {pair[0]} exceeds upper {pair[1]}"
    if pair != pinned:
        return None, f"bounds {pair} are not the pinned {pinned}"
    return pair, None


def check_exact(edges, stdout: str, code: int, coloring: str, expect: int | None,
                budget_range) -> tuple[tuple[int, bool] | None, str | None]:
    """Returns ((value, proved), reason).

    An op with a pinned value must exit 0 with proved=true and that value.
    A budgeted op must exit 3 with proved=false, or exit 0 with
    proved=true; its value must lie in the admissible range either way.
    The witness must be proper and its recount equal the printed value.
    """
    match = re.fullmatch(r"palette_index=(\d+) proved=(true|false)\n", stdout)
    if not match:
        return None, f"malformed summary {stdout!r}"
    value, proved = int(match.group(1)), match.group(2) == "true"
    if code != (0 if proved else 3):
        return None, f"exit {code} with proved={match.group(2)}"
    if expect is not None:
        if not proved or value != expect:
            return None, f"value {value} proved={proved}, pinned {expect} proved"
    else:
        low, high = budget_range
        if value < low or (high is not None and value > high):
            return None, f"value {value} outside {budget_range}"
    distinct, why = recount(edges, coloring)
    if why:
        return None, why
    if distinct != value:
        return None, f"printed palette_index={value}, witness recount {distinct}"
    return (value, proved), None


SUITE_CASES = 96
_LINE = re.compile(r"case (\S+) expected=\S+ computed=(\S+) tag=\S+ "
                   r"proved=(true|false) status=(pass|fail)")


def check_suite(report: str, first: str | None) -> tuple[tuple[int, int] | None, str | None]:
    """Returns ((palettes, proved), reason).  Every case must pass and the
    bytes must equal the first pass's report.  `palettes` sums the computed
    palette counts (plain or `<=N`); `proved` counts proved cases."""
    if first is not None and report != first:
        return None, "report bytes differ from the first pass"
    lines = report.splitlines()
    if not lines or lines[-1] != f"suite status=pass passed={SUITE_CASES}/{SUITE_CASES}":
        return None, f"footer {lines[-1] if lines else ''!r}"
    palettes = proved = 0
    for line in lines[:-1]:
        match = _LINE.fullmatch(line)
        if not match or match.group(4) != "pass":
            return None, f"case line {line!r}"
        computed = match.group(2).removeprefix("<=")
        if computed.isdigit():
            palettes += int(computed)
        proved += match.group(3) == "true"
    if len(lines) - 1 != SUITE_CASES:
        return None, f"{len(lines) - 1} case lines"
    return (palettes, proved), None
