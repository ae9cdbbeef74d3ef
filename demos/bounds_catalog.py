"""
The bound catalog
=================

For any graph without isolated vertices the catalog evaluates every
applicable palette bound with its justification tag and reports the
strongest lower bound.  The catalog builds nothing; `color_auto` builds the
coloring of the best constructed upper bound.
"""

from palette_index import (color_auto, gen_random_biregular,
                           gen_random_even_bipartite, upper_bound_catalog)

for name, g in [
    ("a random even bipartite graph with maximum degree 4",
     gen_random_even_bipartite(4, seed=2)),
    ("a random (4,6)-biregular graph",
     gen_random_biregular(4, 6, scale=2, seed=3)),
    ("a random (3,5)-biregular graph",
     gen_random_biregular(3, 5, scale=2, seed=4)),
]:
    report = upper_bound_catalog(g)
    print(f"{name} ({g.vertex_count} vertices, {g.edge_count} edges)")
    print(f"  lower bound {report.lower[0]}  [{report.lower[1]}]")
    for entry in sorted((e for e in report.entries if e.direction == "upper"),
                        key=lambda e: (e.value, e.tag)):
        star = "*" if entry.value == report.upper[0] else " "
        print(f"  {star} upper {entry.value:>4}  [{entry.tag}] {entry.note}")
    result = color_auto(g)
    print(f"  color_auto achieves {result.palettes} palettes "
          f"[{result.theorem_tag}]")
    print()
