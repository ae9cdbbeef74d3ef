"""Proper edge colorings with few distinct vertex palettes.

The palette of a vertex under a proper edge coloring is the set of colors on
its incident edges; this package constructs colorings with provably few
distinct palettes, catalogs lower and upper bounds, and solves small
instances exactly.
"""

from .analysis import (BoundEntry, BoundReport, PaletteTwoCertificate,
                       classify_full_palette, decide_palette_two,
                       palette_lower_bound, upper_bound_catalog)
from .coloring import (ColoringError, PaletteSummary, Violation,
                       palette_summary, verify_proper)
from .constructions import (ROUTES, ConstructionResult, build_route,
                            color_3_3r, color_3_5, color_4_4r, color_5_5r,
                            color_auto, color_biregular_auto,
                            color_complete_bipartite, color_deg5,
                            color_even_bipartite, color_grid, color_grid_on,
                            color_r_2r, color_via_doubling, grid_palette_value,
                            recognize_grid)
from .decompose import (eulerian_circuit, konig_coloring,
                        matching_covering_max_degree, maximum_matching,
                        parity_split, split_part_vertices, two_factorization)
from .exact import (PaletteIndexResult, palette_index_exact,
                    palette_index_naive)
from .fileformat import (FormatError, parse_coloring, parse_graph,
                         serialize_coloring, serialize_graph)
from .graph import (Bipartition, BiregularProfile, Component, Graph, GraphError,
                    bipartition, biregular_profile, build_graph, components,
                    edge_subgraph, even_closure, gen_complete_bipartite,
                    gen_grid, gen_random_biregular, gen_random_even_bipartite,
                    without_isolated)
from .suite import SuiteReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
