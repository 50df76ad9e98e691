"""Bounds, reductions, constructions, and exact desk-scale checks for
solution-free subsets of F_p^n under balanced systems of linear equations."""

import os

# set before .bounds loads numpy: linsys makes no BLAS call, and OpenBLAS's idle pool spins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (
    BoundReport,
    bound_small_p,
    c_tilde,
    count_theta,
    g_value,
    lambda_min,
    optimize_allocation,
    parallelogram_upper,
    star_inequality,
    upper_bound_strong,
    wshape_upper,
)
from .dominance import (
    LowerBoundReport,
    ReductionStep,
    ReductionTrace,
    dominance_of,
    lower_bound_strong,
    lower_bound_weak,
    reduction_sequence,
)
from .eqsys import (
    FpSystem,
    ZSystem,
    parse_system,
    reduce_mod_p,
    render_system,
    subsystem,
)
from .errors import GuardExceeded, ParseError
from .lattice import (
    SphereSet,
    best_sphere_set,
    embed_mod_p,
    norm_class_counts,
    pigeonhole_bound,
    verify_construction,
)
from .oracle import (
    Matching,
    PointSet,
    SearchResult,
    build_colored_subcollection,
    extendable_pairs,
    is_multicolored_free,
    is_strongly_free,
    is_weakly_free,
    iter_solutions,
    max_strongly_free,
    max_weakly_free,
    space_points,
)
from .structure import (
    SystemHypergraph,
    build_hypergraph,
    hypergraph_report,
)
from .systems import builtin, builtin_names

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "bound_small_p", "c_tilde", "count_theta",
    "g_value", "lambda_min", "optimize_allocation", "parallelogram_upper",
    "star_inequality", "upper_bound_strong", "wshape_upper",
    "LowerBoundReport", "ReductionStep", "ReductionTrace",
    "dominance_of", "lower_bound_strong", "lower_bound_weak", "reduction_sequence",
    "FpSystem", "ZSystem",
    "parse_system", "reduce_mod_p", "render_system", "subsystem",
    "GuardExceeded", "ParseError",
    "SphereSet", "best_sphere_set", "embed_mod_p",
    "norm_class_counts", "pigeonhole_bound", "verify_construction",
    "Matching", "PointSet", "SearchResult", "build_colored_subcollection",
    "extendable_pairs", "is_multicolored_free", "is_strongly_free", "is_weakly_free",
    "iter_solutions", "max_strongly_free", "max_weakly_free", "space_points",
    "SystemHypergraph", "build_hypergraph", "hypergraph_report",
    "builtin", "builtin_names",
    "__version__",
]
