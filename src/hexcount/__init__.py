"""Exact rhombus-tiling counts of a,b,c,a,b,c hexagons with a marked rhombus."""

from .arith import binomial, pochhammer
from .bruteforce import enumerate_families, oracle_count_fixed, oracle_occupation
from .checks import CheckRecord
from .factorcheck import (
    RowIdentity,
    build_poly_matrix,
    check_row_combination,
    factored_det_almost_central,
    factored_det_central,
    p_poly,
)
from .formulas import (
    AsymptoticInput,
    ConvergenceRecord,
    CountReport,
    Method,
    arcsin_probability,
    closed_almost_central,
    closed_central,
    convergence_experiment,
    macmahon_total,
    probability_report,
    triple_sum_count,
)
from .geometry import (
    HexDims,
    ParityClass,
    PathPoint,
    RhombusPos,
    almost_central_pos,
    central_pos,
    endpoints,
    extra_pair,
    path_count,
)
from .pathcount import (
    HeatmapGrid,
    adjugate,
    build_lgv_matrix,
    count_fixed,
    det_fraction_free,
    heatmap,
)

__all__ = [
    "AsymptoticInput",
    "CheckRecord",
    "ConvergenceRecord",
    "CountReport",
    "HeatmapGrid",
    "HexDims",
    "Method",
    "ParityClass",
    "PathPoint",
    "RhombusPos",
    "RowIdentity",
    "adjugate",
    "almost_central_pos",
    "arcsin_probability",
    "binomial",
    "build_lgv_matrix",
    "build_poly_matrix",
    "central_pos",
    "check_row_combination",
    "closed_almost_central",
    "closed_central",
    "convergence_experiment",
    "count_fixed",
    "det_fraction_free",
    "endpoints",
    "enumerate_families",
    "extra_pair",
    "factored_det_almost_central",
    "factored_det_central",
    "heatmap",
    "macmahon_total",
    "oracle_count_fixed",
    "oracle_occupation",
    "p_poly",
    "path_count",
    "pochhammer",
    "probability_report",
    "triple_sum_count",
]

__version__ = "0.1.0"
