"""Blurring mean shift clustering with convergence diagnostics."""

import logging

from .cluster import ClusterResult, SweepEntry, bandwidth_sweep, cluster, standardize
from .config import Configuration, as_configuration
from .diagnostics import (
    RateClass,
    RateEstimate,
    component_diameter,
    diam_rate_check,
    diameter,
    direction_set,
    directional_extents,
    estimate_rate,
    residual_floor,
)
from .engine import (
    BmsRun,
    GradientResult,
    IsolatedQueryError,
    IterationRecord,
    StopRule,
    bms_step,
    gradient,
    minorizer_gap,
    ms_step,
    objective,
    run_bms,
)
from .graph import (
    BmsGraph,
    GraphClassification,
    build_graph,
    classify,
    component_count_bound,
    graph_to_json,
    is_fixed_point,
)
from .kernels import (
    ASSUMPTION1_IDS,
    BUILTIN_IDS,
    Assumption1Report,
    KernelSpec,
    TruncationClass,
    builtin,
    classify_truncation,
    eval_g,
    eval_k,
    g_value,
    get_kernel,
    kernel_from_descriptor,
    kernel_value,
    load_kernel_json,
    validate_assumption1,
)
from .oracles import (
    OracleComparison,
    SimplexState,
    compare_sim_to_oracle,
    population_recurrence_step,
    population_sequence,
    simplex_radius_sequence,
    simplex_recurrence_step,
    simplex_vertices,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"

# library logging stays silent unless the application configures it
logging.getLogger(__name__).addHandler(logging.NullHandler())
