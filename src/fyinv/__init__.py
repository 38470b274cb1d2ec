"""Learning linear forward-problem costs from observed decisions.

The package fits the cost parameter of a parametric optimization problem
from (context, decision) pairs via a regularized Fenchel-Young loss, with
suboptimality, KKT-residual, and denoise-then-fit baselines, exact and
regularized solvers for box, ball, capped-simplex, and path-polytope
regions, and a benchmark-family generator plus shortest-path pipeline.
"""

from .errors import (
    DegenerateKernelError,
    DivergedError,
    FyinvError,
    NonConvergenceError,
    ParseError,
    UnreachableError,
    UnsupportedRegionError,
)
from .graphs import Graph, shortest_path
from .model import (
    Ball,
    Box,
    CostKind,
    CostMap,
    Dataset,
    FlowPolytope,
    ForwardProblem,
    Noiseless,
    NoisyDecision,
    NoisyObjective,
    NonNegL1Cap,
    Parameter,
    Sense,
    UniformContexts,
    as_parameter,
    cost,
    region_contains,
    rng_stream,
)
from .solvers import (
    project,
    solve_exact,
    solve_regularized,
)
from .losses import (
    fy_grad,
    fy_loss,
    kka_grad,
    kka_objective,
    subopt_loss,
    subopt_subgrad,
)
from .train import (
    FitResult,
    SgdConfig,
    fy_sgd_fit,
    kka_fit,
    nw_denoise,
    spa_fit,
    subopt_fit,
)
from .synth import EXAMPLE_KINDS, ExampleSpec, build_example, generate, sample_dataset
from .metrics import (
    CalibrationReport,
    MetricsReport,
    calibration_check,
    decision_error,
    parameter_error,
    regret,
)
from .spath import (
    SpDataset,
    grid_graph,
    load_graph,
    load_records,
    planted_theta,
    sp_fit,
    sp_run,
    synth_graph_instance,
    train_test_split,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "Box",
    "CalibrationReport",
    "CostKind",
    "CostMap",
    "Dataset",
    "DegenerateKernelError",
    "DivergedError",
    "EXAMPLE_KINDS",
    "ExampleSpec",
    "FitResult",
    "FlowPolytope",
    "ForwardProblem",
    "FyinvError",
    "Graph",
    "MetricsReport",
    "NoisyDecision",
    "NoisyObjective",
    "Noiseless",
    "NonConvergenceError",
    "NonNegL1Cap",
    "Parameter",
    "ParseError",
    "Sense",
    "SgdConfig",
    "SpDataset",
    "UniformContexts",
    "UnreachableError",
    "UnsupportedRegionError",
    "as_parameter",
    "build_example",
    "calibration_check",
    "cost",
    "decision_error",
    "fy_grad",
    "fy_loss",
    "fy_sgd_fit",
    "generate",
    "grid_graph",
    "kka_fit",
    "kka_grad",
    "kka_objective",
    "load_graph",
    "load_records",
    "nw_denoise",
    "parameter_error",
    "planted_theta",
    "project",
    "region_contains",
    "regret",
    "rng_stream",
    "sample_dataset",
    "shortest_path",
    "solve_exact",
    "solve_regularized",
    "sp_fit",
    "sp_run",
    "spa_fit",
    "subopt_fit",
    "subopt_loss",
    "subopt_subgrad",
    "synth_graph_instance",
    "train_test_split",
]
