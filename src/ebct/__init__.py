"""Entropy-balancing weights for continuous treatments.

Estimates unit weights that zero out weighted Pearson correlations between a
continuous treatment and covariates by solving a convex dual, alongside a
stabilized inverse-probability baseline, balance diagnostics, weighted
polynomial dose-response estimation with bootstrap uncertainty, and a
Monte-Carlo bias/RMSE harness.
"""

__version__ = "0.1.0"

from .data import (
    BalancingWeights,
    Dataset,
    StandardizedSample,
    build_constraint_matrix,
    standardize,
    uniform_weights,
)
from .diagnostics import (
    BalanceReport,
    balance_report,
    max_weight_share,
    render_balance_table,
    weighted_pearson,
)
from .drf import (
    BootstrapResult,
    DrfFit,
    DrfPipeline,
    attach_bootstrap,
    bootstrap_se,
    bootstrap_statistic,
    default_grid,
    estimate_drf,
    fit_wls,
)
from .ipw import GpsModel, fit_gps, gps_density, ipw_weights
from .simulation import (
    ScenarioConfig,
    ScenarioResult,
    apply_specification,
    gen_covariates,
    gen_outcome,
    gen_treatment,
    paper_grid,
    render_grid_table,
    run_grid,
    run_replication,
    run_scenario,
    write_grid_csv,
)
from .solver import (
    ConvergenceReport,
    SolverOptions,
    dual_gradient,
    dual_hessian,
    dual_objective,
    recover_weights,
    solve,
    solve_batch,
    truncate_and_rebalance,
)
from .weighting import cap_weights, estimate_weights

__all__ = [
    "BalanceReport",
    "BalancingWeights",
    "BootstrapResult",
    "ConvergenceReport",
    "Dataset",
    "DrfFit",
    "DrfPipeline",
    "GpsModel",
    "ScenarioConfig",
    "ScenarioResult",
    "SolverOptions",
    "StandardizedSample",
    "apply_specification",
    "attach_bootstrap",
    "balance_report",
    "bootstrap_se",
    "bootstrap_statistic",
    "build_constraint_matrix",
    "cap_weights",
    "default_grid",
    "dual_gradient",
    "dual_hessian",
    "dual_objective",
    "estimate_drf",
    "estimate_weights",
    "fit_gps",
    "fit_wls",
    "gen_covariates",
    "gen_outcome",
    "gen_treatment",
    "gps_density",
    "ipw_weights",
    "max_weight_share",
    "paper_grid",
    "recover_weights",
    "render_balance_table",
    "render_grid_table",
    "run_grid",
    "run_replication",
    "run_scenario",
    "solve",
    "solve_batch",
    "standardize",
    "truncate_and_rebalance",
    "uniform_weights",
    "weighted_pearson",
    "write_grid_csv",
]
