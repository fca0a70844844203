"""Entropy-balancing weights for continuous treatments.

Estimates unit weights that zero out weighted Pearson correlations between a
continuous treatment and covariates by solving a convex dual, alongside a
stabilized inverse-probability baseline, balance diagnostics, weighted
polynomial dose-response estimation with bootstrap uncertainty, and a
Monte-Carlo bias/RMSE harness.

This namespace holds the user API. Internals (DGP pieces, IPW, capping,
diagnostics helpers) are imported from their own modules, for example
``ebct.simulation`` or ``ebct.solver``.
"""

__version__ = "0.1.0"

from .data import BalancingWeights, Dataset, standardize
from .diagnostics import BalanceReport, balance_report
from .drf import DrfFit, bootstrap_se, estimate_drf
from .simulation import ScenarioConfig, ScenarioResult, paper_grid, run_grid, run_scenario
from .solver import solve, solve_batch, truncate_and_rebalance
from .weighting import estimate_weights

__all__ = [
    "BalanceReport",
    "BalancingWeights",
    "Dataset",
    "DrfFit",
    "ScenarioConfig",
    "ScenarioResult",
    "balance_report",
    "bootstrap_se",
    "estimate_drf",
    "estimate_weights",
    "paper_grid",
    "run_grid",
    "run_scenario",
    "solve",
    "solve_batch",
    "standardize",
    "truncate_and_rebalance",
]
