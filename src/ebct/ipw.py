"""Stabilized inverse-probability weights from a normal treatment model.

The conditional treatment density (the generalized propensity score) comes
from an OLS regression of the treatment on the covariates with normal errors;
the marginal density uses the treatment's own mean and standard deviation.
Each unit's raw weight is the marginal-to-conditional density ratio, then the
vector is normalized to sum one so weight-share diagnostics and weighted
regressions are comparable across methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BalancingWeights, Dataset
from .errors import ConstantColumn, DegenerateResidual, RankDeficientDesign

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GpsModel:
    """Fitted normal model for the treatment: T | X ~ N(beta . [1, X], sigma^2).

    ``marginal_mean`` and ``marginal_sigma`` describe the unconditional
    normal fit used to stabilize the weights. Finite-sample noise may push
    sigma above marginal_sigma; only positivity is enforced.
    """

    beta: np.ndarray
    sigma: float
    marginal_mean: float
    marginal_sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.marginal_sigma > 0:
            raise ValueError("marginal_sigma must be positive")
        object.__setattr__(self, "beta", np.array(self.beta, dtype=float))

    def conditional_mean(self, covariates) -> np.ndarray:
        x = np.asarray(covariates, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        return self.beta[0] + x @ self.beta[1:]


def fit_gps(dataset: Dataset) -> GpsModel:
    """OLS fit of the treatment on an intercept plus all covariates.

    The residual scale uses denominator n-K-1 and the marginal scale n-1,
    the standard unbiased choices.

    Raises:
        RankDeficientDesign: the design [1 | X] is not full column rank.
        DegenerateResidual: a (near-) perfect fit leaves no residual scale.
    """
    t = dataset.treatment
    x = dataset.covariates
    n, k = dataset.n, dataset.k
    design = np.column_stack([np.ones(n), x])
    # rcond=None counts singular values above eps * max(n, K+1) * s_max, the
    # tolerance matrix_rank uses, so the one SVD serves both the fit and the
    # rank check.
    beta, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    if rank < k + 1:
        raise RankDeficientDesign("design matrix [1 | X] is rank deficient")
    residuals = t - design @ beta
    sigma = float(np.sqrt(residuals @ residuals / (n - k - 1)))

    marginal_mean = float(t.mean())
    marginal_sigma = float(t.std(ddof=1))
    if not marginal_sigma > 0:
        raise ConstantColumn(dataset.treatment_name)
    if sigma < 1e-12 * marginal_sigma:
        raise DegenerateResidual(
            "treatment is (numerically) an exact function of the covariates"
        )
    return GpsModel(
        beta=beta,
        sigma=sigma,
        marginal_mean=marginal_mean,
        marginal_sigma=marginal_sigma,
    )


def _normal_logpdf(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


def ipw_weights(dataset: Dataset) -> BalancingWeights:
    """Normalized stabilized weights f_T(T_i) / f_{T|X}(T_i | X_i).

    Both densities come from ``fit_gps``. The ratio is computed in log space
    so extreme treatment values cannot underflow to zero weights.
    """
    model = fit_gps(dataset)
    t = dataset.treatment
    log_ratio = _normal_logpdf(t, model.marginal_mean, model.marginal_sigma)
    log_ratio -= _normal_logpdf(t, model.conditional_mean(dataset.covariates), model.sigma)
    shifted = np.exp(log_ratio - log_ratio.max())
    weights = shifted / shifted.sum()
    return BalancingWeights(
        weights=weights,
        base_weights=np.full(dataset.n, 1.0 / dataset.n),
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=float("nan"),
        method_tag="ipw",
    )
