"""Stabilized inverse-probability weights from a normal treatment model.

The conditional treatment density (the generalized propensity score) comes
from an OLS regression of the treatment on the covariates with normal errors;
the marginal density uses the treatment's own mean and standard deviation.
Each unit's raw weight is the marginal-to-conditional density ratio, then the
vector is normalized to sum one so weight-share diagnostics and weighted
regressions are comparable across methods.
"""

from __future__ import annotations

import numpy as np

from .data import BalancingWeights, Dataset
from .errors import ConstantColumn, DegenerateResidual, RankDeficientDesign

_LOG_2PI = float(np.log(2.0 * np.pi))


def _normal_logpdf(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


def ipw_weights(dataset: Dataset) -> BalancingWeights:
    """Normalized stabilized weights f_T(T_i) / f_{T|X}(T_i | X_i).

    The generalized propensity score f_{T|X} is the normal model
    T | X ~ N(beta . [1, X], sigma^2): beta is the OLS fit of the treatment
    on an intercept plus all covariates, and sigma the residual scale on
    n-K-1 degrees of freedom. The marginal density f_T is the normal with
    the treatment's mean and standard deviation (denominator n-1). The
    ratio is computed in log space so extreme treatment values cannot
    underflow to zero weights.

    Raises:
        RankDeficientDesign: the design [1 | X] is not full column rank.
        ConstantColumn: the treatment does not vary.
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

    marginal_sigma = float(t.std(ddof=1))
    if not marginal_sigma > 0:
        raise ConstantColumn(dataset.treatment_name)
    if sigma < 1e-12 * marginal_sigma:
        raise DegenerateResidual(
            "treatment is (numerically) an exact function of the covariates"
        )
    log_ratio = _normal_logpdf(t, float(t.mean()), marginal_sigma)
    log_ratio -= _normal_logpdf(t, beta[0] + x @ beta[1:], sigma)
    shifted = np.exp(log_ratio - log_ratio.max())
    weights = shifted / shifted.sum()
    return BalancingWeights(
        weights=weights,
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=float("nan"),
        method_tag="ipw",
    )
