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

from .data import BalancingWeights, Dataset, check_counts
from .errors import ConstantColumn, DegenerateResidual, RankDeficientDesign

_LOG_2PI = float(np.log(2.0 * np.pi))


def _normal_logpdf(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


def ipw_weights(dataset: Dataset, counts=None) -> BalancingWeights:
    """Normalized stabilized weights f_T(T_i) / f_{T|X}(T_i | X_i).

    The generalized propensity score f_{T|X} is the normal model
    T | X ~ N(beta . [1, X], sigma^2): beta is the OLS fit of the treatment
    on an intercept plus all covariates, and sigma the residual scale on
    n-K-1 degrees of freedom. The marginal density f_T is the normal with
    the treatment's mean and standard deviation (denominator n-1). The
    ratio is computed in log space so extreme treatment values cannot
    underflow to zero weights.

    ``counts`` gives how often each unit is drawn, as a bootstrap resample
    does (see ``check_counts``). The weights are then those of the resample
    with its repeats, summed per unit, over the units with a positive count
    in dataset order: the OLS fit is count-weighted (on rows scaled by the
    square roots of the counts, with the rank tolerance of N = sum(counts)
    rows), and the means and scales are count-weighted over N copies.

    Raises:
        RankDeficientDesign: the design [1 | X] is not full column rank.
        ConstantColumn: the treatment does not vary.
        DegenerateResidual: a (near-) perfect fit leaves no residual scale.
        ValueError: ``counts`` are invalid.
    """
    t = dataset.treatment
    x = dataset.covariates
    n, k = dataset.n, dataset.k
    if counts is not None:
        counts = check_counts(counts, n, 2 * k + 1)
        kept = np.flatnonzero(counts)
        t, x, freq, n = t[kept], x[kept], counts[kept].astype(float), int(counts.sum())
    design = np.column_stack([np.ones(t.size), x])
    if counts is None:
        # rcond=None counts singular values above eps * max(n, K+1) * s_max,
        # the tolerance matrix_rank uses, so the one SVD serves both the fit
        # and the rank check.
        beta, _, rank, _ = np.linalg.lstsq(design, t, rcond=None)
    else:
        # The scaled rows have the Gram matrix of the n copies, and the
        # tolerance is the one lstsq gives the copies themselves.
        root = np.sqrt(freq)
        rcond = np.finfo(float).eps * max(n, k + 1)
        beta, _, rank, _ = np.linalg.lstsq(design * root[:, None], t * root, rcond=rcond)
    if rank < k + 1:
        raise RankDeficientDesign("design matrix [1 | X] is rank deficient")
    residuals = t - design @ beta
    if counts is None:
        rss, mean, marginal_sigma = residuals @ residuals, float(t.mean()), float(t.std(ddof=1))
    else:
        mean = float(freq @ t) / n
        dev = t - mean
        rss = freq @ (residuals * residuals)
        marginal_sigma = float(np.sqrt(freq @ (dev * dev) / (n - 1)))
    sigma = float(np.sqrt(rss / (n - k - 1)))

    if not marginal_sigma > 0:
        raise ConstantColumn(dataset.treatment_name)
    if sigma < 1e-12 * marginal_sigma:
        raise DegenerateResidual(
            "treatment is (numerically) an exact function of the covariates"
        )
    log_ratio = _normal_logpdf(t, mean, marginal_sigma)
    log_ratio -= _normal_logpdf(t, beta[0] + x @ beta[1:], sigma)
    shifted = np.exp(log_ratio - log_ratio.max())
    if counts is not None:
        shifted *= freq
    weights = shifted / shifted.sum()
    return BalancingWeights(
        weights=weights,
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=float("nan"),
        method_tag="ipw",
    )
