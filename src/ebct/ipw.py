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
    does (see ``check_counts``); no counts means one copy of each unit. The
    weights are the resample's, summed per unit, over the units with a
    positive count in dataset order: the OLS fit is count-weighted (rows
    scaled by the counts' square roots, rank tolerance of N = sum(counts)
    rows), and the means and scales are count-weighted over N copies.

    Raises:
        ValueError: ``counts`` are invalid, or N < K+2 copies (n without
            counts) leave the residual scale no degree of freedom.
        RankDeficientDesign: the design [1 | X] is not full column rank.
        ConstantColumn: the treatment does not vary.
        DegenerateResidual: a (near-) perfect fit leaves no residual scale.
    """
    k = dataset.k
    kept, copies = check_counts(counts, dataset.n)
    n = int(copies.sum())
    if n < k + 2:
        raise ValueError(f"need at least K+2 = {k + 2} units for K={k} covariates, got {n}")
    t, x = dataset.treatment[kept], dataset.covariates[kept]
    freq = copies.astype(float)
    design = np.column_stack([np.ones(t.size), x])
    # The scaled rows have the Gram matrix of the N copies, and rcond is the
    # tolerance that lstsq's rcond=None and matrix_rank give the copies, so
    # the one SVD serves both the fit and the rank check.
    root = np.sqrt(freq)
    rcond = np.finfo(float).eps * max(n, k + 1)
    beta, _, rank, _ = np.linalg.lstsq(design * root[:, None], t * root, rcond=rcond)
    if rank < k + 1:
        raise RankDeficientDesign("design matrix [1 | X] is rank deficient")
    residuals = t - design @ beta
    # Each sum is taken the way mean, std(ddof=1) and r @ r take it, so with
    # one copy each these are the sample's own moments bit for bit.
    mean = float((freq * t).sum()) / n
    dev = t - mean
    marginal_sigma = float(np.sqrt((freq * dev * dev).sum() / (n - 1)))
    sigma = float(np.sqrt((residuals * freq) @ residuals / (n - k - 1)))

    if not marginal_sigma > 0:
        raise ConstantColumn(dataset.treatment_name)
    if sigma < 1e-12 * marginal_sigma:
        raise DegenerateResidual(
            "treatment is (numerically) an exact function of the covariates"
        )
    log_ratio = _normal_logpdf(t, mean, marginal_sigma)
    log_ratio -= _normal_logpdf(t, beta[0] + x @ beta[1:], sigma)
    shifted = np.exp(log_ratio - log_ratio.max())
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
