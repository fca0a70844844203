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

from .data import BalancingWeights, check_counts, sample_blocks
from .errors import ConstantColumn, DegenerateResidual, RankDeficientDesign

_LOG_2PI = float(np.log(2.0 * np.pi))


def _normal_logpdf(t, mu, sigma):
    z = (np.asarray(t, dtype=float) - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * _LOG_2PI


def _stabilized_ratios(t, x, freq, n, dataset) -> np.ndarray:
    """Normalized stabilized weights of a (B, m) treatment and a (B, m, K)
    covariate stack whose m rows have copy counts ``freq``, n in all;
    ``dataset``'s labels name a constant treatment. See ``ipw_weights``."""
    k = x.shape[2]
    design = np.empty(x.shape[:2] + (k + 1,))
    design[:, :, 0] = 1.0
    design[:, :, 1:] = x
    # The scaled rows have the Gram matrix of the N copies, and rcond is the
    # tolerance that lstsq's rcond=None and matrix_rank give the copies, so
    # the one SVD serves both the fit and the rank check.
    root = np.sqrt(freq)
    rcond = np.finfo(float).eps * max(n, k + 1)
    beta = np.empty((len(t), k + 1))
    for b in range(len(t)):
        beta[b], _, rank, _ = np.linalg.lstsq(design[b] * root[:, None], t[b] * root, rcond=rcond)
        if rank < k + 1:
            raise RankDeficientDesign("design matrix [1 | X] is rank deficient")
    # Every product and sum below is one dataset's own, taken along its rows
    # the way the one-dataset arithmetic takes it: mean, std(ddof=1) and
    # r @ r with one copy each, so the sample's own moments bit for bit.
    residuals = t - (design @ beta[:, :, None])[:, :, 0]
    mean = (freq * t).sum(axis=1, keepdims=True) / n
    dev = t - mean
    marginal_sigma = np.sqrt((freq * dev * dev).sum(axis=1, keepdims=True) / (n - 1))
    sigma = np.sqrt(((residuals * freq)[:, None, :] @ residuals[:, :, None])[:, 0] / (n - k - 1))
    for b in np.flatnonzero(~(marginal_sigma[:, 0] > 0) | (sigma < 1e-12 * marginal_sigma)[:, 0]):
        if not marginal_sigma[b, 0] > 0:
            raise ConstantColumn(dataset.treatment_name)
        raise DegenerateResidual(
            "treatment is (numerically) an exact function of the covariates"
        )
    log_ratio = _normal_logpdf(t, mean, marginal_sigma)
    log_ratio -= _normal_logpdf(t, beta[:, :1] + (x @ beta[:, 1:, None])[:, :, 0], sigma)
    shifted = np.exp(log_ratio - log_ratio.max(axis=1, keepdims=True))
    shifted *= freq
    return shifted / shifted.sum(axis=1, keepdims=True)


def ipw_weights(dataset, counts=None) -> BalancingWeights:
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

    ``dataset`` may also be a batch of B samples (see ``Dataset``). The
    result is then their stacked ``BalancingWeights`` from one pass over the
    batch, block by block (see ``sample_blocks``) so that the working memory
    is one block's, each row bit for bit the weighting its sample gives
    alone; only the least-squares fits run one sample at a time, so each
    keeps its own rank decision.

    Raises:
        ValueError: ``counts`` are invalid or come with a batch, or N < K+2
            copies (n without counts) leave the residual scale no degree of
            freedom.
        RankDeficientDesign: the design [1 | X] is not full column rank, or
            ``counts`` draw fewer than K+2 distinct units.
        ConstantColumn: the treatment does not vary.
        DegenerateResidual: a (near-) perfect fit leaves no residual scale.
            With a batch, the first block with a failing sample raises each
            error for the first of its samples that has it.
    """
    single = dataset.treatment.ndim == 1
    m, k = dataset.n, dataset.k
    if not single and counts is not None:
        raise ValueError("counts apply to one dataset, not to a batch")
    kept, copies = check_counts(counts, m)
    n = int(copies.sum())
    if n < k + 2:
        raise ValueError(f"need at least K+2 = {k + 2} units for K={k} covariates, got {n}")
    if len(copies) < k + 2:
        # K+1 distinct rows of [1 | X] are fitted exactly, or are rank
        # deficient: either way no residual scale exists, whatever rounding
        # makes of it.
        raise RankDeficientDesign(
            f"need at least K+2 = {k + 2} distinct units for K={k} covariates, "
            f"drew {len(copies)}"
        )
    freq = copies.astype(float)
    blocks = [
        _stabilized_ratios(t, x, freq, n, dataset) for _, t, x in sample_blocks(dataset, kept)
    ]
    weights = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    # Nothing writes these weights again: the result adopts them, or a lone
    # sample's row of them.
    weights.setflags(write=False)
    return BalancingWeights(
        weights=weights[0] if single else weights,
        gamma=np.empty(0),
        converged=True,
        iterations=0,
        final_gradient_norm=float("nan"),
        method_tag="ipw",
    )
