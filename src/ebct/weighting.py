"""Front door mapping a method name to estimated balancing weights."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .data import BalancingWeights, Dataset, method_name, standardize, uniform_weights
from .errors import NotConverged
from .ipw import ipw_weights
from .solver import check_threshold, solve, truncate_and_rebalance


def cap_weights(weights: BalancingWeights, threshold: float) -> BalancingWeights:
    """Cap weights at a threshold, renormalizing the rest in proportion.

    Plain capping without re-solving any constraints; used for optional IPW
    robustness runs. The result is the fixed point of repeated
    cap-and-renormalize, computed in closed form: the largest units sit
    exactly at the cap and the others keep their ratios. Entropy-balancing
    weights should go through ``truncate_and_rebalance`` instead so balance
    is restored.

    Raises:
        ThresholdInfeasible: threshold not finite or below 1/n.
    """
    w = weights.weights
    n = w.size
    check_threshold(threshold, n)
    if w.max() <= threshold:
        return weights
    # Capping the k largest units scales the rest by (1 - k c) / (their sum);
    # the smallest k that leaves the largest remaining unit at or below the
    # cap is the fixed point.
    order = np.argsort(-w, kind="stable")
    desc = w[order]
    tails = np.cumsum(desc[::-1])[::-1]
    k = np.arange(n)
    fits = desc * (1.0 - k * threshold) <= threshold * tails
    fits[-1] = True
    capped = int(np.argmax(fits))
    out = np.empty(n)
    out[order[:capped]] = threshold
    rest = order[capped:]
    out[rest] = w[rest] * ((1.0 - capped * threshold) / w[rest].sum())
    return replace(weights, weights=out)


def estimate_weights(
    dataset: Dataset,
    method: str,
    truncation: Optional[float] = None,
    start=None,
) -> BalancingWeights:
    """Estimate weights for one of the supported methods.

    ``method`` is one of ``ebct``, ``ipw`` or ``uniform`` (``unweighted`` is
    accepted as an alias for ``uniform``). A truncation threshold passes the
    weights, converged or not, to truncate-and-rebalance for ebct and to a
    simple cap-and-renormalize for ipw; uniform weights meet any threshold
    of at least 1/n unchanged. A threshold that is not finite or is below
    1/n raises ThresholdInfeasible for every method.
    ``start`` gives the initial multipliers of the ebct solve (see
    ``solve``); truncation rounds re-solve on their capped base weights from
    zero. ``ipw`` and ``uniform`` solve no dual and ignore ``start``.
    """
    name = method_name(method)
    if name != "ebct":
        weights = ipw_weights(dataset) if name == "ipw" else uniform_weights(dataset.n)
        return weights if truncation is None else cap_weights(weights, truncation)
    G = standardize(dataset)
    try:
        weights, _ = solve(G, start=start)
    except NotConverged as err:
        if truncation is None:
            raise
        weights = err.weights  # truncate_and_rebalance raises it again
    if truncation is not None:
        weights = truncate_and_rebalance(G, weights, truncation)
    return weights
