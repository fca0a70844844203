"""Front door mapping a method name to estimated balancing weights."""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

import numpy as np

from .data import check_counts, method_name, resample, standardize, uniform_weights
from .errors import NotConverged
from .ipw import ipw_weights
from .solver import cap_weights, solve, solve_batch, truncate_and_rebalance


def estimate_weights(
    dataset,
    method: str,
    truncation: Optional[float] = None,
    counts=None,
):
    """Estimate weights for one of the supported methods.

    ``method`` is one of ``ebct``, ``ipw`` or ``uniform`` (``unweighted`` is
    accepted as an alias for ``uniform``). A truncation threshold passes the
    weights, converged or not, to truncate-and-rebalance for ebct and to a
    simple cap-and-renormalize for ipw; uniform weights meet any threshold
    of at least 1/n unchanged. A threshold that is not finite or is below
    1/n raises ThresholdInfeasible for every method. The ebct solve starts
    at zero multipliers, and truncation's capped solve from that solve's.

    ``counts`` gives how often each unit is drawn, as a bootstrap resample
    does (see ``check_counts``); no counts means one copy of each unit. The
    result is the weights of that resample, each unit's weight the total of
    its copies', over the units with a positive count in dataset order, and
    every threshold applies per copy. ebct solves the resample's balance
    matrix from the full sample's (see ``resample``), with the counts as
    base weights, on the drawn units only, as ``counted_ebct`` does.
    Counted or not, ebct needs N >= 2K+2 copies, ipw K+2 and uniform one;
    counted ebct also standardizes the full sample, so it needs n >= 2K+2.

    ``dataset`` may also be a batch of B samples (see ``Dataset``), without
    truncation or counts. The result is then their stacked weighting, each
    row bit for bit the weighting its sample gives alone. ebct standardizes
    the whole batch and solves it in one ``solve_batch`` run, and ipw weighs
    it in one ``ipw_weights`` pass; a sample that fails fails the batch with
    its error.
    """
    name = method_name(method)
    if dataset.treatment.ndim > 1:
        if truncation is not None or counts is not None:
            raise ValueError("a batch of datasets takes no truncation or counts")
        if name == "ebct":
            return solve_batch(standardize(dataset))[0]
        if name == "ipw":
            return ipw_weights(dataset)
        uniform = uniform_weights(dataset.n)
        return replace(uniform, weights=np.broadcast_to(uniform.weights, dataset.treatment.shape))
    if name == "ebct":
        if counts is None:
            return _ebct(standardize(dataset), None, truncation, None)
        return counted_ebct(dataset, truncation)(counts)[1]
    if name == "ipw":
        weights = ipw_weights(dataset, counts)
    else:
        weights = uniform_weights(dataset.n, counts)
    if truncation is None:
        return weights
    # The drawn units' copies; None when every unit is one copy, so that no
    # step divides or weights by ones.
    copies = None if counts is None else check_counts(counts, dataset.n)[1]
    return cap_weights(weights, truncation, copies)


def counted_ebct(dataset, truncation: Optional[float] = None, start=None):
    """EBCT weights of bootstrap resamples of one dataset, from one
    standardization.

    Standardizes ``dataset`` once, here, and returns ``weigh(counts)``,
    which gives a resample's ``(kept, weights)``: its drawn rows (see
    ``check_counts``), validated once, and the EBCT weights of its balance
    matrix (see ``resample``) with the counts as base weights, the solve
    started at ``start`` and ``truncation`` applied per copy. This is
    ``estimate_weights`` with those counts, bit for bit.
    """
    Z = standardize(dataset)

    def weigh(counts) -> tuple:
        kept, copies, G = resample(Z, counts, dataset.column_names)
        return kept, _ebct(G, copies, truncation, start)

    return weigh


def _ebct(G, copies, truncation, start):
    """Solve the balance problem of ``G`` with base weights ``copies`` (None:
    the solver's own uniform ones) from ``start``, then truncate; a solve
    that stops short is truncated all the same, which raises its error."""
    # The full sample keeps the solver's own uniform base weights:
    # full(n, 1/n) normalized is not bit for bit ones / n.
    if truncation is None:
        return solve(G, base_weights=copies, start=start)[0]
    # The untruncated weights go straight into truncation, with no reference
    # kept here, so that it can release them before its capped solve.
    return truncate_and_rebalance(G, _untruncated(G, copies, start), truncation, copies)


def _untruncated(G, copies, start):
    """``solve``'s weights, or those a ``NotConverged`` carries, which
    ``truncate_and_rebalance`` raises again."""
    try:
        return solve(G, base_weights=copies, start=start)[0]
    except NotConverged as err:
        return err.weights
