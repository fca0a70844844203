"""Newton solver for the entropy-balancing dual.

The primal problem minimizes the Kullback-Leibler divergence of unit weights
from base weights subject to zero weighted means of every balance column
(treatment, covariates, cross-products) and a sum-to-one constraint. Its
Lagrange dual collapses to an unconstrained convex program in the 2K+1
multipliers gamma:

    J(gamma) = log( sum_i q_i * exp(gamma . g_i) )

which this module minimizes by damped Newton steps. Far from the optimum,
steps pass an Armijo backtracking line search; once the certifiable decrease
falls below the objective's float resolution, full Newton steps are accepted
on gradient decrease instead. At the optimum the gradient of J is the vector
of weighted balance-column means, so the gradient tolerance directly bounds
the residual imbalance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import BalancingWeights, check_counts
from .errors import (
    InfeasibleConstraints,
    NonFiniteDual,
    NotConverged,
    SingularHessian,
    ThresholdInfeasible,
)

# Dual iterates beyond this norm signal an infeasible constraint set (the
# continuous-treatment analog of empty common support).
_GAMMA_BOUND = 1e6

_MIN_STEP = 1e-14

# Backtracking factor and Armijo sufficient-decrease constant.
_SHRINK = 0.5
_ARMIJO_C = 1e-4

# Infinity-norm bound on the dual gradient in standardized units: it keeps
# weighted correlations at zero to reporting precision.
_GRADIENT_TOLERANCE = 1e-8
_MAX_ITERATIONS = 200

# Added to the Hessian's diagonal so collinear balance columns still give a
# Newton direction.
_RIDGE = 1e-9

# Re-solves truncate_and_rebalance makes before it gives up; the excess over
# the cap shrinks geometrically, so the budget is generous.
_MAX_ROUNDS = 100

_OVERFLOW = "dual exponent overflowed; multipliers are pathological"


def _prepare_base_weights(n: int, base_weights) -> np.ndarray:
    if base_weights is None:
        return np.full(n, 1.0 / n)
    q = np.ravel(np.asarray(base_weights, dtype=float))
    if q.size != n:
        raise ValueError(f"base_weights has length {q.size}, expected {n}")
    if np.any(q <= 0) or not np.all(np.isfinite(q)):
        raise ValueError("base_weights must be strictly positive and finite")
    return q


def _dual_state(G, log_q, gamma) -> tuple:
    """J, implied weights and gradient at gamma for every problem of a stack.

    ``G`` is a (B, n, m) stack of balance-column matrices, ``log_q`` the (B, n)
    log base weights and ``gamma`` the (B, m) multipliers. Returns the values
    J (B,), the weights w_i = q_i e^{gamma.g_i} / Z (B, n), the gradients
    G'w (B, m) and a (B,) flag that is False where an exponent is not finite.
    Rows flagged False carry meaningless numbers. The max-shift keeps every
    finite exponent representable.
    """
    s = (G @ gamma[:, :, None])[:, :, 0]
    s += log_q
    finite = np.isfinite(s).all(axis=1)
    if not finite.all():
        s[~finite] = 0.0
    top = s.max(axis=1, keepdims=True)
    s -= top
    np.exp(s, out=s)
    total = s.sum(axis=1)
    s /= total[:, None]
    value = top[:, 0] + np.log(total)
    return value, s, (s[:, None, :] @ G)[:, 0, :], finite


def _hessian(G, w, grad) -> np.ndarray:
    """Weighted covariance of the balance columns, (B, m, m).

    A column whose square overflows leaves inf or NaN entries without a
    warning; the Newton driver reports them as a typed error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return (G * w[:, :, None]).transpose(0, 2, 1) @ G - grad[:, :, None] * grad[:, None, :]


def _singular(hessian) -> SingularHessian:
    """The error for one (m, m) Hessian that has no Newton direction."""
    if np.isfinite(hessian).all():
        return SingularHessian(
            "dual Hessian is singular: the balance columns are collinear at float precision"
        )
    bad = np.flatnonzero(~np.isfinite(np.diagonal(hessian)))
    column = f"balance column {bad[0]}" if bad.size else "a balance column"
    return SingularHessian(
        f"dual Hessian is not finite: {column} overflows when squared; rescale it"
    )


def _balance_matrix(G) -> np.ndarray:
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError(f"the balance-column matrix must be 2-d, got {G.ndim}-d")
    return G


def _single_state(gamma, G, base_weights) -> tuple:
    G = _balance_matrix(G)
    q = _prepare_base_weights(G.shape[0], base_weights)
    gamma = np.asarray(gamma, dtype=float).reshape(1, -1)
    value, w, grad, finite = _dual_state(G[None], np.log(q)[None], gamma)
    if not finite[0]:
        raise NonFiniteDual(_OVERFLOW)
    return value[0], w[0], grad[0]


def dual_objective(gamma, G, base_weights=None) -> float:
    """Value of J(gamma) = log sum_i q_i exp(gamma . g_i).

    Evaluated with a max-shift so no representable gamma overflows; this is
    the negated dual, so the solver minimizes it.
    """
    return float(_single_state(gamma, G, base_weights)[0])


def dual_gradient(gamma, G, base_weights=None) -> np.ndarray:
    """Gradient of J: the weighted means of the balance columns at gamma.

    Uses the implied weights w_i(gamma), base weights included in numerator
    and denominator alike.
    """
    return _single_state(gamma, G, base_weights)[2]


def dual_hessian(gamma, G, base_weights=None) -> np.ndarray:
    """Hessian of J: the weighted covariance of the balance columns at gamma.

    Positive semidefinite by construction.
    """
    G = _balance_matrix(G)
    _, w, grad = _single_state(gamma, G, base_weights)
    return _hessian(G[None], w[None], grad[None])[0]


def recover_weights(gamma, G, base_weights=None) -> np.ndarray:
    """Weights implied by the multipliers: w_i = q_i e^{gamma.g_i} / Z.

    Strictly positive and normalized to sum one; any constant factor on the
    base weights cancels.
    """
    return _single_state(gamma, G, base_weights)[1]


def _newton_directions(hessian, grad) -> tuple:
    """Newton directions -H^{-1} g for a (B, m, m) stack, and which exist.

    One stacked Cholesky certifies every Hessian positive definite, then one
    stacked solve gives every direction. numpy raises for the whole stack
    when one factorization fails, so only then is each problem taken alone,
    and a singular Hessian stops its own problem only. numpy passes NaN and
    inf through its Cholesky without raising, so a Hessian that is not
    finite counts as singular. Returns the (B, m) directions, zero where
    none exists, and a (B,) flag that is False for a singular Hessian.
    """
    try:
        if np.isfinite(hessian).all():
            np.linalg.cholesky(hessian)
            direction = np.linalg.solve(hessian, grad[:, :, None])[:, :, 0]
            return -direction, np.ones(len(grad), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if len(grad) == 1:
        return np.zeros_like(grad), np.zeros(1, dtype=bool)
    parts = [_newton_directions(hessian[i : i + 1], grad[i : i + 1]) for i in range(len(grad))]
    return np.concatenate([d for d, _ in parts]), np.concatenate([ok for _, ok in parts])


def _newton(G, q, start: np.ndarray) -> list:
    """Damped Newton on every problem of a (B, n, m) stack at once.

    Each problem keeps its own phase, step size, trace and iteration count,
    and reaches exactly the iterates it would reach alone: every stacked
    operation acts row by row, and numpy's linear algebra factors each
    Newton system of the stack by itself. Problems that finish leave the
    stack, so the rest do not pay for them. Every problem starts at the
    m-vector ``start``. Returns per problem either ``(BalancingWeights,
    trace)`` or the exception that problem raises.
    """
    B, _, m = G.shape
    outcomes = [None] * B
    log_q = np.log(q)
    gamma = np.tile(start, (B, 1))
    value, w, grad, finite = _dual_state(G, log_q, gamma)
    traces = [[v] for v in value.tolist()]
    iterations = np.zeros(B, dtype=int)
    errors = [None if ok else NonFiniteDual(_OVERFLOW) for ok in finite]
    stopped = ~finite
    live = np.arange(B)  # problem index of each row still in the stack
    ridge = _RIDGE * np.eye(m)

    def retire(rows) -> None:
        for i in rows:
            b = live[i]
            if errors[i] is None and not w[i].min() > 0:
                errors[i] = InfeasibleConstraints(
                    "a weight underflowed to zero; the balance constraints admit no "
                    "strictly positive weights at float precision"
                )
            if errors[i] is not None:
                outcomes[b] = errors[i]
                continue
            grad_norm = float(np.abs(grad[i]).max())
            converged = grad_norm <= _GRADIENT_TOLERANCE
            weights = BalancingWeights(
                weights=w[i],
                gamma=gamma[i],
                converged=converged,
                iterations=int(iterations[i]),
                final_gradient_norm=grad_norm,
                method_tag="ebct",
            )
            outcomes[b] = (weights, traces[b]) if converged else NotConverged(weights)

    for _ in range(_MAX_ITERATIONS):
        grad_norm = np.abs(grad).max(axis=1)
        stopped |= grad_norm <= _GRADIENT_TOLERANCE
        if stopped.any():
            retire(np.flatnonzero(stopped))
            keep = ~stopped
            if not keep.any():
                return outcomes
            live, G, log_q, gamma, value, w, grad, grad_norm, iterations = (
                a[keep] for a in (live, G, log_q, gamma, value, w, grad, grad_norm, iterations)
            )
            errors = [e for e, k in zip(errors, keep) if k]
            stopped = np.zeros(live.size, dtype=bool)

        hessian = _hessian(G, w, grad) + ridge
        direction, solvable = _newton_directions(hessian, grad)
        for i in np.flatnonzero(~solvable):
            errors[i] = _singular(hessian[i])
            stopped[i] = True
        slope = (grad * direction).sum(axis=1)

        # Local phase: the certifiable Armijo decrease (half the Newton
        # decrement squared) is below the objective's float resolution, so
        # objective comparisons are pure noise. Take the full Newton step as
        # long as it shrinks the gradient.
        local = -slope <= 1e-13 * (1.0 + np.abs(value))
        step = np.ones(live.size)
        searching = ~stopped
        while searching.any():
            rows = np.flatnonzero(searching)
            sub = slice(None) if rows.size == live.size else rows
            candidate = gamma[sub] + step[sub, None] * direction[sub]
            c_value, c_w, c_grad, c_finite = _dual_state(G[sub], log_q[sub], candidate)
            for j, i in enumerate(rows):
                if not c_finite[j]:
                    errors[i] = NonFiniteDual(_OVERFLOW)
                    ok = False
                elif local[i]:
                    ok = np.abs(c_grad[j]).max() < grad_norm[i]
                else:
                    ok = c_value[j] <= value[i] + _ARMIJO_C * step[i] * slope[i]
                    if not ok:
                        step[i] *= _SHRINK
                        if step[i] >= _MIN_STEP:
                            continue
                searching[i] = False
                if not ok:
                    # No acceptable step (or an overflow): the numerical
                    # floor is reached and the final gradient check decides.
                    stopped[i] = True
                    continue
                gamma[i], value[i], w[i], grad[i] = candidate[j], c_value[j], c_w[j], c_grad[j]
                iterations[i] += 1
                traces[live[i]].append(float(c_value[j]))
                if float(np.linalg.norm(gamma[i])) > _GAMMA_BOUND:
                    errors[i] = InfeasibleConstraints(
                        "dual multipliers diverged; the balance constraints admit no "
                        "strictly positive weights"
                    )
                    stopped[i] = True

    retire(range(live.size))
    return outcomes


def _prepare_start(m: int, start) -> np.ndarray:
    if start is None:
        return np.zeros(m)
    gamma = np.asarray(start, dtype=float)
    if gamma.shape != (m,):
        raise ValueError(f"start has shape {gamma.shape}, expected ({m},)")
    if not np.isfinite(gamma).all():
        raise ValueError("start must be finite")
    return gamma


def solve_batch(matrices, base_weights=None, start=None) -> list:
    """Solve many same-shape problems in one stacked Newton run.

    ``matrices`` is the B x n x m stack of balance-column matrices that
    ``standardize`` returns for B datasets, or a sequence of B n x m
    matrices; a stack is used as it is, without a copy. ``base_weights`` is
    None (uniform for every problem) or one entry per matrix, each None or a
    positive vector. ``start`` is the m-vector of multipliers every
    problem's Newton run starts from; None starts at zero. The dual is
    convex, so the start changes how many steps a problem takes, not the
    optimum it reaches (beyond the gradient tolerance); each trace begins at
    J(start). Each Newton iteration factors and solves the Newton systems of
    the whole stack in one numpy call. A problem that fails, a singular
    Hessian included, does not disturb the others, and each problem's
    weights, iterations and trace are exactly those ``solve`` gives it alone
    from the same start.

    Returns:
        One entry per matrix: ``(BalancingWeights, trace)`` on success,
        where ``trace`` lists the accepted dual values from J(start) on,
        otherwise the exception ``solve`` would raise for it
        (``NotConverged``, ``InfeasibleConstraints``, ``NonFiniteDual`` or
        ``SingularHessian``).

    Raises:
        ValueError: shapes disagree, or ``start`` is not a finite m-vector.
    """
    if len(matrices) == 0:
        return []
    try:
        G = np.asarray(matrices, dtype=float)
    except ValueError:  # matrices of unequal shapes
        raise ValueError("stacked problems must share n and K") from None
    if G.ndim != 3:
        raise ValueError(f"stacked problems must be n x m matrices, got a {G.ndim}-d stack")
    B, n, m = G.shape
    if base_weights is None:
        base_weights = [None] * B
    elif len(base_weights) != B:
        raise ValueError(f"got {len(base_weights)} base weight vectors for {B} problems")
    gamma = _prepare_start(m, start)
    q = np.stack([_prepare_base_weights(n, bw) for bw in base_weights])
    q /= q.sum(axis=1, keepdims=True)
    return _newton(G, q, gamma)


def solve(G: np.ndarray, base_weights=None, start=None) -> tuple:
    """Solve for entropy-balancing weights.

    Damped Newton with an analytic Hessian (plus a tiny ridge); the accepted
    dual values are non-increasing up to float rounding. On success the
    weighted mean of every balance column is below the gradient tolerance,
    which makes the weighted Pearson correlation between treatment and each
    covariate zero to numerical precision. ``G`` is the n x (2K+1)
    balance-column matrix that ``standardize`` returns. ``start`` is the
    m-vector of initial multipliers (None: zero); a start near the optimum,
    such as the multipliers of a closely related sample, saves Newton steps
    and reaches the same weights within the tolerance. This is the
    one-problem case of ``solve_batch``.

    Returns:
        (BalancingWeights, trace): the weights, which record convergence,
        iterations and the final gradient norm, and the list of accepted
        dual values, starting at J(start).

    Raises:
        NotConverged: iteration limit reached; the exception carries the last
            iterate's weights for callers that want to accept them.
        InfeasibleConstraints: the dual diverged or a weight underflowed to
            zero, meaning no strictly positive weights satisfy the constraints.
        NonFiniteDual: an exponent overflowed.
        SingularHessian: a Hessian is not finite (a balance column overflows
            when squared), or has no Cholesky factor at float precision
            despite the ridge (collinear balance columns).
        ValueError: ``start`` is not a finite m-vector.
    """
    # G[None] is a view: at large n a copy would double peak memory.
    (outcome,) = solve_batch(_balance_matrix(G)[None], [base_weights], start)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def check_threshold(threshold: float, n: int) -> None:
    """Raise ThresholdInfeasible unless n weights summing to one fit under a finite cap."""
    if not np.isfinite(threshold):
        raise ThresholdInfeasible(f"threshold {threshold} is not a finite weight share")
    if threshold < 1.0 / n:
        raise ThresholdInfeasible(f"threshold {threshold} is below 1/n = {1.0 / n}")


def truncate_and_rebalance(
    G: np.ndarray,
    weights: BalancingWeights,
    threshold: float,
    counts=None,
) -> BalancingWeights:
    """Cap extreme weights and re-solve until no weight exceeds the threshold.

    Each round caps weights at ``threshold``, renormalizes, and re-runs the
    solver with the capped weights as base weights; an iterate that stopped
    at the iteration limit is capped all the same. The result still satisfies
    the balance constraints within tolerance but concentrates less mass on
    single units, and keeps the untruncated ``gamma`` of ``weights``. Its
    ``iterations`` are the Newton steps of the untruncated solve plus those
    of every round. Stops once the maximum weight is at or below the
    threshold (within 1e-10); the excess over the threshold shrinks
    geometrically, so a budget of 100 rounds is generous.

    ``counts`` gives the positive number of copies of each row of ``G``, as
    for the frequency-weighted problem of a bootstrap resample (see
    ``standardize``); no counts means one copy of each row. Row i is capped
    at ``counts[i] * threshold`` until ``w_i <= counts[i] * (threshold +
    1e-10)``: a unit's weight is the total of its copies', so the cap
    applies per copy, and the threshold must be at least 1/sum(counts).

    Raises:
        ThresholdInfeasible: threshold not finite or below 1/sum(counts) (no
            weight vector summing to one can satisfy the cap), or the cap is
            still exceeded after the round budget of re-solves.
        NotConverged: ``weights`` or a round stopped at the iteration limit;
            the first such error, carrying the capped weights.
        ValueError: ``weights`` and ``G`` differ in their number of units,
            or ``counts`` are invalid (see ``check_counts``) or not positive.
    """
    G = _balance_matrix(G)
    if weights.n != G.shape[0]:
        raise ValueError(f"weights have length {weights.n}, but G has {G.shape[0]} rows")
    _, counts = check_counts(counts, weights.n, positive=True)
    check_threshold(threshold, int(counts.sum()))

    failure = None if weights.converged else NotConverged(weights)
    current = weights
    rounds = 0
    iterations = weights.iterations
    # The caps are recomputed per round, not kept: at large n an n-vector
    # alive through every re-solve would raise the peak memory.
    while (current.weights > counts * (threshold + 1e-10)).any():
        if rounds == _MAX_ROUNDS:
            share = float((current.weights / counts).max())
            raise ThresholdInfeasible(
                f"max weight share {share!r} still exceeds threshold "
                f"{threshold} after {rounds} rebalancing rounds"
            )
        capped = np.minimum(current.weights, counts * threshold)
        capped = capped / capped.sum()
        try:
            current, _ = solve(G, base_weights=capped)
        except NotConverged as err:
            current, failure = err.weights, failure or err
        iterations += current.iterations
        rounds += 1
    if current is not weights:
        current = replace(
            current, gamma=weights.gamma, converged=failure is None, iterations=iterations
        )
    if failure is not None:
        failure.weights = current
        raise failure
    return current
