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

Truncation caps every weight, w_i <= u_i. The problem stays convex, and the
same Newton kernel solves its dual over the normalization multiplier eta
and gamma, which is no longer eliminated in closed form (the bounded-weights
form of stable balancing weights, Zubizarreta 2015). When no weights meet
the cap, a Newton direction that passes Farkas' test for the box proves it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from numpy.linalg import _umath_linalg

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

# Relative rounding margin a Farkas certificate of an infeasible cap must clear.
_CERTIFICATE_TOLERANCE = 1e-9

# Rows per block of the Hessian's weighted product: no n x m temporary at
# any n, and a block x m product small enough to stay in cache.
_HESSIAN_ROWS = 2048

# Rows of whole problems a stacked Newton run takes at once in the Hessian.
# The run holds the whole stack already, so its working memory beside it is
# kept a few such blocks.
_STACK_ROWS = 512

# Rounds of candidates ``cap_weights`` takes before it sorts every share.
# Caps of 1.5/n and above took at most five rounds on the generated
# 100k-row inputs; closer to 1/n, where most units are capped, rounds of
# nearly every share cost more than one full sort.
_CAP_ROUNDS = 5

_OVERFLOW = "dual exponent overflowed; multipliers are pathological"


def _prepare_base_weights(n: int, base_weights, name="base_weights") -> np.ndarray:
    """Validated positive finite weights of n rows, as floats.

    Uniform weights come back as one entry, a (1,) row that broadcasts over
    the rows: None (1/n each), a zero-stride broadcast of one value, and a
    vector whose entries are all equal. Otherwise the n-vector.
    """
    if base_weights is None:
        return np.array([1.0 / n])
    q = np.asarray(base_weights)
    if q.size != n:
        raise ValueError(f"{name} has length {q.size}, expected {n}")
    if n and not any(q.strides):
        q = q.reshape(-1)[:1]  # one value, never converted n times over
    q = np.ravel(q.astype(float, copy=False))
    low, high = q.min(), q.max()
    # A minimum that is not above zero is zero, negative or NaN.
    if not (low > 0 and high < np.inf):
        raise ValueError(f"{name} must be strictly positive and finite")
    return q[:1] if low == high else q


def _dual_state(G, log_q, theta, u=None) -> tuple:
    """Dual value, implied weights and gradient for every problem of a stack.

    ``G`` is a (B, n, m) stack of balance-column matrices and ``log_q`` the
    (B, n) log base weights, or a (B, 1) column when each problem's are
    uniform. Without ``u``, ``theta`` holds the (B, m)
    multipliers gamma, and the values are J(gamma), the weights
    w_i = q_i e^{gamma.g_i} / Z and the gradients G'w; the max-shift keeps
    every finite exponent representable. With ``u``, (B, n) per-row weight
    caps or a (B, 1) column of uniform ones, ``theta`` holds (eta, gamma) as
    (B, m+1) and the values are those of the capped dual

        F(theta) = sum_i psi_i(s_i) - eta,  s_i = log q_i + eta + gamma.g_i,

    where psi_i(s) is e^s up to log u_i and continues along its tangent, so
    w_i = min(u_i, e^{s_i}) and the gradient is [sum w - 1, G'w]. Also
    returns a (B,) flag that is False where an exponent is not finite; rows
    flagged False carry meaningless numbers.
    """
    gamma = theta if u is None else theta[:, 1:]
    s = np.empty(G.shape[:2])
    np.matmul(G, gamma[:, :, None], out=s[:, :, None])
    s += log_q
    if u is not None:
        s += theta[:, :1]
    finite = np.isfinite(s).all(axis=1)
    if not finite.all():
        s[~finite] = 0.0
    if u is None:
        top = s.max(axis=1, keepdims=True)
        s -= top
        np.exp(s, out=s)
        total = s.sum(axis=1)
        s /= total[:, None]
        value = top[:, 0] + np.log(total)
        return value, s, (s[:, None, :] @ G)[:, 0, :], finite
    log_u = np.log(u)
    at_cap = s >= log_u
    # The tangent terms u_i (s_i - log u_i) of the rows at their cap, summed
    # in s's own buffer: the state keeps no n-vector beyond its weights.
    np.subtract(s, log_u, out=s, where=at_cap)
    np.multiply(s, u, out=s, where=at_cap)
    tangents = np.sum(s, axis=1, where=at_cap)
    # Rows at their cap get u itself below; zero keeps their exponent finite.
    np.copyto(s, 0.0, where=at_cap)
    np.exp(s, out=s)
    # e^s rounds either way just below log u: no row exceeds its cap.
    np.minimum(s, u, out=s)
    np.copyto(s, u, where=at_cap)
    total = s.sum(axis=1)
    value = total + tangents - theta[:, 0]
    grad = np.concatenate([(total - 1.0)[:, None], (s[:, None, :] @ G)[:, 0, :]], axis=1)
    return value, s, grad, finite


def _hessian(G, w, grad, u=None) -> np.ndarray:
    """Hessian of the dual, (B, m, m), or (B, m+1, m+1) under per-row caps ``u``.

    Without caps it is the weighted covariance of the balance columns,
    sum_i w_i g_i g_i' - grad grad'. With caps it sums
    [1, g_i][1, g_i]' w_i over the rows below their cap only. Each problem's
    Hessian depends on its own rows alone. The m x m products
    sum_i w_i g_i g_i' are taken over blocks of whole problems, at most
    ``_STACK_ROWS`` rows in all, and a problem of more than
    ``_HESSIAN_ROWS`` rows is summed over blocks of that many rows. The
    working memory beyond G is one block x m product and a few n-vectors
    per problem, however large B or n grows, and each problem of at most
    ``_HESSIAN_ROWS`` rows gets its own one-shot product bit for bit. A
    column whose square overflows leaves inf or NaN entries, which the
    Newton driver, under its own ``np.errstate``, reports as a typed error
    when that problem is still running.
    """
    B, n, m = G.shape
    if u is not None:
        free = w < u
        # The border sum_i w_i [1, g_i] over the free rows, before the blocks'
        # buffer exists: its n-vector of free weights is the larger temporary.
        hessian = np.empty((B, m + 1, m + 1))
        hessian[:, 0, 0] = np.sum(w, axis=1, where=free)
        hessian[:, 0, 1:] = hessian[:, 1:, 0] = (np.where(free, w, 0.0)[:, None, :] @ G)[:, 0, :]
    span, rows = max(1, _STACK_ROWS // n), min(n, _HESSIAN_ROWS)
    buffer = np.empty((min(B, span), rows, m))
    products = None if B <= span else np.empty((B, m, m))
    for first in range(0, B, span):
        problems = slice(first, first + span)
        for start in range(0, n, rows):
            g = G[problems, start : start + rows]
            block = buffer[: g.shape[0], : g.shape[1]]
            np.multiply(g, w[problems, start : start + rows, None], out=block)
            if u is not None:
                block[~free[problems, start : start + rows]] = 0.0
            product = block.transpose(0, 2, 1) @ g
            if start == 0:
                total = product
            else:
                total += product
        if u is None:
            total -= grad[problems, :, None] * grad[problems, None, :]
        if products is None:
            products = total
        else:
            products[problems] = total
    if u is None:
        return products
    hessian[:, 1:, 1:] = products
    return hessian


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


def recover_weights(gamma, G, base_weights=None) -> np.ndarray:
    """Weights implied by the multipliers: w_i = q_i e^{gamma.g_i} / Z.

    Strictly positive and normalized to sum one; any constant factor on the
    base weights cancels.
    """
    G = _balance_matrix(G)
    q = _prepare_base_weights(G.shape[0], base_weights)
    gamma = np.asarray(gamma, dtype=float).reshape(1, -1)
    _, w, _, finite = _dual_state(G[None], np.log(q)[None], gamma)
    if not finite[0]:
        raise NonFiniteDual(_OVERFLOW)
    return w[0]


def _linalg_error(*_) -> None:
    raise np.linalg.LinAlgError


def _lapack(kernel, *operands) -> np.ndarray:
    """numpy's LAPACK gufunc ``kernel`` on float operands, as
    ``np.linalg.cholesky`` and ``np.linalg.solve`` call it: the same kernel
    under the same error state, which raises ``LinAlgError`` when a
    factorization fails, so its results are theirs bit for bit. Their
    argument checks are left out; on the small systems of a lone Newton
    step or fit they cost as much as the kernel. No other module imports
    numpy's private ``_umath_linalg``: they call ``_cholesky`` and ``_solve``."""
    with np.errstate(
        call=_linalg_error, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        return kernel(*operands, signature="d" * len(operands) + "->d")


def _cholesky(a) -> np.ndarray:
    """``np.linalg.cholesky(a)`` of a float (..., m, m) stack (see ``_lapack``)."""
    return _lapack(_umath_linalg.cholesky_lo, a)


def _solve(a, b) -> np.ndarray:
    """``np.linalg.solve(a, b)`` of float stacks, ``b`` of columns (see ``_lapack``)."""
    return _lapack(_umath_linalg.solve, a, b)


def _newton_directions(hessian, grad) -> np.ndarray:
    """Newton directions -H^{-1} g for a (B, m, m) stack, as (B, m).

    One stacked Cholesky certifies every Hessian positive definite, then one
    stacked solve gives every direction (see ``_lapack``). numpy passes NaN
    and inf through its Cholesky without raising, so a Hessian that is not
    finite counts as singular. numpy raises for the whole stack when one
    factorization fails; only then is each Hessian taken alone, to raise
    the ``SingularHessian`` of the first that has no factor.
    """
    try:
        if np.isfinite(hessian).all():
            _cholesky(hessian)
            return -_solve(hessian, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    for h in hessian:
        try:
            if np.isfinite(h).all():
                _cholesky(h)
                continue
        except np.linalg.LinAlgError:
            pass
        raise _singular(h)


def _certifies(G, u, r) -> bool:
    """Whether r = (r_0, r_gamma) proves that no weights 0 <= w <= u balance G.

    Weights with sum w = 1 and G'w = 0 give r_0 = sum_i w_i (r_0 + r_gamma.g_i),
    at most sum_i u_i max(0, r_0 + r_gamma.g_i) when 0 <= w <= u (Farkas'
    lemma for a box). So r certifies infeasibility when r_0 exceeds that
    bound, by more than a rounding margin relative to
    sum_i u_i |r_0 + r_gamma.g_i|. ``u`` is the n-vector of caps or a (1,)
    row of one uniform cap.
    """
    t = G @ r[1:]
    t += r[0]
    t *= u
    # sum max(0, t) = (sum t + sum |t|) / 2, whose rounding, a few ulps of
    # sum |t|, is far inside the margin.
    total = t.sum()
    size = np.abs(t, out=t).sum()
    bound = 0.5 * (total + size)
    return bool(r[0] - bound > _CERTIFICATE_TOLERANCE * size)


@np.errstate(over="ignore", invalid="ignore")
def _newton(G, log_q, start: np.ndarray, u=None) -> tuple:
    """Damped Newton on every problem of a (B, n, m) stack at once.

    Each problem keeps its own row, phase, step size, trace and iteration
    count, and reaches exactly the iterates it would reach alone: every
    stacked operation acts row by row, and numpy's linear algebra factors
    each Newton system of the stack by itself. Each problem's policy
    (stopping test, phase, Armijo test, step size, multiplier bound) runs on
    Python floats taken out of the stack once per line-search round. A
    problem that finishes keeps its row at its last iterate: the stacked
    operations recompute it bit for bit, and only the Newton systems and
    steps of the problems still running are taken. ``log_q`` holds the
    (B, n) log base weights, each row normalized to sum one before the log,
    or a (B, 1) column of them when each problem's are uniform. Every
    problem starts at the m-vector ``start``. With caps ``u``, (B, n) per
    row or a (B, 1) column of uniform ones, the problems are the capped
    duals of ``_dual_state``, each started at (-J(start), start), which are
    the uncapped weights of ``start``. Overflows warn of nothing: they
    surface as typed errors.

    Returns ``(weights, gamma, iterations, norms, traces)`` at each
    problem's last iterate: the read-only (B, n) weights and (B, m)
    multipliers gamma, and per problem its iteration count, final gradient
    norm and list of accepted dual values. A problem that stops short of the
    gradient tolerance keeps its last iterate. Any other failure stops the
    whole run at once and raises the error that problem raises alone.
    """
    B = len(G)
    theta = np.tile(start, (B, 1))
    if u is not None:
        theta = np.column_stack([-_dual_state(G, log_q, theta)[0], theta])
    value, w, grad, finite = _dual_state(G, log_q, theta, u)
    if not finite.all():
        raise NonFiniteDual(_OVERFLOW)
    value, norm = value.tolist(), np.abs(grad).max(axis=1, initial=0.0).tolist()
    traces = [[v] for v in value]
    iterations = [0] * B
    stopped = [False] * B
    live = list(range(B))  # problems still running, increasing
    ridge = _RIDGE * np.eye(theta.shape[1])

    def certify(b, r) -> None:
        if _certifies(G[b], u[b], r):
            raise ThresholdInfeasible(
                "no weights at or below the cap balance the sample (Farkas certificate verified)",
                certificate=r,
            )

    def capped_failure(b) -> None:
        # A capped problem that stops short of its optimum: certified
        # infeasible by the Newton direction at its last iterate, or not.
        rows = slice(b, b + 1)
        hessian = _hessian(G[rows], w[rows], grad[rows], u[rows])
        hessian += ridge
        try:
            certify(b, _newton_directions(hessian, grad[rows])[0])
        except SingularHessian:  # no direction, so no certificate
            pass
        if not w[b].min() > 0:
            raise NonFiniteDual("a capped weight underflowed to zero")

    def retire(problems) -> None:
        for b in problems:
            if u is not None and not (norm[b] <= _GRADIENT_TOLERANCE and w[b].min() > 0):
                capped_failure(b)
            if not w[b].min() > 0:
                raise InfeasibleConstraints(
                    "a weight underflowed to zero; the balance constraints admit no "
                    "strictly positive weights at float precision"
                )

    for _ in range(_MAX_ITERATIONS):
        leaving = [stopped[b] or norm[b] <= _GRADIENT_TOLERANCE for b in live]
        if any(leaving):
            retire([b for b, gone in zip(live, leaving) if gone])
            live = [b for b, gone in zip(live, leaving) if not gone]
            if not live:
                break

        hessian = _hessian(G, w, grad, u)[live]
        hessian += ridge
        direction = np.zeros_like(theta)
        direction[live] = _newton_directions(hessian, grad[live])
        del hessian  # before the next iteration's
        if u is not None:
            # Every Newton direction of a capped problem is a candidate
            # certificate of infeasibility, and checking one is cheap.
            for b in live:
                certify(b, direction[b])
        slope = (grad * direction).sum(axis=1).tolist()

        # Local phase: the certifiable Armijo decrease (half the Newton
        # decrement squared) is below the objective's float resolution, so
        # objective comparisons are pure noise. Take the full Newton step as
        # long as it shrinks the gradient.
        local = [-s <= 1e-13 * (1.0 + abs(v)) for s, v in zip(slope, value)]
        step = [1.0] * B
        searching = live
        while searching:
            move = direction[searching] * np.array(step)[searching, None]
            candidate = theta.copy()
            candidate[searching] += move
            c_value, c_w, c_grad, c_finite = _dual_state(G, log_q, candidate, u)
            if not c_finite[searching].all():
                raise NonFiniteDual(_OVERFLOW)
            c_values, c_norms = c_value.tolist(), np.abs(c_grad).max(axis=1).tolist()
            # Euclidean norms as np.linalg.norm takes them, without its overhead.
            sizes = np.vecdot(candidate, candidate).tolist()
            accepted, retry = [], []
            for b in searching:
                if local[b]:
                    ok = c_norms[b] < norm[b]
                else:
                    ok = c_values[b] <= value[b] + _ARMIJO_C * step[b] * slope[b]
                    if not ok:
                        step[b] *= _SHRINK
                        if step[b] >= _MIN_STEP:
                            retry.append(b)
                            continue
                if not ok:
                    # No acceptable step: the numerical floor is reached and
                    # the final gradient check decides.
                    stopped[b] = True
                    continue
                accepted.append(b)
                value[b], norm[b] = c_values[b], c_norms[b]
                iterations[b] += 1
                traces[b].append(c_values[b])
                if math.sqrt(sizes[b]) > _GAMMA_BOUND:
                    # A capped problem that diverges is judged by its
                    # certificate instead, as its uncapped problem solved.
                    if u is None:
                        raise InfeasibleConstraints(
                            "dual multipliers diverged; the balance constraints admit no "
                            "strictly positive weights"
                        )
                    stopped[b] = True
            if len(accepted) == len(searching):
                # Every problem that moved is accepted, and the rows that did
                # not move are recomputed bit for bit: the candidate state is
                # the state.
                theta, w, grad = candidate, c_w, c_grad
            elif accepted:
                theta[accepted], w[accepted], grad[accepted] = (
                    a[accepted] for a in (candidate, c_w, c_grad)
                )
            # Free the candidate's weights before the next candidate is built.
            del c_w
            searching = retry
    else:
        retire(live)
    if u is not None:
        w /= w.sum(axis=1, keepdims=True)
    w.setflags(write=False)
    theta.setflags(write=False)
    return w, theta if u is None else theta[:, 1:], iterations, norm, traces


def _prepare_start(m: int, start) -> np.ndarray:
    if start is None:
        return np.zeros(m)
    gamma = np.asarray(start, dtype=float)
    if gamma.shape != (m,):
        raise ValueError(f"start has shape {gamma.shape}, expected ({m},)")
    if not np.isfinite(gamma).all():
        raise ValueError("start must be finite")
    return gamma


def _run(G, base_weights, start, cap) -> tuple:
    """Check a stack's inputs and run ``_newton`` on it (see ``solve_batch``)."""
    if len(G) == 0:
        raise ValueError("the stack holds no problems")
    try:
        G = np.asarray(G, dtype=float)
    except ValueError:  # matrices of unequal shapes
        raise ValueError("stacked problems must share n and K") from None
    if G.ndim != 3:
        raise ValueError(f"stacked problems must be n x m matrices, got a {G.ndim}-d stack")
    B, n, m = G.shape
    if n == 0:
        raise ValueError("the balance-column matrix is empty: it has no rows to weight")
    if base_weights is None:
        base_weights = [None] * B
    elif len(base_weights) != B:
        raise ValueError(f"got {len(base_weights)} base weight vectors for {B} problems")
    if cap is not None:
        if len(cap) != B:
            raise ValueError(f"got {len(cap)} cap vectors for {B} problems")
        cap = [_prepare_base_weights(n, u, "cap") for u in cap]
        # One problem's cap stays a view of the caller's vector, as G does.
        cap = cap[0][None] if B == 1 else np.stack(np.broadcast_arrays(*cap))
    gamma = _prepare_start(m, start)
    q = [_prepare_base_weights(n, bw) for bw in base_weights]
    log_q = np.array(q[0], ndmin=2) if B == 1 else np.stack(np.broadcast_arrays(*q))
    # A uniform row's total is the pairwise sum of its n equal entries.
    log_q /= np.broadcast_to(log_q, (B, n)).sum(axis=1, keepdims=True)
    np.log(log_q, out=log_q)
    return _newton(G, log_q, gamma, cap)


def _weighting(weights, gamma, iterations, norms, converged) -> BalancingWeights:
    return BalancingWeights(
        weights=weights,
        gamma=gamma,
        converged=converged,
        iterations=iterations,
        final_gradient_norm=norms,
        method_tag="ebct",
    )


def solve_batch(matrices, base_weights=None, start=None, cap=None) -> tuple:
    """Solve many same-shape problems in one stacked Newton run.

    ``matrices`` is the B x n x m stack of balance-column matrices that
    ``standardize`` returns for B datasets, or a sequence of B n x m
    matrices; a stack is used as it is, without a copy. ``base_weights`` is
    None (uniform for every problem) or one entry per matrix, each None or a
    positive vector. ``start`` is the m-vector of multipliers every
    problem's Newton run starts from; None starts at zero. The dual is
    convex, so the start changes how many steps a problem takes, not the
    optimum it reaches (beyond the gradient tolerance); each trace begins at
    the dual value at the start. ``cap`` is None or one positive n-vector
    per matrix of upper bounds on the weights (see ``solve``); one
    problem's cap and base weights are used without a broadcast or stack.
    Uniform base weights or caps (no base weights, a zero-stride broadcast,
    or equal entries) enter the kernel as one broadcast entry per problem,
    not as n of them. Each Newton iteration factors and solves the Newton
    systems of the problems still running in one numpy call, and each
    problem's stopping test, Armijo test and step size run on Python
    floats. The stack is never copied: the Hessians are taken in blocks of
    whole problems of at most ``_STACK_ROWS`` rows, so the working memory
    beside the stack is a few such blocks, the (B, m, m) Hessians and a few
    B x n arrays of weights. Each problem's weights, iterations and trace
    are exactly those ``solve`` gives it alone from the same start: both
    run the same checks and the same Newton driver, ``solve`` on a stack of
    one.

    Returns:
        ``(weights, traces)``: one stacked ``BalancingWeights`` of the B
        problems (``weights.row(b)`` is problem b's) and per problem the
        list of accepted dual values from the start on.

    Raises:
        The error ``solve`` raises for a problem that fails, which fails the
        whole stack; a ``NotConverged`` carries that problem's weights.
        ValueError: the stack is empty or shapes disagree, the matrices
            have no rows, ``start`` is not a finite m-vector, or a cap is
            not a positive finite n-vector.
    """
    weights, gamma, iterations, norms, traces = _run(matrices, base_weights, start, cap)
    stalled = [b for b, norm in enumerate(norms) if not norm <= _GRADIENT_TOLERANCE]
    weights = _weighting(weights, gamma, iterations, norms, not stalled)
    if stalled:
        raise NotConverged(weights.row(stalled[0]))
    return weights, traces


def solve(G: np.ndarray, base_weights=None, start=None, cap=None) -> tuple:
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
    one-problem case of ``solve_batch``: the same checks and Newton driver
    on a stack of one, whose row 0 is the result. Its weights and gamma are
    views of that stack, and one ``BalancingWeights`` is built per solve.

    ``cap`` is None or a positive n-vector u of upper bounds on the weights.
    With it the solver minimizes the same divergence subject to w_i <= u_i
    as well. That is still one convex dual, over the normalization
    multiplier eta and gamma, whose weights are w_i = min(u_i, q_i
    e^{eta + gamma.g_i}); it starts at eta = -J(start), which are the
    uncapped weights of ``start``. The Hessian sums over the rows below
    their cap only. The returned weights are the last iterate's w / sum(w),
    which meet the cap up to the gradient tolerance, and ``gamma`` is its
    gamma part; ``truncate_and_rebalance`` derives from that gamma weights
    exactly at or below the cap.

    Returns:
        (BalancingWeights, trace): the weights, which record convergence,
        iterations and the final gradient norm, and the list of accepted
        dual values, starting at the dual value at the start.

    Raises:
        NotConverged: the gradient tolerance was not reached (iteration
            limit, or no acceptable step); the exception carries the last
            iterate's weights for callers that want to accept them.
        InfeasibleConstraints: without a cap, the dual diverged or a weight
            underflowed to zero, meaning no strictly positive weights satisfy
            the constraints.
        ThresholdInfeasible: under a cap, a Newton direction is a Farkas
            certificate r (the exception's
            ``certificate``) that no weights within the cap satisfy the
            constraints: r_0 > sum_i u_i max(0, r_0 + r_gamma.g_i).
        NonFiniteDual: an exponent overflowed, or, under a cap, a weight
            underflowed without a certificate.
        SingularHessian: a Hessian is not finite (a balance column overflows
            when squared), or has no Cholesky factor at float precision
            despite the ridge (collinear balance columns).
        ValueError: ``G`` has no rows, ``start`` is not a finite m-vector,
            or ``cap`` is not a positive finite n-vector.
    """
    # G[None] is a view: at large n a copy of G would double peak memory.
    cap = None if cap is None else [cap]
    weights, gamma, (iterations,), (norm,), (trace,) = _run(
        _balance_matrix(G)[None], [base_weights], start, cap
    )
    weights = _weighting(weights[0], gamma[0], iterations, norm, norm <= _GRADIENT_TOLERANCE)
    if not weights.converged:
        raise NotConverged(weights)
    return weights, trace


def check_threshold(threshold: float, n: int) -> None:
    """Raise ThresholdInfeasible unless n weights summing to one fit under a finite cap."""
    if not np.isfinite(threshold):
        raise ThresholdInfeasible(f"threshold {threshold} is not a finite weight share")
    if threshold < 1.0 / n:
        raise ThresholdInfeasible(f"threshold {threshold} is below 1/n = {1.0 / n}")


def cap_weights(weights: BalancingWeights, threshold: float, counts=None) -> BalancingWeights:
    """Cap weights at a threshold, renormalizing the rest in proportion.

    Plain capping without re-solving any constraints: IPW's truncation, and
    the last step of ``truncate_and_rebalance``, which needs it to put the
    capped dual's iterate exactly at or below its cap. The result is the
    fixed point of repeated cap-and-renormalize, computed in closed form:
    the largest units sit exactly at the cap and the others keep their
    ratios. ``counts`` gives each unit's positive number of copies, as in a
    bootstrap resample; no counts means one copy of each unit. The cap
    applies per copy, so unit i is capped at ``counts[i] * threshold``, and
    the threshold must be at least 1/N for N = sum(counts).

    Raises:
        ThresholdInfeasible: threshold not finite or below 1/N.
        ValueError: ``counts`` are invalid or not all positive.
    """
    capped = _cap(weights.weights, threshold, counts)
    return weights if capped is None else replace(weights, weights=capped)


def _cap(w, threshold: float, counts) -> np.ndarray | None:
    """``cap_weights`` of the weight vector ``w``: the capped weights, as a
    read-only row of a read-only stack, which ``BalancingWeights`` keeps
    uncopied, or None when no share exceeds the threshold."""
    _, copies = check_counts(counts, w.size, positive=True)
    total = int(copies.sum())
    check_threshold(threshold, total)
    share = w if counts is None else w / copies
    if share.max() <= threshold:
        return None
    if threshold == 1.0 / total:
        # Only every unit at its cap sums to one; scaling a last unit by the
        # mass the others leave would miss its cap by rounding.
        capped, scale = slice(None), 0.0
    else:
        capped, held = _capped_units(w, share, copies, threshold)
        rest = np.ones(w.size, dtype=bool)
        rest[capped] = False
        # Pairwise over the rest in unit order, before the result is allocated.
        scale = (1.0 - held * threshold) / w[rest].sum()
        del rest
    out = np.empty((1, w.size))
    np.multiply(w, scale, out=out[0])
    out[0, capped] = copies[capped] * threshold
    out.setflags(write=False)
    return out[0]


def _capped_units(w, share, copies, threshold) -> tuple:
    """The units ``cap_weights`` caps, as indices, and their copies in all.

    Capping the units of the k largest shares scales the rest by
    (1 - (their copies) threshold) / (their sum); the smallest k that leaves
    the largest remaining share at or below the cap is the fixed point.
    Copies of one unit pass or fail that test together. Each round sorts
    only the units above a bound and sums the rest. When no k among them
    fits, every unit above threshold / scale, the scale of capping them all,
    is capped at the fixed point too, so that is the next bound; after
    ``_CAP_ROUNDS`` such rounds the bound drops below every share.
    """
    bound, rounds = threshold, 0
    while True:
        below = share <= bound
        top = np.flatnonzero(~below)
        top = top[np.argsort(-share[top], kind="stable")]
        # The rest's totals, pairwise over the units below the bound and then
        # from the smallest share up: no total minus a partial sum.
        tails = np.cumsum(np.concatenate(([np.add.reduce(w, where=below)], w[top][::-1])))[::-1]
        held = np.concatenate(([0], np.cumsum(copies[top])))
        # The last test is of the largest share below the bound.
        shares = np.append(share[top], np.max(share, where=below, initial=0.0))
        fits = shares * (1.0 - held * threshold) <= threshold * tails
        if top.size == w.size:
            fits[-2] = True  # one unit is always left to scale
        if fits.any():
            k = int(np.argmax(fits))
            return top[:k], held[k]
        rounds += 1
        free = 1.0 - held[-1] * threshold
        bound = threshold * tails[-1] / free if free > 0 and rounds < _CAP_ROUNDS else -np.inf


def truncate_and_rebalance(
    G: np.ndarray,
    weights: BalancingWeights,
    threshold: float,
    counts=None,
) -> BalancingWeights:
    """Entropy-balancing weights with no weight share above the threshold.

    Minimizes the divergence from the base weights subject to the balance
    constraints and w_i <= counts[i] * threshold, as one capped dual solve
    (see ``solve``) started at the multipliers of ``weights``, which are the
    untruncated weights, converged or not. The closed form of
    ``cap_weights`` applied to the uncapped weights of the solve's gamma
    then gives weights exactly at or below the cap, summing to one, for a
    converged or unconverged solve alike. Weights already at or below the
    cap are returned as they are. The result keeps the untruncated ``gamma`` of ``weights``,
    the bootstrap's warm start; its ``iterations`` are the Newton steps of
    the untruncated solve plus those of the capped one.

    ``counts`` gives the positive number of copies of each row of ``G``, as
    for the frequency-weighted problem of a bootstrap resample (see
    ``resample``); no counts means one copy of each row. A unit's weight
    is the total of its copies', so the cap applies per copy, and the
    threshold must be at least 1/sum(counts).

    Raises:
        ThresholdInfeasible: threshold not finite or below 1/sum(counts),
            or no weights within the cap satisfy the balance constraints,
            proven by a Farkas certificate that the exception carries.
        NotConverged: ``weights`` or the capped solve stopped short of the
            gradient tolerance without a certificate; the first such error,
            carrying the capped weights.
        NonFiniteDual: the capped solve overflowed or underflowed a weight.
        ValueError: ``weights`` and ``G`` differ in their number of units,
            or ``counts`` are invalid (see ``check_counts``) or not positive.
    """
    G = _balance_matrix(G)
    if weights.n != G.shape[0]:
        raise ValueError(f"weights have length {weights.n}, but G has {G.shape[0]} rows")
    _, copies = check_counts(counts, weights.n, positive=True)
    check_threshold(threshold, int(copies.sum()))
    # Without counts the copies are a zero-stride view of ones, and so the
    # cap is one of the threshold: no n-vector holds either.
    cap = np.broadcast_to(threshold, copies.shape) if counts is None else copies * threshold
    if (weights.weights <= cap).all():
        if not weights.converged:
            raise NotConverged(weights)
        return weights
    # The capped solve needs only the multipliers, step count and
    # convergence of the untruncated weights, so their n-vector is let go
    # before it: when the caller holds no other reference, as
    # ``estimate_weights`` holds none, truncation peaks no higher than the
    # untruncated solve.
    start, iterations = weights.gamma, weights.iterations
    failure = None if weights.converged else NotConverged(weights)
    if failure is not None:
        failure.weights = None  # the truncated weights, below
    del weights
    try:
        capped, _ = solve(G, base_weights=copies, start=start, cap=cap)
    except NotConverged as err:
        capped, failure = err.weights, failure or err
    except ThresholdInfeasible as err:
        raise ThresholdInfeasible(
            f"threshold {threshold} is infeasible: {err}", certificate=err.certificate
        ) from None
    # Capping the uncapped weights of the solve's gamma in closed form
    # gives min(u, k q e^{gamma.g}) summing to one: the capped optimum's
    # form, exactly at or below the cap. The solve's own weights go first,
    # so that beside G at most two n-vectors are held here.
    gamma, steps, norm = capped.gamma, capped.iterations, capped.final_gradient_norm
    del capped
    uncapped = recover_weights(gamma, G, copies)
    final = _cap(uncapped, threshold, counts)
    result = BalancingWeights(
        weights=uncapped if final is None else final,
        gamma=start,
        converged=failure is None,
        iterations=iterations + steps,
        final_gradient_norm=norm,
        method_tag="ebct",
    )
    if failure is not None:
        failure.weights = result
        raise failure
    return result
