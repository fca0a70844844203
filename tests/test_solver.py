import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize_scalar

from ebct import (
    BalancingWeights,
    Dataset,
    solve,
    solve_batch,
    standardize,
    truncate_and_rebalance,
)
from ebct.errors import (
    EbctError,
    InfeasibleConstraints,
    NonFiniteDual,
    NotConverged,
    SingularHessian,
    ThresholdInfeasible,
)
from ebct import simulation, solver
from ebct.simulation import ScenarioConfig, gen_covariates, gen_treatment, replication_rng
from ebct.solver import cap_weights, recover_weights

from conftest import balance_columns, random_dataset


def two_point_sample():
    # K=0 with balance column g = (-1, 1).
    return balance_columns([-1.0, 1.0], np.empty((2, 0)))


def random_sample(rng, n=30, k=2):
    return standardize(random_dataset(rng, n, k))


def dual_state(gamma, G, base_weights=None) -> tuple:
    """J(gamma) = log sum_i q_i exp(gamma . g_i), its weights and its gradient
    for one n x m matrix, from the solver's stacked kernel; uniform q = 1/n
    without base weights."""
    n = G.shape[0]
    q = np.full(n, 1.0 / n) if base_weights is None else np.asarray(base_weights, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    value, w, grad, finite = solver._dual_state(G[None], np.log(q)[None], gamma[None])
    assert finite[0]
    return float(value[0]), w[0], grad[0]


def dual_value(gamma, G, base_weights=None) -> float:
    return dual_state(gamma, G, base_weights)[0]


def dual_gradient(gamma, G) -> np.ndarray:
    return dual_state(gamma, G)[2]


def dual_hessian(gamma, G) -> np.ndarray:
    """The m x m Hessian of J at gamma, from the solver's stacked kernel."""
    _, w, grad = dual_state(gamma, G)
    return solver._hessian(G[None], w[None], grad[None])[0]


def finite_difference_gradient(fun, gamma, step=1e-6):
    grad = np.zeros_like(gamma)
    for j in range(gamma.size):
        up, down = gamma.copy(), gamma.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (fun(up) - fun(down)) / (2 * step)
    return grad


def kl_divergence(w, q):
    return float(np.sum(w * np.log(w / q)))


def feasible_affine_basis(matrix, target=None):
    """Particular solution and null-space basis of {w : [1, G]'w = target}.

    The default target is (1, 0, ..., 0): sum w = 1 and G'w = 0.
    """
    n = matrix.shape[0]
    constraints = np.column_stack([np.ones(n), matrix]).T
    if target is None:
        target = np.zeros(constraints.shape[0])
        target[0] = 1.0
    particular, *_ = np.linalg.lstsq(constraints, target, rcond=None)
    _, singular, vt = np.linalg.svd(constraints)
    rank = int(np.sum(singular > 1e-12 * singular[0]))
    return particular, vt[rank:].T


def brute_force_weights(matrix, tol=1e-12):
    """Search the feasible affine set directly for the entropy minimum.

    Independent of the dual path: parameterizes all weight vectors meeting
    the constraints, then minimizes sum w log(n w) by bounded line searches
    over the one or two free coordinates (infinite outside positivity).
    """
    n = matrix.shape[0]
    particular, null_basis = feasible_affine_basis(matrix)
    free = null_basis.shape[1]
    assert free in (1, 2), "brute force oracle covers n <= 6, K = 1 instances"

    def entropy_at(coords):
        w = particular + null_basis @ np.asarray(coords)
        if np.any(w <= 0):
            return np.inf
        return float(np.sum(w * np.log(n * w)))

    def interval(direction, origin):
        # Positivity bounds for origin + alpha * direction > 0.
        lo, hi = -np.inf, np.inf
        for d, w in zip(direction, origin):
            if d > tol:
                lo = max(lo, -w / d)
            elif d < -tol:
                hi = min(hi, -w / d)
        return lo, hi

    if free == 1:
        direction = null_basis[:, 0]
        lo, hi = interval(direction, particular)
        res = minimize_scalar(
            lambda a: entropy_at([a]),
            bounds=(lo + 1e-9, hi - 1e-9),
            method="bounded",
            options={"xatol": 1e-13},
        )
        coords = np.array([res.x])
    else:
        coords = np.zeros(2)
        if not np.isfinite(entropy_at(coords)):
            coords = np.zeros(2)  # particular solution itself must be interior
        for _ in range(200):
            for axis in range(2):
                origin = particular + null_basis @ coords - coords[axis] * null_basis[:, axis]
                lo, hi = interval(null_basis[:, axis], origin)
                fixed = coords.copy()

                def along(a, axis=axis, fixed=fixed):
                    trial = fixed.copy()
                    trial[axis] = a
                    return entropy_at(trial)

                res = minimize_scalar(
                    along, bounds=(lo + 1e-9, hi - 1e-9), method="bounded",
                    options={"xatol": 1e-13},
                )
                coords[axis] = res.x
    return particular + null_basis @ coords


def min_feasible_threshold(G, copies):
    """Smallest per-copy threshold t with some w in [0, copies * t] that meets
    sum w = 1 and G'w = 0: a HiGHS LP over (w, t), independent of the dual."""
    n, m = G.shape
    result = linprog(
        np.r_[np.zeros(n), 1.0],
        A_ub=np.column_stack([np.eye(n), -copies]),
        b_ub=np.zeros(n),
        A_eq=np.column_stack([np.vstack([np.ones(n), G.T]), np.zeros(m + 1)]),
        b_eq=np.r_[1.0, np.zeros(m)],
        method="highs",
    )
    assert result.status == 0, result.message
    return result.x[-1]


def capped_entropy_oracle(G, q, u, target):
    """Minimize KL(w || q) over 0 < w < u with [1, G]'w = target, in the primal.

    A HiGHS LP finds the point of the affine set deepest inside the box; a
    log-barrier Newton method over the null space of the constraints then
    follows the barrier weight down to 1e-15. Independent of the dual path.
    """
    n = G.shape[0]
    A = np.vstack([np.ones(n), G.T])
    deepest = linprog(
        np.r_[np.zeros(n), -1.0],
        A_ub=np.block([[-np.eye(n), np.ones((n, 1))], [np.eye(n), u[:, None]]]),
        b_ub=np.r_[np.zeros(n), u],
        A_eq=np.column_stack([A, np.zeros(A.shape[0])]),
        b_eq=target,
        bounds=(None, None),
        method="highs",
    )
    assert deepest.status == 0 and deepest.x[-1] > 0, deepest.message
    particular, null_basis = feasible_affine_basis(G, target)
    w = particular + null_basis @ (null_basis.T @ (deepest.x[:n] - particular))
    assert np.all(w > 0) and np.all(w < u)

    def barrier(w, mu):
        return np.sum(w * np.log(w / q)) - mu * np.sum(np.log(w) + np.log(u - w))

    mu = 1e-2
    while mu >= 1e-15:
        for _ in range(100):
            grad = null_basis.T @ (np.log(w / q) + 1 - mu / w + mu / (u - w))
            curvature = 1 / w + mu / w**2 + mu / (u - w) ** 2
            hessian = null_basis.T @ (curvature[:, None] * null_basis)
            step_z = -np.linalg.lstsq(hessian, grad, rcond=None)[0]
            decrement = -grad @ step_z
            if decrement < 1e-30:
                break
            step, direction = 1.0, null_basis @ step_z
            while step >= 1e-20:
                candidate = w + step * direction
                if (
                    np.all(candidate > 0)
                    and np.all(candidate < u)
                    and barrier(candidate, mu) <= barrier(w, mu) - 0.25 * step * decrement
                ):
                    break
                step *= 0.5
            else:
                break
            w = candidate
        mu *= 0.1
    return w


def assert_certifies(G, u, r):
    """Check a Farkas certificate of an infeasible cap with compensated sums.

    Weights 0 <= w <= u with sum w = 1 and G'w = 0 would give
    r_0 = sum_i w_i (r_0 + r_gamma.g_i) <= sum_i u_i max(0, r_0 + r_gamma.g_i).
    """
    assert r is not None
    t = r[0] + G @ r[1:]
    bound = math.fsum(u * np.maximum(t, 0.0))
    assert r[0] - bound > 1e-9 * math.fsum(u * np.abs(t))


def benchmark_frame(n, seed):
    """Treatment and ten covariates with moderate selection, as drawn by the
    benchmark's input generator, returned as a Dataset."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
    x = np.empty((n, 10))
    x[:, 0] = rng.uniform(0.0, 4.0, n)
    x[:, 1] = rng.gamma(2.0, 1.0, n)
    x[:, 2] = rng.binomial(1, 0.4, n)
    block = np.full((7, 7), 0.3) + 0.7 * np.eye(7)
    x[:, 3:] = rng.standard_normal((n, 7)) @ np.linalg.cholesky(block).T
    beta = np.array([0.6, 0.4, 0.8, 0.5, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1])
    t = x @ beta + 1.5 * rng.standard_normal(n)
    return Dataset(treatment=t, covariates=x)


class TestDualObjective:

    def test_zero_gamma_uniform_base(self, rng):
        G = random_sample(rng)
        assert dual_value(np.zeros(5), G) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_log_cosh(self):
        # ln(0.5 e^{-1} + 0.5 e^{1}) = ln cosh(1)
        value = dual_value(np.array([1.0]), two_point_sample())
        assert value == pytest.approx(np.log(np.cosh(1.0)), abs=1e-12)
        assert value == pytest.approx(0.43378, abs=1e-5)

    def test_log_sum_exp_lower_bound(self, rng):
        G = random_sample(rng, n=20, k=1)
        q = np.full(20, 0.05)
        gbar = G.T @ q
        for _ in range(10):
            gamma = rng.standard_normal(3)
            assert dual_value(gamma, G, q) >= float(gamma @ gbar) - 1e-12

    def test_no_overflow_with_large_gamma(self):
        # Max-shift keeps huge exponents representable.
        value = dual_value(np.array([500.0]), two_point_sample())
        assert np.isfinite(value)
        assert value == pytest.approx(500.0 + np.log(0.5), rel=1e-12)

    def test_pathological_gamma_raises(self):
        G = two_point_sample()
        *_, finite = solver._dual_state(G[None], np.log(np.full((1, 2), 0.5)), np.array([[np.inf]]))
        assert not finite[0]
        with pytest.raises(NonFiniteDual):
            recover_weights(np.array([np.inf]), G)

    def test_convexity_along_segments(self, rng):
        G = random_sample(rng, n=25, k=2)
        for _ in range(10):
            g1, g2 = rng.standard_normal((2, 5))
            alpha = rng.uniform(0.05, 0.95)
            lhs = dual_value(alpha * g1 + (1 - alpha) * g2, G)
            rhs = alpha * dual_value(g1, G) + (1 - alpha) * dual_value(g2, G)
            assert lhs <= rhs + 1e-10


class TestDualGradient:

    def test_zero_gamma_is_column_means(self, rng):
        G = random_sample(rng, n=40, k=3)
        grad = dual_gradient(np.zeros(7), G)
        npt.assert_allclose(grad, G.mean(axis=0), atol=1e-14)
        npt.assert_allclose(grad[:4], np.zeros(4), atol=1e-12)

    def test_matches_finite_differences(self, rng):
        G = random_sample(rng, n=30, k=2)
        for _ in range(10):
            gamma = rng.uniform(-1.0, 1.0, size=5)
            grad = dual_gradient(gamma, G)
            fd = finite_difference_gradient(lambda g: dual_value(g, G), gamma)
            npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_zero_at_solution(self, rng):
        G = random_sample(rng)
        weights, _ = solve(G)
        grad = dual_gradient(weights.gamma, G)
        assert np.abs(grad).max() <= solver._GRADIENT_TOLERANCE


class TestDualHessian:

    def test_two_point_unit_variance(self):
        hessian = dual_hessian(np.zeros(1), two_point_sample())
        npt.assert_allclose(hessian, [[1.0]], atol=1e-14)

    def test_matches_finite_differences_of_gradient(self, rng):
        G = random_sample(rng, n=20, k=1)
        for _ in range(5):
            gamma = rng.uniform(-0.5, 0.5, size=3)
            hessian = dual_hessian(gamma, G)
            fd = np.column_stack(
                [
                    finite_difference_gradient(
                        lambda g, j=j: dual_gradient(g, G)[j], gamma, step=1e-6
                    )
                    for j in range(3)
                ]
            )
            npt.assert_allclose(hessian, fd, rtol=1e-5, atol=1e-7)

    def test_positive_semidefinite(self, rng):
        G = random_sample(rng, n=25, k=2)
        for _ in range(5):
            gamma = rng.standard_normal(5)
            eigvals = np.linalg.eigvalsh(dual_hessian(gamma, G))
            assert eigvals.min() >= -1e-10


class TestRecoverWeights:

    def test_zero_gamma_returns_base(self, rng):
        G = random_sample(rng, n=15, k=1)
        q = rng.uniform(0.5, 2.0, size=15)
        q = q / q.sum()
        npt.assert_allclose(recover_weights(np.zeros(3), G, q), q, atol=1e-14)

    def test_two_point_closed_form(self):
        # e^{2 gamma} = 3 puts weights (1/4, 3/4) on g = (-1, 1).
        weights = recover_weights(np.array([np.log(3.0) / 2.0]), two_point_sample())
        npt.assert_allclose(weights, [0.25, 0.75], atol=1e-14)

    def test_base_weight_scale_cancels(self, rng):
        G = random_sample(rng, n=15, k=1)
        gamma = rng.standard_normal(3)
        q = rng.uniform(0.5, 2.0, size=15)
        npt.assert_allclose(
            recover_weights(gamma, G, q),
            recover_weights(gamma, G, 7.3 * q),
            atol=1e-14,
        )

    def test_positive_and_normalized(self, rng):
        G = random_sample(rng)
        weights = recover_weights(rng.standard_normal(5), G)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestSolve:

    def test_empty_matrix_is_named(self):
        for G in (np.empty((0, 3)), np.empty((0, 0))):
            with pytest.raises(ValueError, match="balance-column matrix is empty"):
                solve(G)
        with pytest.raises(ValueError, match="balance-column matrix is empty"):
            solve_batch(np.empty((2, 0, 3)))

    def test_presatisfied_constraints_stay_uniform(self):
        # All balance columns have exact zero means, so gamma* = 0.
        G = balance_columns([-1.0, -1.0, 1.0, 1.0], [[-1.0], [1.0], [-1.0], [1.0]])
        npt.assert_array_equal(G.mean(axis=0), np.zeros(3))
        weights, _ = solve(G)
        assert weights.iterations <= 1
        npt.assert_allclose(weights.gamma, np.zeros(3), atol=1e-12)
        npt.assert_allclose(weights.weights, np.full(4, 0.25), atol=1e-12)

    def test_brute_force_oracle_small_instances(self):
        # Free-dimension grid search over the feasible set, entropy objective.
        # Seeds chosen so the optimum sits well inside the positivity boundary.
        for seed, n in [(0, 5), (4, 5), (9, 5), (2, 6), (5, 6), (10, 6)]:
            rng = np.random.default_rng(seed)
            G = random_sample(rng, n=n, k=1)
            weights, _ = solve(G)
            oracle = brute_force_weights(G)
            assert oracle.min() > 1e-3, "instance too close to the boundary"
            npt.assert_allclose(weights.weights, oracle, atol=1e-5)

    def test_strong_selection_kills_correlations(self):
        # Simulated selection data with sigma=2; weighted correlations vanish.
        from ebct import Dataset, balance_report

        rng = replication_rng(99, 0)
        x = gen_covariates(200, rng)
        t = gen_treatment(x, 2.0, rng)
        ds = Dataset(treatment=t, covariates=x)
        weights, _ = solve(standardize(ds))
        assert balance_report(weights, ds).max_abs_correlation < 1e-6

    def test_custom_base_weights_respected(self, rng):
        G = random_sample(rng, n=20, k=1)
        q = rng.uniform(0.5, 2.0, size=20)
        weights, _ = solve(G, base_weights=q)
        npt.assert_allclose(recover_weights(weights.gamma, G, q), weights.weights, atol=1e-14)
        balance = G.T @ weights.weights
        assert np.abs(balance).max() <= 1e-8

    def test_entropy_beats_feasible_perturbations(self, rng):
        G = random_sample(rng, n=20, k=3)
        weights, _ = solve(G)
        w, q = weights.weights, np.full(20, 1.0 / 20)
        baseline = kl_divergence(w, q)
        constraints = np.column_stack([np.ones(20), G])
        for _ in range(100):
            noise = rng.standard_normal(20)
            coef, *_ = np.linalg.lstsq(constraints, noise, rcond=None)
            delta = noise - constraints @ coef
            scale = 0.5 * np.min(w / np.maximum(np.abs(delta), 1e-300))
            perturbed = w + scale * delta
            assert np.all(perturbed > 0)
            assert kl_divergence(perturbed, q) >= baseline - 1e-9

    def test_deterministic_traces(self, rng):
        G = random_sample(rng, n=40, k=2)
        _, first = solve(G)
        _, second = solve(G)
        assert first == second

    def test_trace_non_increasing(self, rng):
        G = random_sample(rng, n=40, k=3)
        _, trace = solve(G)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) <= 1e-12)

    def test_permutation_invariance(self, rng):
        ds = random_dataset(rng, 30, 2)
        perm = rng.permutation(30)
        shuffled_ds = type(ds)(treatment=ds.treatment[perm], covariates=ds.covariates[perm])
        base, _ = solve(standardize(ds))
        shuffled, _ = solve(standardize(shuffled_ds))
        npt.assert_allclose(shuffled.weights, base.weights[perm], atol=1e-8)

    def test_not_converged_carries_last_iterate(self, rng, monkeypatch):
        G = random_sample(rng, n=30, k=2)
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(solver, "_GRADIENT_TOLERANCE", 1e-12)
        with pytest.raises(NotConverged) as excinfo:
            solve(G)
        err = excinfo.value
        assert err.weights.iterations == 1
        assert not err.weights.converged
        assert err.weights.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_constraints_detected(self):
        # Cross-product column is strictly positive: no positive weights can
        # zero its weighted mean, so the dual diverges.
        G = balance_columns([-1.0, 1.0], [[-1.0], [1.0]])
        assert np.all(G[:, 2] > 0)
        with pytest.raises(InfeasibleConstraints):
            solve(G)

    def test_singular_hessian_requires_ridge(self, monkeypatch):
        # Duplicated covariate makes the Hessian singular; only a forced
        # zero ridge surfaces it, the default ridge still converges.
        t = np.array([-1.0, 0.0, 1.0, -1.0, 1.0, 0.0])
        x1 = np.array([1.0, -1.0, 0.0, 0.5, -0.5, 0.0])
        G = balance_columns(t, np.column_stack([x1, x1]))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_RIDGE", 0.0)
            with pytest.raises(SingularHessian, match="collinear"):
                solve(G)
        weights, _ = solve(G)
        assert weights.converged

    def test_non_finite_hessian_names_the_overflowing_column(self, rng):
        # A ridge cannot help here, and the overflow must surface as one
        # typed error, not as RuntimeWarnings.
        G = random_sample(rng) * np.array([1, 1, 1e200, 1, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularHessian, match="balance column 2 overflows when squared"):
                solve(G)


def selected_sample(seed, n=50):
    """Strong selection on a skewed covariate; some seeds are infeasible."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.exponential(1.0, n), rng.standard_normal(n)])
    t = 2.0 * x[:, 0] + x[:, 1] + 0.7 * rng.standard_normal(n)
    from ebct import Dataset

    return standardize(Dataset(treatment=t, covariates=x))


def lone_path(monkeypatch, G, **kwargs) -> tuple:
    """Solve G alone and retrace its Newton path.

    Returns the outcome, ``solve``'s result or its error; per Newton direction
    of a solved problem, whether that step began in the local phase; per
    accepted step, whether it was below 1; and the number of Newton
    directions taken. A step below 1 is an accepted candidate that is not
    the first candidate of its iteration: the full step failed the Armijo
    test first.
    """
    values, slopes = [], []
    real_state, real_directions = solver._dual_state, solver._newton_directions

    def state(*args):
        out = real_state(*args)
        values.append(float(out[0][0]))
        return out

    def directions(hessian, grad):
        out = real_directions(hessian, grad)
        slopes.append(float((grad * out[0]).sum()))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_dual_state", state)
        patch.setattr(solver, "_newton_directions", directions)
        try:
            outcome = solve(G, **kwargs)
        except EbctError as err:
            outcome = err
    trace = [] if isinstance(outcome, Exception) else outcome[1]
    local = [-s <= 1e-13 * (1.0 + abs(v)) for s, v in zip(slopes, trace)]
    shrunk, accepted, first = [], 1, True
    for value in values[1:]:
        if accepted < len(trace) and value == trace[accepted]:
            shrunk.append(not first)
            accepted, first = accepted + 1, True
        else:
            first = False
    return outcome, local, shrunk, len(slopes)


def assert_same_outcome(stacked, alone) -> None:
    """A stacked outcome is the lone one bit for bit, error or result."""
    if isinstance(alone, Exception):
        assert type(stacked) is type(alone) and str(stacked) == str(alone)
        if isinstance(alone, ThresholdInfeasible):
            assert stacked.certificate.tobytes() == alone.certificate.tobytes()
        if isinstance(alone, NotConverged):
            assert_same_outcome((stacked.weights, None), (alone.weights, None))
        return
    (weights, trace), (lone, lone_trace) = stacked, alone
    assert weights.weights.tobytes() == lone.weights.tobytes()
    assert weights.gamma.tobytes() == lone.gamma.tobytes()
    assert weights.converged == lone.converged
    assert weights.iterations == lone.iterations
    assert weights.final_gradient_norm == lone.final_gradient_norm
    assert trace == lone_trace


def lone_outcome(G, **kwargs):
    """``solve``'s result for one problem, or the error it raises."""
    try:
        return solve(G, **kwargs)
    except EbctError as err:
        return err


def assert_stack_matches_lone(matrices, alone, start=None, **per_problem) -> None:
    """``solve_batch`` of ``matrices`` against the lone ``alone`` outcomes.

    ``per_problem`` holds lists of ``base_weights`` or ``cap``, one entry per
    matrix. When some problem fails alone, the whole stack raises that error
    of one of them, bit for bit; the stack of the others then gives each its
    lone result bit for bit, with its trace.
    """
    failures = [outcome for outcome in alone if isinstance(outcome, Exception)]
    if failures:
        with pytest.raises(EbctError) as excinfo:
            solve_batch(matrices, start=start, **per_problem)
        assert any(type(excinfo.value) is type(err) for err in failures)
        assert_same_outcome(
            excinfo.value, next(err for err in failures if str(err) == str(excinfo.value))
        )
    kept = [b for b, outcome in enumerate(alone) if not isinstance(outcome, Exception)]
    if not kept:
        return
    weights, traces = solve_batch(
        [matrices[b] for b in kept],
        start=start,
        **{name: [values[b] for b in kept] for name, values in per_problem.items()},
    )
    assert weights.weights.shape == (len(kept), matrices[0].shape[0])
    for slot, b in enumerate(kept):
        assert_same_outcome((weights.row(slot), traces[slot]), alone[b])


class TestSolveBatch:

    def test_backtracking_and_local_steps_match_lone_solves(self, monkeypatch):
        # From this start, problems of the stack take steps below 1, enter
        # the local phase and finish at different iterations, while two
        # diverge; the stack runs each through its own path.
        matrices = [selected_sample(seed) for seed in range(12)]
        start = np.random.default_rng(3).uniform(-1.0, 1.0, size=5)
        paths = [lone_path(monkeypatch, G, start=start) for G in matrices]
        assert_stack_matches_lone(matrices, [alone for alone, *_ in paths], start=start)
        solved = [path for path in paths if not isinstance(path[0], Exception)]
        assert len(paths) - len(solved) == 2
        assert len({alone[0].iterations for alone, *_ in solved}) > 1
        assert sum(any(shrunk) for *_, shrunk, _ in solved) >= 3
        assert sum(any(local) for _, local, *_ in solved) >= 2
        # A step below 1 also ends in a problem that enters the local phase.
        assert any(any(local) and any(shrunk) for _, local, shrunk, _ in solved)

    def test_capped_certificates_at_different_iterations_match_lone_solves(self, monkeypatch):
        # Per-row caps c_i * share, as a bootstrap resample's truncation
        # gives them: some problems converge, the others are certified
        # infeasible after different numbers of Newton directions.
        copies = np.random.default_rng(5).integers(1, 4, size=50)
        shares = np.array([2.5, 4.0, 6.0, 10.0, 3.0, 6.0]) / copies.sum()
        matrices = [selected_sample(seed) for seed in range(6)]
        caps = [copies * share for share in shares]
        paths = [
            lone_path(monkeypatch, G, base_weights=copies, cap=u) for G, u in zip(matrices, caps)
        ]
        assert_stack_matches_lone(
            matrices, [alone for alone, *_ in paths], base_weights=[copies] * 6, cap=caps
        )
        certified = [steps for alone, *_, steps in paths if isinstance(alone, ThresholdInfeasible)]
        assert len(certified) >= 3
        assert len(set(certified)) > 1
        assert any(not isinstance(alone, Exception) for alone, *_ in paths)

    def test_matches_one_problem_solves(self, rng):
        # Non-uniform base weights; the problems need different iteration
        # counts, two of them diverge and one underflows a weight to zero.
        matrices = [selected_sample(seed) for seed in range(12)]
        base = [rng.uniform(0.5, 2.0, size=50) for _ in matrices]
        alone = [lone_outcome(G, base_weights=q) for G, q in zip(matrices, base)]
        assert_stack_matches_lone(matrices, alone, base_weights=base)
        for G, q, outcome in zip(matrices, base, alone):
            if not isinstance(outcome, Exception):
                recovered = recover_weights(outcome[0].gamma, G, q)
                npt.assert_allclose(recovered, outcome[0].weights, rtol=0, atol=1e-12)
        solved = [outcome[0] for outcome in alone if not isinstance(outcome, Exception)]
        assert len({weights.iterations for weights in solved}) > 1
        infeasible = [str(o) for o in alone if isinstance(o, InfeasibleConstraints)]
        assert sum("diverged" in message for message in infeasible) == 2
        assert sum("underflowed" in message for message in infeasible) == 1

    def test_failures_stay_with_their_problem(self):
        # A stack with one failing problem raises that problem's own error,
        # and the stack without it gives the others their lone weights.
        feasible = [random_sample(np.random.default_rng(seed), n=6, k=1) for seed in (2, 5, 10)]
        t = np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])
        # Cross-product column strictly positive: no balancing weights exist.
        infeasible = balance_columns(t, [[-1.0], [-2.0], [-1.0], [1.0], [2.0], [1.0]])
        non_finite = balance_columns(t, [[-1.0], [1.0], [0.0], [np.nan], [1.0], [-1.0]])
        assert isinstance(lone_outcome(infeasible), InfeasibleConstraints)
        assert isinstance(lone_outcome(non_finite), NonFiniteDual)
        for failing in (infeasible, non_finite):
            matrices = [feasible[0], failing, *feasible[1:]]
            assert_stack_matches_lone(matrices, [lone_outcome(G) for G in matrices])
        matrices = [feasible[0], infeasible, feasible[1], non_finite, feasible[2]]
        assert_stack_matches_lone(matrices, [lone_outcome(G) for G in matrices])

    def test_singular_hessian_stays_with_its_problem(self, rng, monkeypatch):
        # One stacked Cholesky fails for the whole stack; the problem that
        # has no factor is found and its own message raised, and the regular
        # problems still reach bit for bit what they reach alone.
        t, x1 = rng.standard_normal(30), rng.standard_normal(30)
        collinear = balance_columns(t, np.column_stack([x1, x1]))
        overflowing = random_sample(rng) * np.array([1e200, 1, 1, 1, 1])
        regular = [random_sample(rng), random_sample(rng)]
        monkeypatch.setattr(solver, "_RIDGE", 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            for failing, message in ((collinear, "collinear"), (overflowing, "column 0")):
                alone = lone_outcome(failing)
                assert isinstance(alone, SingularHessian) and message in str(alone)
                matrices = [regular[0], failing, regular[1]]
                assert_stack_matches_lone(matrices, [lone_outcome(G) for G in matrices])
            matrices = [regular[0], collinear, overflowing, regular[1]]
            assert_stack_matches_lone(matrices, [lone_outcome(G) for G in matrices])
        assert all(lone_outcome(G)[0].converged for G in regular)

    def test_not_converged_per_problem(self, rng, monkeypatch):
        # The stack raises the first problem's NotConverged, carrying that
        # problem's lone weights; each problem alone raises its own.
        matrices = [random_sample(rng, n=30, k=2) for _ in range(3)]
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
        monkeypatch.setattr(solver, "_GRADIENT_TOLERANCE", 1e-12)
        alone = [lone_outcome(G) for G in matrices]
        for outcome in alone:
            assert isinstance(outcome, NotConverged)
            assert outcome.weights.iterations == 2
            assert not outcome.weights.converged
        with pytest.raises(NotConverged) as excinfo:
            solve_batch(matrices)
        assert_same_outcome(excinfo.value, alone[0])
        assert excinfo.value.weights.weights.shape == (30,)

    @pytest.mark.parametrize(
        "kind", ["infeasible", "non-finite", "singular", "not-converged", "certified"]
    )
    def test_stack_of_one_raises_what_solve_raises(self, rng, monkeypatch, kind):
        t = np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])
        kwargs = {}
        if kind == "infeasible":
            G = balance_columns(t, [[-1.0], [-2.0], [-1.0], [1.0], [2.0], [1.0]])
        elif kind == "non-finite":
            G = balance_columns(t, [[-1.0], [1.0], [0.0], [np.nan], [1.0], [-1.0]])
        elif kind == "singular":
            G = random_sample(rng) * np.array([1, 1, 1e200, 1, 1])
        elif kind == "not-converged":
            G = random_sample(rng)
            monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        else:
            G = selected_sample(0)
            kwargs = {"cap": np.full(50, 1.5 / 50)}
        with np.errstate(over="ignore", invalid="ignore"):
            alone = lone_outcome(G, **kwargs)
            assert isinstance(alone, EbctError)
            with pytest.raises(EbctError) as excinfo:
                solve_batch([G], **{name: [value] for name, value in kwargs.items()})
        assert_same_outcome(excinfo.value, alone)

    def test_returns_one_stacked_weighting(self, rng):
        matrices = [random_sample(rng, n=30, k=2) for _ in range(3)]
        weights, traces = solve_batch(matrices)
        assert weights.weights.shape == (3, 30) and weights.gamma.shape == (3, 5)
        assert weights.iterations.shape == weights.final_gradient_norm.shape == (3,)
        assert weights.converged and weights.method_tag == "ebct" and len(traces) == 3
        for array in (weights.weights, weights.gamma, weights.iterations):
            assert not array.flags.writeable
        # A lone solve's weights are a view of its stack of one, not a copy.
        lone, _ = solve(matrices[0])
        assert lone.weights.base is not None and lone.weights.base.shape == (1, 30)
        assert isinstance(lone.iterations, int) and isinstance(lone.final_gradient_norm, float)

    @pytest.mark.parametrize("kind", ["converged", "capped", "not-converged"])
    def test_lone_solve_is_row_zero_of_a_stack_of_one(self, monkeypatch, kind):
        # Same weights, gamma, iterations, gradient norm and trace bit for
        # bit; a NotConverged carries the same lone weights either way.
        G, per_problem = selected_sample(5), {}
        if kind == "capped":
            # A binding cap: the uncapped weights reach a share of 0.12.
            per_problem = {"base_weights": [np.arange(1, 51) % 3 + 1.0], "cap": [np.full(50, 0.08)]}
        elif kind == "not-converged":
            monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
        alone = lone_outcome(G, **{name: values[0] for name, values in per_problem.items()})
        assert isinstance(alone, NotConverged) == (kind == "not-converged")
        assert_stack_matches_lone([G], [alone], **per_problem)
        if kind == "capped":
            assert alone[0].converged and alone[0].weights.max() <= 0.08 * (1 + 1e-7)

    @pytest.mark.parametrize("capped", [False, True], ids=["plain", "capped"])
    def test_lone_solve_builds_one_weighting(self, monkeypatch, capped):
        # The lone result is built once, as row 0 of the driver's stack of
        # one, not as a stack whose row is then validated again.
        built, post_init = [], BalancingWeights.__post_init__

        def counted(weights):
            built.append(np.shape(weights.weights))
            post_init(weights)

        monkeypatch.setattr(BalancingWeights, "__post_init__", counted)
        weights, _ = solve(selected_sample(5), cap=np.full(50, 0.08) if capped else None)
        assert built == [(50,)]
        assert weights.weights.base.shape == (1, 50)

    def test_shapes_must_agree(self, rng):
        with pytest.raises(ValueError, match="no problems"):
            solve_batch([])
        with pytest.raises(ValueError, match="share n and K"):
            solve_batch([random_sample(rng, n=30), random_sample(rng, n=31)])
        with pytest.raises(ValueError):
            solve_batch([random_sample(rng, n=30)], base_weights=[None, None])
        with pytest.raises(ValueError, match="2-d"):
            solve(random_sample(rng, n=30)[:, 0])
        with pytest.raises(ValueError, match="2-d"):
            recover_weights(np.zeros(5), random_sample(rng, n=30)[None])


class TestStart:

    def test_zero_start_is_the_default(self, rng):
        G = random_sample(rng)
        default, default_trace = solve(G)
        zero, zero_trace = solve(G, start=np.zeros(5))
        assert zero.gamma.tobytes() == default.gamma.tobytes()
        assert zero_trace == default_trace

    def test_trace_begins_at_the_start(self, rng):
        G = random_sample(rng)
        start = rng.uniform(-0.5, 0.5, size=5)
        _, trace = solve(G, start=start)
        assert trace[0] == pytest.approx(dual_value(start, G), abs=1e-14)

    def test_batch_matches_one_problem_solves(self, rng):
        matrices = [selected_sample(seed) for seed in range(12)]
        start = rng.uniform(-0.5, 0.5, size=5)
        alone = [lone_outcome(G, start=start) for G in matrices]
        assert_stack_matches_lone(matrices, alone, start=start)
        assert any(not isinstance(outcome, Exception) for outcome in alone)

    @pytest.mark.parametrize(
        "start",
        [np.zeros(4), np.zeros((1, 5)), [0.0, np.nan, 0.0, 0.0, 0.0], [np.inf, 0.0, 0.0, 0.0, 0.0]],
        ids=["short", "2-d", "nan", "inf"],
    )
    def test_bad_start_rejected(self, rng, start):
        G = random_sample(rng)
        with pytest.raises(ValueError, match="start"):
            solve(G, start=start)
        with pytest.raises(ValueError, match="start"):
            solve_batch([G, G], start=start)


class TestSolverConstants:

    def test_values(self):
        # Every output's bytes depend on these.
        assert solver._GRADIENT_TOLERANCE == 1e-8
        assert solver._MAX_ITERATIONS == 200
        assert solver._RIDGE == 1e-9


class TestFailureExits:
    # Typed exits of the Newton driver that well-posed problems never take.

    def test_a_step_below_the_float_floor_stops_the_solve(self, rng, monkeypatch):
        # Without a gradient tolerance the local phase takes full steps while
        # they shrink the gradient; the first that does not is the "no
        # acceptable step" stop, and the final gradient check reports it.
        G = random_sample(rng, n=30, k=2)
        converged, _ = solve(G)
        monkeypatch.setattr(solver, "_GRADIENT_TOLERANCE", 0.0)
        with pytest.raises(NotConverged, match=r"^no convergence after \d+ iterations") as excinfo:
            solve(G)
        stopped = excinfo.value.weights
        assert not stopped.converged
        assert converged.iterations <= stopped.iterations < solver._MAX_ITERATIONS
        assert 0.0 < stopped.final_gradient_norm <= converged.final_gradient_norm

    def test_an_overflowing_line_search_candidate_is_a_non_finite_dual(self):
        # A constant column has a zero Hessian, so the ridge alone scales the
        # Newton step, and at 1e152 the candidate's exponents overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDual, match="^dual exponent overflowed"):
                solve(np.full((4, 1), 1e152))

    def test_a_capped_problem_past_the_multiplier_bound_stops_uncertified(
        self, rng, monkeypatch
    ):
        # Past the bound an uncapped problem is infeasible, while a capped one
        # is judged by its certificate; a feasible one has none and stops.
        G = random_sample(rng, n=30, k=2)
        monkeypatch.setattr(solver, "_GAMMA_BOUND", 1e-3)
        with pytest.raises(InfeasibleConstraints, match="^dual multipliers diverged"):
            solve(G)
        with pytest.raises(NotConverged, match=r"^no convergence after 1 iterations") as excinfo:
            solve(G, cap=np.full(30, 0.2))
        assert not excinfo.value.weights.converged

    def test_a_capped_stop_without_a_newton_direction_is_reported_as_it_stands(
        self, rng, monkeypatch
    ):
        # A column at 1e160 overflows the Hessian, so the stop's last iterate
        # has no Newton direction to try as a certificate.
        G = random_sample(rng, n=30, k=2) * np.array([1, 1, 1e160, 1, 1])
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match=r"^no convergence after 0 iterations"):
                solve(G, cap=np.full(30, 0.2))

    def test_an_underflowed_capped_weight_is_a_non_finite_dual(self, monkeypatch):
        # The problem is feasible under the cap (uniform weights meet it), so
        # no certificate exists; started at gamma = 1000, the lowest units'
        # exponents are below the smallest double.
        G = np.linspace(-1.0, 1.0, 21)[:, None]
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 0)
        with pytest.raises(NonFiniteDual, match="^a capped weight underflowed to zero"):
            solve(G, start=[1000.0], cap=np.full(21, 0.5))

    def test_unconverged_weights_under_the_cap_are_raised_again(self, rng, monkeypatch):
        G = random_sample(rng, n=30, k=2)
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(solver, "_GRADIENT_TOLERANCE", 1e-12)
        with pytest.raises(NotConverged) as first:
            solve(G)
        weights = first.value.weights
        assert weights.max_share < 0.5
        with pytest.raises(NotConverged, match=r"^no convergence after 1 iterations") as excinfo:
            truncate_and_rebalance(G, weights, threshold=0.5)
        assert str(excinfo.value) == str(first.value)
        assert excinfo.value.weights is weights


class TestLapackShim:
    # ``_cholesky`` and ``_solve`` call numpy's private LAPACK gufuncs
    # without np.linalg's argument checks. A numpy release that changes
    # those gufuncs shows here first, on every numpy the project supports.

    @pytest.mark.parametrize("m", [2, 21])
    @pytest.mark.parametrize("B", [1, 3])
    def test_results_are_numpys_bit_for_bit(self, rng, B, m):
        a = rng.standard_normal((B, m, m))
        definite = a @ np.swapaxes(a, -1, -2) + m * np.eye(m)
        rhs = rng.standard_normal((B, m, 2))
        for stack, columns in [(definite, rhs), (definite[0], rhs[0])]:
            lower = solver._cholesky(stack)
            assert lower.tobytes() == np.linalg.cholesky(stack).tobytes()
            assert solver._solve(stack, columns).tobytes() == np.linalg.solve(stack, columns).tobytes()
            assert solver._solve(lower, columns).tobytes() == np.linalg.solve(lower, columns).tobytes()

    def test_failures_raise_as_numpys_do(self):
        indefinite = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        singular = np.array([[[1.0, 2.0], [2.0, 4.0]]])
        for factor in (np.linalg.cholesky, solver._cholesky):
            with pytest.raises(np.linalg.LinAlgError):
                factor(indefinite)
        for solve_system in (np.linalg.solve, solver._solve):
            with pytest.raises(np.linalg.LinAlgError):
                solve_system(singular, np.ones((1, 2, 1)))


class TestTruncateAndRebalance:

    def heavy_instance(self):
        rng = np.random.default_rng(11)
        n = 50
        x = np.column_stack([rng.exponential(1.0, n), rng.standard_normal(n)])
        t = 0.8 * x[:, 0] + 0.5 * x[:, 1] ** 2 + rng.standard_normal(n)
        from ebct import Dataset

        return standardize(Dataset(treatment=t, covariates=x))

    def test_noop_when_already_under_threshold(self, rng):
        G = random_sample(rng, n=40, k=1)
        weights, _ = solve(G)
        assert weights.weights.max() < 0.2
        result = truncate_and_rebalance(G, weights, threshold=0.2)
        assert result is weights

    @pytest.mark.parametrize("threshold", [0.5, 0.03, 0.001])
    def test_weights_of_another_sample_rejected(self, rng, threshold):
        # 40 weights for a 50-row G: a loose cap used to return them
        # unchanged, a binding one failed inside the re-solve.
        weights, _ = solve(random_sample(rng, n=40, k=1))
        G = self.heavy_instance()
        with pytest.raises(ValueError, match="weights have length 40, but G has 50 rows"):
            truncate_and_rebalance(G, weights, threshold)

    def test_peak_memory_is_the_plain_solves(self, rng):
        # The uniform base weights and cap enter the capped solve as
        # broadcast rows, and its own weights go before recover_weights and
        # cap_weights: each step holds about two n-vectors, as the plain
        # solve does. A base-weight or cap n-vector would add one each.
        G = random_sample(rng, n=50_000, k=10)
        weights, _ = solve(G)
        threshold = 10.0 / G.shape[0]
        peaks = []
        for run in (lambda: solve(G), lambda: truncate_and_rebalance(G, weights, threshold)):
            tracemalloc.start()
            try:
                result = run()
                peaks.append(tracemalloc.get_traced_memory()[1] / (8 * G.shape[0]))
            finally:
                tracemalloc.stop()
        assert result.max_share == threshold
        assert max(peaks) < 2.5, peaks

    def test_threshold_below_uniform_rejected(self, rng):
        G = random_sample(rng, n=20, k=1)
        weights, _ = solve(G)
        with pytest.raises(ThresholdInfeasible):
            truncate_and_rebalance(G, weights, threshold=1.0 / 20 - 1e-6)

    def test_threshold_at_uniform_is_certified_infeasible(self):
        # At 1/n the only candidate is uniform, which violates the
        # constraints; the capped dual proves it.
        G = self.heavy_instance()
        weights, _ = solve(G)
        threshold = 1.0 / 50
        with pytest.raises(ThresholdInfeasible, match=r"threshold 0\.02 is infeasible") as excinfo:
            truncate_and_rebalance(G, weights, threshold)
        assert_certifies(G, np.full(50, threshold), excinfo.value.certificate)

    def test_four_percent_cap_with_balance(self):
        G = self.heavy_instance()
        weights, _ = solve(G)
        assert weights.weights.max() > 0.06
        result = truncate_and_rebalance(G, weights, threshold=0.04)
        assert result.weights.max() <= 0.04 + 1e-6
        balance = G.T @ result.weights
        assert np.abs(balance).max() <= 1e-7

    def test_keeps_the_untruncated_multipliers(self):
        # The capped solve's multipliers belong to the capped dual, not to the
        # plain problem a replicate starts from; the untruncated ones are the
        # bootstrap's warm start.
        G = self.heavy_instance()
        weights, _ = solve(G)
        result = truncate_and_rebalance(G, weights, threshold=0.04)
        assert result.converged and result.max_share <= 0.04 + 1e-10 < weights.max_share
        assert result.gamma.tobytes() == weights.gamma.tobytes()

    def test_iterations_total_the_solve_and_the_capped_solve(self, monkeypatch):
        G = self.heavy_instance()
        weights, _ = solve(G)
        calls = []

        def recording(G, **kwargs):
            result = solve(G, **kwargs)
            calls.append((kwargs, result[0].iterations))
            return result

        monkeypatch.setattr(solver, "solve", recording)
        result = truncate_and_rebalance(G, weights, threshold=0.04)
        ((kwargs, steps),) = calls
        assert kwargs["start"].tobytes() == weights.gamma.tobytes()
        npt.assert_array_equal(kwargs["cap"], np.full(50, 0.04))
        assert steps > 0
        assert result.iterations == weights.iterations + steps

    def test_unconverged_input_is_capped_then_reraised(self, monkeypatch):
        G = self.heavy_instance()
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
        with pytest.raises(NotConverged) as first:
            solve(G)
        start = first.value.weights
        assert start.max_share > 0.04
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 200)
        with pytest.raises(NotConverged) as excinfo:
            truncate_and_rebalance(G, start, threshold=0.04)
        assert str(excinfo.value) == str(first.value)
        capped = excinfo.value.weights
        assert not capped.converged
        assert capped.max_share <= 0.04 + 1e-10
        assert capped.gamma.tobytes() == start.gamma.tobytes()
        assert np.abs(G.T @ capped.weights).max() <= 1e-7

    def test_unconverged_capped_solve_is_capped_then_raised(self, monkeypatch):
        G = self.heavy_instance()
        weights, _ = solve(G)

        def one_step(G, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_MAX_ITERATIONS", 1)
                return solve(G, **kwargs)

        monkeypatch.setattr(solver, "solve", one_step)
        with pytest.raises(NotConverged, match=r"after 1 iterations") as excinfo:
            truncate_and_rebalance(G, weights, threshold=0.04)
        capped = excinfo.value.weights
        assert not capped.converged
        assert capped.iterations == weights.iterations + 1
        assert capped.max_share <= 0.04
        assert abs(capped.weights.sum() - 1.0) <= 1e-12
        assert capped.gamma.tobytes() == weights.gamma.tobytes()


@pytest.fixture(scope="module")
def edge_instance():
    """n=1000 input whose feasible caps end near 0.00172 (HiGHS LP)."""
    G = standardize(benchmark_frame(1000, 1))
    weights, _ = solve(G)
    return G, weights


@st.composite
def capped_problems(draw):
    """A small selected sample, optional copy counts, and where the
    threshold sits: ``margin`` is its distance above the smallest feasible
    threshold t* in units of t* - 1/N, which is positive for n >= 2K+2."""
    n = draw(st.integers(10, 24))
    k = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, k))
    t = draw(st.floats(0.0, 1.5)) * x.sum(axis=1) + rng.standard_normal(n)
    counts = rng.integers(1, 4, size=n) if draw(st.booleans()) else None
    margin = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 0.9))
    return Dataset(treatment=t, covariates=x), counts, margin


# Four blocks of 64 rows, the last one ragged.
RAGGED_ROWS = 3 * 64 + 17


class TestCappedDual:

    def capped_state(self, G, theta, u):
        n = G.shape[0]
        log_q = np.log(np.full((1, n), 1.0 / n))
        return solver._dual_state(G[None], log_q, theta[None], u[None])

    def test_gradient_and_hessian_match_finite_differences(self, rng):
        self.check_finite_differences(rng, 30)

    def test_blocked_hessian_matches_finite_differences(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "_HESSIAN_ROWS", 64)
        self.check_finite_differences(rng, RAGGED_ROWS)

    def check_finite_differences(self, rng, n):
        G = random_sample(rng, n=n, k=2)
        u = np.full(n, 1.5 / n)
        for _ in range(5):
            theta = np.r_[0.2, rng.uniform(-0.5, 0.5, size=5)]
            value, w, grad, finite = self.capped_state(G, theta, u)
            capped = w[0] == u
            assert finite[0] and 0 < capped.sum() < n
            fd = finite_difference_gradient(lambda t: self.capped_state(G, t, u)[0][0], theta)
            npt.assert_allclose(grad[0], fd, rtol=1e-6, atol=1e-9)
            # Away from the kinks the Hessian is the derivative of the gradient.
            s = np.log(1.0 / n) + theta[0] + G @ theta[1:]
            assert np.all(np.abs(s - np.log(u)) > 1e-4)
            hessian = solver._hessian(G[None], w, grad, u[None])[0]
            fd = np.column_stack([
                finite_difference_gradient(
                    lambda t, j=j: self.capped_state(G, t, u)[2][0, j], theta, step=1e-7
                )
                for j in range(6)
            ])
            npt.assert_allclose(hessian, fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("threshold", [0.00175, 0.0018, 0.0019])
    def test_feasible_edge_cap_solves(self, edge_instance, threshold):
        # The cap-renormalize-resolve rounds stalled here and reported these
        # caps infeasible, though an LP finds weights under each.
        G, weights = edge_instance
        result = truncate_and_rebalance(G, weights, threshold)
        assert result.converged
        assert result.max_share <= threshold
        assert abs(result.weights.sum() - 1.0) <= 1e-12
        assert np.abs(G.T @ result.weights).max() <= 1e-8
        assert result.iterations - weights.iterations <= 10

    @pytest.mark.parametrize("threshold", [0.0016, 0.0017])
    def test_infeasible_edge_cap_is_certified(self, edge_instance, threshold):
        G, weights = edge_instance
        assert min_feasible_threshold(G, np.ones(1000)) > threshold
        with pytest.raises(ThresholdInfeasible, match=f"threshold {threshold} is infeasible") as excinfo:
            truncate_and_rebalance(G, weights, threshold)
        assert_certifies(G, np.full(1000, threshold), excinfo.value.certificate)

    def test_cap_must_be_positive_and_fit_the_rows(self, rng):
        G = random_sample(rng, n=30)
        for cap, message in [(np.full(29, 0.1), "cap has length 29"),
                             (np.r_[0.0, np.full(29, 0.1)], "cap must be strictly positive")]:
            with pytest.raises(ValueError, match=message):
                solve(G, cap=cap)
        with pytest.raises(ValueError, match="got 1 cap vectors for 2 problems"):
            solve_batch([G, G], cap=[np.full(30, 0.1)])

    def test_no_balance_columns_under_a_cap_return_no_multipliers(self):
        # The capped dual's extra multiplier eta is not part of gamma, even
        # when gamma has no entries. Without a cap, or in a stack, a problem
        # with no balance columns is solved at its start: the gradient has no
        # entries, so its norm is zero.
        weights, trace = solve(np.empty((5, 0)), cap=np.full(5, 0.5))
        assert weights.converged and trace == [1.0]
        assert weights.gamma.shape == (0,)
        npt.assert_array_equal(weights.weights, np.full(5, 0.2))
        weights, trace = solve(np.empty((5, 0)))
        assert weights.converged and weights.iterations == 0 and trace == [0.0]
        assert weights.gamma.shape == (0,)
        npt.assert_array_equal(weights.weights, np.full(5, 0.2))
        stacked, traces = solve_batch(np.empty((3, 5, 0)))
        assert stacked.converged and traces == [[0.0]] * 3
        assert stacked.gamma.shape == (3, 0)
        npt.assert_array_equal(stacked.weights, np.full((3, 5), 0.2))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(capped_problems())
    def test_verdict_and_optimum_match_the_lp_and_the_primal(self, problem):
        dataset, counts, margin = problem
        G = standardize(dataset)
        copies = np.ones(dataset.n) if counts is None else counts
        try:
            weights, _ = solve(G, base_weights=counts)
        except EbctError:
            assume(False)
        edge = min_feasible_threshold(G, copies)
        threshold = edge + margin * (edge - 1.0 / copies.sum())
        u = copies * threshold
        try:
            result = truncate_and_rebalance(G, weights, threshold, counts)
        except ThresholdInfeasible as err:
            assert margin < 0
            assert_certifies(G, u, err.certificate)
            return
        assert margin > 0
        w = result.weights
        assert np.all(w <= u)
        assert np.abs(G.T @ w).max() <= 1e-8
        assert abs(w.sum() - 1.0) <= 1e-12
        # The gradient tolerance lets the moments miss zero by up to 1e-8,
        # which moves the optimal KL by more than that near the boundary, so
        # the oracle solves for the moments the weights reach.
        q = copies / copies.sum()
        oracle = capped_entropy_oracle(G, q, u, np.r_[w.sum(), G.T @ w])
        assert kl_divergence(w, q) == pytest.approx(kl_divergence(oracle, q), abs=1e-8)


def full_sort_cap(w, threshold, copies):
    """``cap_weights``' reference: the closed form over all n shares sorted.

    Returns the capped weights and the capped units, in ascending order.
    """
    share = w / copies
    order = np.argsort(-share, kind="stable")
    tails = np.cumsum(w[order][::-1])[::-1]
    held = np.concatenate(([0], np.cumsum(copies[order])[:-1]))
    fits = share[order] * (1.0 - held * threshold) <= threshold * tails
    fits[-1] = True
    k = int(np.argmax(fits))
    out = np.empty(w.size)
    out[order[:k]] = copies[order[:k]] * threshold
    rest = order[k:]
    out[rest] = w[rest] * ((1.0 - held[k] * threshold) / w[rest].sum())
    return out, np.sort(order[:k])


@st.composite
def capping_problems(draw):
    """Weights, optional copy counts, and a threshold from 1/N up to the
    largest share. Ties come from drawing every weight from a few values,
    and, with counts, from weights proportional to them."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.lognormal(0.0, draw(st.floats(0.1, 3.0)), n)
    if draw(st.booleans()):
        raw = raw[rng.integers(0, draw(st.integers(1, n)), n)]
    counts = rng.integers(1, 4, n) if draw(st.booleans()) else None
    if counts is not None and draw(st.booleans()):
        raw = raw * counts
    copies = np.ones(n, dtype=np.int64) if counts is None else counts
    w = raw / raw.sum()
    floor = 1.0 / copies.sum()
    top = max(floor, (w / copies).max())  # equal shares may round below 1/N
    threshold = draw(st.sampled_from([floor, top]) | st.floats(floor, top))
    return w, threshold, counts


class TestCapWeights:

    def assert_matches_full_sort(self, w, threshold, counts):
        copies = np.ones(w.size, dtype=np.int64) if counts is None else counts
        weights = BalancingWeights(w, np.empty(0), True, 0, 0.0, "ipw")
        result = cap_weights(weights, threshold, counts).weights
        expected, expected_capped = full_sort_cap(w, threshold, copies)
        if (w / copies).max() <= threshold:
            assert cap_weights(weights, threshold, counts) is weights
            return
        cap = copies * threshold
        capped, _ = solver._capped_units(w, w / copies, copies, threshold)
        assert np.array_equal(result[capped], cap[capped])
        # The same units are capped, except where a unit's scaled weight ties
        # with its cap: capping and scaling then give it the same weight, and
        # rounding decides either way.
        differ = np.setxor1d(capped, expected_capped)
        npt.assert_allclose(result[differ], cap[differ], rtol=1e-15, atol=0)
        npt.assert_allclose(expected[differ], cap[differ], rtol=1e-15, atol=0)
        assert abs(result.sum() - 1.0) <= 1e-12
        # Both scale the rest by (1 - held) / (its sum), which loses digits
        # as the capped copies' mass, held, nears one: at a threshold of 1/N
        # the rest is the last unit's copies.
        held = cap[expected_capped].sum()
        npt.assert_allclose(result, expected, rtol=1e-15 * max(1.0, held / (1.0 - held)), atol=0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(capping_problems())
    def test_matches_the_full_sort(self, problem):
        self.assert_matches_full_sort(*problem)

    @pytest.mark.parametrize("threshold", [0.00175, 0.0018, 0.0019])
    def test_matches_the_full_sort_on_the_edge_instance(self, edge_instance, threshold):
        # The EBCT weights, and the uncapped weights of the capped solve's
        # gamma that truncate_and_rebalance caps.
        G, weights = edge_instance
        ones = np.ones(G.shape[0])
        capped, _ = solve(G, base_weights=ones, start=weights.gamma, cap=ones * threshold)
        for w in (weights.weights, recover_weights(capped.gamma, G, ones)):
            self.assert_matches_full_sort(w, threshold, None)

    @pytest.mark.parametrize("rounds", [0, 1, 3])
    def test_few_rounds_fall_back_to_every_share(self, rng, monkeypatch, rounds):
        # A cap just above 1/n takes several rounds of candidates; after
        # _CAP_ROUNDS of them every share is a candidate.
        monkeypatch.setattr(solver, "_CAP_ROUNDS", rounds)
        raw = rng.lognormal(0.0, 1.0, 500)
        counts = rng.integers(1, 4, 500)
        for copies in (None, counts):
            n = 500 if copies is None else counts.sum()
            self.assert_matches_full_sort(raw / raw.sum(), 1.0001 / n, copies)

    def test_peak_is_a_few_n_vectors(self):
        # The full sort held about seven n-vectors at these caps.
        n = 50_000
        raw = np.random.default_rng(0).lognormal(0.0, 1.0, n)
        weights = BalancingWeights(raw / raw.sum(), np.empty(0), True, 0, 0.0, "ipw")
        for units in (1.5, 10.0):
            tracemalloc.start()
            try:
                capped = cap_weights(weights, units / n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (capped.weights == units / n).sum() > 100
            assert peak <= 3 * 8 * n, (units, peak / (8 * n))


def one_shot_hessian(G, w, grad, u=None):
    """The dual Hessian from one n x m product: the blocked kernel's reference."""
    if u is None:
        return (G * w[:, :, None]).transpose(0, 2, 1) @ G - grad[:, :, None] * grad[:, None, :]
    free = w < u
    B, _, m = G.shape
    hessian = np.empty((B, m + 1, m + 1))
    hessian[:, 0, 0] = np.sum(w, axis=1, where=free)
    hessian[:, 0, 1:] = hessian[:, 1:, 0] = (np.where(free, w, 0.0)[:, None, :] @ G)[:, 0, :]
    block = G * w[:, :, None]
    block[~free] = 0.0
    hessian[:, 1:, 1:] = block.transpose(0, 2, 1) @ G
    return hessian


class TestBlockedHessian:

    def states(self, rng, B, n, k=3):
        """Plain and capped dual states of a (B, n, 2K+1) stack, with rows at their cap."""
        G = np.stack([random_sample(rng, n=n, k=k) for _ in range(B)])
        log_q = np.log(np.full((B, n), 1.0 / n))
        gamma = rng.uniform(-0.4, 0.4, size=(B, 2 * k + 1))
        _, w, grad, finite = solver._dual_state(G, log_q, gamma)
        assert finite.all()
        u = np.full((B, n), 1.2 / n)
        theta = np.column_stack([np.zeros(B), gamma])
        capped = solver._dual_state(G, log_q, theta, u)
        _, w_cap, grad_cap, finite = capped
        assert finite.all() and (w_cap == u).any(axis=1).all() and (w_cap < u).any(axis=1).all()
        # Uniform base weights and caps as broadcast (B, 1) rows give the
        # same state bit for bit, and their Hessians are checked below too.
        rows = solver._dual_state(G, log_q[:, :1], theta, u[:, :1])
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, capped))
        return G, (w, grad, None), (w_cap, grad_cap, u), (w_cap, grad_cap, u[:, :1])

    @pytest.mark.parametrize("n", [200, 2048])
    @pytest.mark.parametrize("B", [1, 8])
    def test_one_block_is_the_one_shot_product_bit_for_bit(self, rng, B, n):
        assert n <= solver._HESSIAN_ROWS
        G, *states = self.states(rng, B, n)
        for w, grad, u in states:
            assert solver._hessian(G, w, grad, u).tobytes() == one_shot_hessian(G, w, grad, u).tobytes()

    @pytest.mark.parametrize("B", [1, 8])
    def test_ragged_blocks_match_the_one_shot_product(self, rng, monkeypatch, B):
        monkeypatch.setattr(solver, "_HESSIAN_ROWS", 64)
        G, *states = self.states(rng, B, RAGGED_ROWS)
        for w, grad, u in states:
            blocked, reference = solver._hessian(G, w, grad, u), one_shot_hessian(G, w, grad, u)
            assert np.abs(blocked - reference).max() <= 1e-13 * np.abs(reference).max()

    def test_overflow_in_a_later_block_names_its_column(self, rng, monkeypatch):
        monkeypatch.setattr(solver, "_HESSIAN_ROWS", 64)
        G = random_sample(rng, n=RAGGED_ROWS).copy()
        G[200, 2] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularHessian, match="balance column 2 overflows when squared"):
                solve(G)

    def test_no_n_by_m_temporary(self, rng):
        # Allocations beyond G itself, traced while one plain and one capped
        # solve run at n = 50 000; an n x m temporary alone is G.nbytes.
        G = random_sample(rng, n=50_000, k=10)
        weights, _ = solve(G)
        cap = np.full(G.shape[0], np.quantile(weights.weights, 0.99))
        for kwargs in ({}, {"start": weights.gamma, "cap": cap}):
            tracemalloc.start()
            try:
                solve(G, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.25 * G.nbytes, (kwargs.keys(), peak / G.nbytes)

    def test_stack_holds_a_few_weight_arrays(self):
        # Allocations beyond G itself while a stack of 40 simulated problems
        # of n = 500 is solved; its problems finish at different iterations.
        # A copy of G alone would be 21 (B, n) arrays of floats.
        config = ScenarioConfig(n=500, sigma=4.0, eta=1.0, spec=1, master_seed=3)
        G = standardize(simulation._draw(config, range(40)))
        tracemalloc.start()
        try:
            weights, _ = solve_batch(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(weights.iterations.tolist())) > 1
        assert peak < 4 * 8 * G.shape[0] * G.shape[1], peak / (8 * G.shape[0] * G.shape[1])
