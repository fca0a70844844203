import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize_scalar

from ebct import (
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
from ebct import solver
from ebct.simulation import gen_covariates, gen_treatment, replication_rng
from ebct.solver import dual_gradient, dual_hessian, dual_objective, recover_weights

from conftest import balance_columns, random_dataset


def two_point_sample():
    # K=0 with balance column g = (-1, 1).
    return balance_columns([-1.0, 1.0], np.empty((2, 0)))


def random_sample(rng, n=30, k=2):
    return standardize(random_dataset(rng, n, k))


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


def feasible_affine_basis(matrix):
    """Particular solution and null-space basis of {w : sum w = 1, G'w = 0}."""
    n = matrix.shape[0]
    constraints = np.column_stack([np.ones(n), matrix]).T
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


class TestDualObjective:

    def test_zero_gamma_uniform_base(self, rng):
        G = random_sample(rng)
        assert dual_objective(np.zeros(5), G) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_log_cosh(self):
        # ln(0.5 e^{-1} + 0.5 e^{1}) = ln cosh(1)
        value = dual_objective(np.array([1.0]), two_point_sample())
        assert value == pytest.approx(np.log(np.cosh(1.0)), abs=1e-12)
        assert value == pytest.approx(0.43378, abs=1e-5)

    def test_log_sum_exp_lower_bound(self, rng):
        G = random_sample(rng, n=20, k=1)
        q = np.full(20, 0.05)
        gbar = G.T @ q
        for _ in range(10):
            gamma = rng.standard_normal(3)
            assert dual_objective(gamma, G, q) >= float(gamma @ gbar) - 1e-12

    def test_no_overflow_with_large_gamma(self):
        # Max-shift keeps huge exponents representable.
        value = dual_objective(np.array([500.0]), two_point_sample())
        assert np.isfinite(value)
        assert value == pytest.approx(500.0 + np.log(0.5), rel=1e-12)

    def test_pathological_gamma_raises(self):
        from ebct.errors import NonFiniteDual

        with pytest.raises(NonFiniteDual):
            dual_objective(np.array([np.inf]), two_point_sample())

    def test_convexity_along_segments(self, rng):
        G = random_sample(rng, n=25, k=2)
        for _ in range(10):
            g1, g2 = rng.standard_normal((2, 5))
            alpha = rng.uniform(0.05, 0.95)
            lhs = dual_objective(alpha * g1 + (1 - alpha) * g2, G)
            rhs = alpha * dual_objective(g1, G) + (1 - alpha) * dual_objective(g2, G)
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
            fd = finite_difference_gradient(lambda g: dual_objective(g, G), gamma)
            npt.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_zero_at_solution(self, rng):
        G = random_sample(rng)
        weights, report = solve(G)
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

    def test_presatisfied_constraints_stay_uniform(self):
        # All balance columns have exact zero means, so gamma* = 0.
        G = balance_columns([-1.0, -1.0, 1.0, 1.0], [[-1.0], [1.0], [-1.0], [1.0]])
        npt.assert_array_equal(G.mean(axis=0), np.zeros(3))
        weights, report = solve(G)
        assert report.iterations <= 1
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
        npt.assert_allclose(weights.base_weights, q / q.sum(), atol=1e-14)
        balance = G.T @ weights.weights
        assert np.abs(balance).max() <= 1e-8

    def test_entropy_beats_feasible_perturbations(self, rng):
        G = random_sample(rng, n=20, k=3)
        weights, _ = solve(G)
        w, q = weights.weights, weights.base_weights
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
        assert first.dual_value_trace == second.dual_value_trace

    def test_trace_non_increasing(self, rng):
        G = random_sample(rng, n=40, k=3)
        _, report = solve(G)
        trace = np.asarray(report.dual_value_trace)
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
        assert err.report.iterations == 1
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
        weights, report = solve(G)
        assert report.converged

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


class TestSolveBatch:

    def test_matches_one_problem_solves(self, rng):
        # Non-uniform base weights; the problems need different iteration
        # counts, two of them diverge and one underflows a weight to zero
        # while the others still iterate.
        matrices = [selected_sample(seed) for seed in range(12)]
        base = [rng.uniform(0.5, 2.0, size=50) for _ in matrices]
        batch = solve_batch(matrices, base)
        iterations = set()
        for G, q, outcome in zip(matrices, base, batch):
            try:
                alone, alone_report = solve(G, base_weights=q)
            except EbctError as err:
                assert type(outcome) is type(err)
                continue
            weights, report = outcome
            npt.assert_allclose(weights.weights, alone.weights, rtol=0, atol=1e-12)
            npt.assert_allclose(weights.base_weights, alone.base_weights, rtol=0, atol=1e-15)
            assert report.iterations == alone_report.iterations
            assert report.dual_value_trace == pytest.approx(alone_report.dual_value_trace, abs=1e-12)
            iterations.add(report.iterations)
        assert len(iterations) > 1
        infeasible = [str(o) for o in batch if isinstance(o, InfeasibleConstraints)]
        assert sum("diverged" in message for message in infeasible) == 2
        assert sum("underflowed" in message for message in infeasible) == 1

    def test_failures_stay_with_their_problem(self):
        feasible = [random_sample(np.random.default_rng(seed), n=6, k=1) for seed in (2, 5, 10)]
        t = np.array([-2.0, -1.0, -1.0, 1.0, 1.0, 2.0])
        # Cross-product column strictly positive: no balancing weights exist.
        infeasible = balance_columns(t, [[-1.0], [-2.0], [-1.0], [1.0], [2.0], [1.0]])
        non_finite = balance_columns(t, [[-1.0], [1.0], [0.0], [np.nan], [1.0], [-1.0]])
        matrices = [feasible[0], infeasible, feasible[1], non_finite, feasible[2]]
        batch = solve_batch(matrices)
        assert isinstance(batch[1], InfeasibleConstraints)
        assert isinstance(batch[3], NonFiniteDual)
        for G, outcome in zip(matrices, batch):
            try:
                alone, _ = solve(G)
            except EbctError as err:
                assert type(outcome) is type(err)
            else:
                npt.assert_allclose(outcome[0].weights, alone.weights, rtol=0, atol=1e-12)

    def test_singular_hessian_stays_with_its_problem(self, rng, monkeypatch):
        # One stacked Cholesky fails for the whole stack; the regular problems
        # must still reach bit for bit what they reach alone.
        t, x1 = rng.standard_normal(30), rng.standard_normal(30)
        collinear = balance_columns(t, np.column_stack([x1, x1]))
        overflowing = random_sample(rng) * np.array([1e200, 1, 1, 1, 1])
        regular = [random_sample(rng), random_sample(rng)]
        monkeypatch.setattr(solver, "_RIDGE", 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            batch = solve_batch([regular[0], collinear, overflowing, regular[1]])
        assert isinstance(batch[1], SingularHessian)
        assert isinstance(batch[2], SingularHessian)
        for G, (weights, report) in zip(regular, (batch[0], batch[3])):
            alone, alone_report = solve(G)
            assert report.converged
            assert weights.weights.tobytes() == alone.weights.tobytes()
            assert weights.gamma.tobytes() == alone.gamma.tobytes()
            assert report.iterations == alone_report.iterations

    def test_not_converged_per_problem(self, rng, monkeypatch):
        matrices = [random_sample(rng, n=30, k=2) for _ in range(3)]
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 2)
        monkeypatch.setattr(solver, "_GRADIENT_TOLERANCE", 1e-12)
        for outcome in solve_batch(matrices):
            assert isinstance(outcome, NotConverged)
            assert outcome.report.iterations == 2

    def test_shapes_must_agree(self, rng):
        assert solve_batch([]) == []
        with pytest.raises(ValueError, match="share n and K"):
            solve_batch([random_sample(rng, n=30), random_sample(rng, n=31)])
        with pytest.raises(ValueError):
            solve_batch([random_sample(rng, n=30)], base_weights=[None, None])
        with pytest.raises(ValueError, match="2-d"):
            solve(random_sample(rng, n=30)[:, 0])
        with pytest.raises(ValueError, match="2-d"):
            dual_objective(np.zeros(5), random_sample(rng, n=30)[None])


class TestStart:

    def test_zero_start_is_the_default(self, rng):
        G = random_sample(rng)
        default, default_report = solve(G)
        zero, zero_report = solve(G, start=np.zeros(5))
        assert zero.gamma.tobytes() == default.gamma.tobytes()
        assert zero_report.dual_value_trace == default_report.dual_value_trace

    def test_trace_begins_at_the_start(self, rng):
        G = random_sample(rng)
        start = rng.uniform(-0.5, 0.5, size=5)
        _, report = solve(G, start=start)
        assert report.dual_value_trace[0] == pytest.approx(dual_objective(start, G), abs=1e-14)

    def test_batch_matches_one_problem_solves(self, rng):
        matrices = [selected_sample(seed) for seed in range(12)]
        start = rng.uniform(-0.5, 0.5, size=5)
        batch = solve_batch(matrices, start=start)
        solved = 0
        for G, outcome in zip(matrices, batch):
            try:
                alone, alone_report = solve(G, start=start)
            except EbctError as err:
                assert type(outcome) is type(err) and str(outcome) == str(err)
                continue
            weights, report = outcome
            assert weights.weights.tobytes() == alone.weights.tobytes()
            assert weights.gamma.tobytes() == alone.gamma.tobytes()
            assert report.dual_value_trace == alone_report.dual_value_trace
            solved += 1
        assert solved > 0

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
        assert solver._MAX_ROUNDS == 100


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

    def test_threshold_below_uniform_rejected(self, rng):
        G = random_sample(rng, n=20, k=1)
        weights, _ = solve(G)
        with pytest.raises(ThresholdInfeasible):
            truncate_and_rebalance(G, weights, threshold=1.0 / 20 - 1e-6)

    def test_threshold_at_uniform_fails_to_reduce(self, monkeypatch):
        # Uniform is the only candidate and violates the constraints, so the
        # rounds run out with the cap still exceeded, which is an error.
        G = self.heavy_instance()
        weights, _ = solve(G)
        monkeypatch.setattr(solver, "_MAX_ROUNDS", 5)
        with pytest.raises(ThresholdInfeasible, match=r"after 5 rebalancing rounds") as excinfo:
            truncate_and_rebalance(G, weights, threshold=1.0 / 50)
        share = float(str(excinfo.value).split()[3])
        assert share > 1.0 / 50 + 1e-10

    def test_four_percent_cap_with_balance(self):
        G = self.heavy_instance()
        weights, _ = solve(G)
        assert weights.weights.max() > 0.06
        result = truncate_and_rebalance(G, weights, threshold=0.04)
        assert result.weights.max() <= 0.04 + 1e-6
        balance = G.T @ result.weights
        assert np.abs(balance).max() <= 1e-7
