import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import ebct.weighting as weighting
from ebct import (
    Dataset,
    bootstrap_se,
    estimate_drf,
    estimate_weights,
    solve,
)
from ebct.data import uniform_weights
from ebct.drf import bootstrap_statistic, default_grid, fit_wls
from ebct.errors import EbctError, ExtrapolationWarning, RankDeficientDesign, ResampleDegenerate
from ebct.simulation import gen_covariates, gen_outcome, gen_treatment, replication_rng

from conftest import random_dataset


class TestFitWls:

    def test_exact_interpolation(self, rng):
        design = np.column_stack([np.ones(12), rng.standard_normal((12, 2))])
        coef = np.array([1.0, -2.0, 0.5])
        y = design @ coef
        npt.assert_allclose(fit_wls(y, design, np.full(12, 1.0 / 12)), coef, atol=1e-10)

    def test_two_points_determine_line(self):
        design = np.array([[1.0, 0.0], [1.0, 1.0]])
        coef = fit_wls(np.array([0.0, 1.0]), design, np.array([0.9, 0.1]))
        npt.assert_allclose(coef, [0.0, 1.0], atol=1e-12)

    def test_matches_elementary_normal_equations(self, rng):
        # Oracle: accumulate the normal equations with explicit loops and
        # invert with the generic inverse.
        n = 10
        design = np.column_stack([np.ones(n), rng.standard_normal(n), rng.standard_normal(n)])
        y = rng.standard_normal(n)
        w = rng.uniform(0.2, 2.0, size=n)
        gram = np.zeros((3, 3))
        rhs = np.zeros(3)
        for i in range(n):
            row = design[i]
            gram += w[i] * np.outer(row, row)
            rhs += w[i] * y[i] * row
        expected = np.linalg.inv(gram) @ rhs
        npt.assert_allclose(fit_wls(y, design, w), expected, atol=1e-10)

    def test_weighted_residual_orthogonality(self, rng):
        n = 30
        design = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        w = rng.uniform(0.1, 1.0, size=n)
        coef = fit_wls(y, design, w)
        residuals = y - design @ coef
        moments = design.T @ (w * residuals)
        assert np.abs(moments).max() <= 1e-8 * max(1.0, np.abs(y).max())

    def test_weight_scale_invariance(self, rng):
        n = 15
        design = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.standard_normal(n)
        w = rng.uniform(0.5, 1.5, size=n)
        npt.assert_allclose(fit_wls(y, design, w), fit_wls(y, design, 2.0 * w), atol=1e-12)

    def test_rank_deficiency_detected(self, rng):
        col = rng.standard_normal(10)
        design = np.column_stack([np.ones(10), col, 2.0 * col])
        with pytest.raises(RankDeficientDesign):
            fit_wls(rng.standard_normal(10), design, np.full(10, 0.1))

    def test_non_finite_normal_equations_rejected(self, rng):
        design = np.column_stack([np.ones(10), rng.standard_normal(10)])
        y, w = rng.standard_normal(10), np.full(10, 0.1)
        bad_design = design.copy()
        bad_design[3, 1] = np.nan
        bad_y = y.copy()
        bad_y[4] = np.inf
        for args in ((y, bad_design, w), (bad_y, design, w)):
            with pytest.raises(ValueError, match="must not contain infs or NaNs"):
                fit_wls(*args)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_stack_matches_single_fits_bit_for_bit(self, rng, degree):
        # B samples with one weighting each: row [b] is sample b's own call.
        B, n = 4, 200
        t = 2.0 * rng.standard_normal((B, n)) + 1.0
        designs = np.polynomial.polynomial.polyvander(t, degree)
        y = rng.standard_normal((B, n))
        stack = rng.uniform(0.05, 2.0, size=(B, n))
        coefficients = fit_wls(y, designs, stack)
        assert coefficients.shape == (B, degree + 1)
        for b in range(B):
            alone = fit_wls(y[b], designs[b], stack[b])
            assert coefficients[b].tobytes() == alone.tobytes()
        with pytest.raises(ValueError, match="weights have shape"):
            fit_wls(y[0], designs[0], stack[0][:, None])

    def test_stacked_samples_match_single_fits_bit_for_bit(self, rng):
        # The stack takes one weighting per sample, of the samples' length.
        B, n = 5, 200
        t = 2.0 * rng.standard_normal((B, n)) + 1.0
        designs = np.stack([np.column_stack([np.ones(n), row]) for row in t])
        y = rng.standard_normal((B, n))
        stack = rng.uniform(0.05, 2.0, size=(B, n))
        coefficients = fit_wls(y, designs, stack)
        for b in range(B):
            assert coefficients[b].tobytes() == fit_wls(y[b], designs[b], stack[b]).tobytes()
        for bad in (stack[:, None], stack[:, 1:], stack[1:]):
            with pytest.raises(ValueError, match="weights have shape"):
                fit_wls(y, designs, bad)
        stack[2] = 0.0
        with pytest.raises(RankDeficientDesign):
            fit_wls(y, designs, stack)

    def test_one_rank_deficient_weighting_fails_the_stack(self, rng):
        # All weight on one unit leaves a rank-one Gram matrix for a line.
        design = np.column_stack([np.ones(10), rng.standard_normal(10)])
        y = rng.standard_normal(10)
        point_mass = np.zeros(10)
        point_mass[3] = 1.0
        stack = np.stack([np.full(10, 0.1), point_mass, rng.uniform(0.5, 1.0, 10)])
        with pytest.raises(RankDeficientDesign):
            fit_wls(np.stack([y] * 3), np.stack([design] * 3), stack)
        with pytest.raises(RankDeficientDesign):
            fit_wls(y, design, point_mass)
        for w in stack[[0, 2]]:
            assert np.isfinite(fit_wls(y, design, w)).all()


class TestEstimateDrf:

    def cubic_dataset(self, rng, noise=0.0):
        t = rng.uniform(0.0, 3.0, size=60)
        coef = np.array([0.5, -1.0, 0.75, 0.2])
        y = coef[0] + coef[1] * t + coef[2] * t**2 + coef[3] * t**3
        if noise:
            y = y + noise * rng.standard_normal(60)
        return Dataset(treatment=t, covariates=np.empty((60, 0)), outcome=y), coef

    def test_derivative_is_polynomial_calculus(self, rng):
        ds, _ = self.cubic_dataset(rng, noise=0.3)
        fit = estimate_drf(ds, uniform_weights(60), degree=3)
        a = fit.coefficients
        expected = a[1] + 2 * a[2] * fit.grid + 3 * a[3] * fit.grid**2
        npt.assert_allclose(fit.drf_derivatives, expected, atol=1e-12)

    def test_noiseless_cubic_recovered(self, rng):
        ds, coef = self.cubic_dataset(rng, noise=0.0)
        fit = estimate_drf(ds, uniform_weights(60), degree=3)
        npt.assert_allclose(fit.coefficients, coef, atol=1e-8)
        npt.assert_allclose(
            fit.drf_values,
            coef[0] + coef[1] * fit.grid + coef[2] * fit.grid**2 + coef[3] * fit.grid**3,
            atol=1e-8,
        )

    def test_default_grid_percentiles(self, rng):
        t = rng.standard_normal(500)
        grid = default_grid(t)
        assert grid.size == 50
        assert grid[0] == pytest.approx(np.percentile(t, 2))
        assert grid[-1] == pytest.approx(np.percentile(t, 98))
        assert np.all(np.diff(grid) > 0)
        assert default_grid(t, 1).size == 1
        with pytest.raises(ValueError, match="grid points must be at least 1"):
            default_grid(t, 0)

    def test_extrapolation_warns(self, rng):
        ds, _ = self.cubic_dataset(rng)
        grid = np.linspace(-1.0, 4.0, 20)
        with pytest.warns(ExtrapolationWarning):
            estimate_drf(ds, uniform_weights(60), degree=2, grid=grid)

    def test_outcome_required(self, rng):
        ds = random_dataset(rng, 30, 1, outcome=False)
        with pytest.raises(ValueError, match="outcome"):
            estimate_drf(ds, uniform_weights(30))

    def test_rank_is_counted_on_distinct_treatment_values(self):
        # Eight units on three treatment values: a cubic's Vandermonde design
        # has rank 3, yet its Cholesky passes for some orders of the rows.
        passed_by_rounding = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            t = rng.standard_normal(3)[rng.permutation([0, 0, 0, 1, 1, 1, 2, 2])]
            ds = Dataset(treatment=t, covariates=rng.standard_normal((8, 1)),
                         outcome=rng.standard_normal(8))
            try:
                fit_wls(ds.outcome, np.polynomial.polynomial.polyvander(t, 3), np.full(8, 0.125))
                passed_by_rounding += 1
            except RankDeficientDesign:
                pass
            with pytest.raises(RankDeficientDesign, match="4 distinct treatment values"):
                estimate_drf(ds, uniform_weights(8), degree=3)
            estimate_drf(ds, uniform_weights(8), degree=2)
        assert passed_by_rounding > 0
        # Only units of positive weight count.
        ds = random_dataset(np.random.default_rng(0), 8, 1, outcome=True)
        with pytest.raises(RankDeficientDesign, match="got 3"):
            estimate_drf(ds, np.r_[np.full(3, 1 / 3), np.zeros(5)], degree=3)

    def test_simulated_linear_effect_slope_near_one(self):
        # Design 1 (eta = 1) with balancing weights: degree-1 slope close to
        # the unit effect on a single large draw.
        rng = replication_rng(2024, 0)
        x = gen_covariates(1000, rng)
        t = gen_treatment(x, 4.0, rng)
        y = gen_outcome(x, t, 1.0, rng)
        ds = Dataset(treatment=t, covariates=x, outcome=y)
        weights = estimate_weights(ds, "ebct")
        fit = estimate_drf(ds, weights, degree=1)
        slope = fit.coefficients[1]
        assert slope == pytest.approx(1.0, abs=0.15)
        npt.assert_allclose(fit.drf_derivatives, np.full(fit.grid.size, slope), atol=1e-12)


class TestBootstrapStatistic:

    def test_constant_statistic_zero_se(self):
        draws = bootstrap_statistic(20, lambda idx: np.array([3.25]), 50, seed=1)
        assert draws.shape == (50, 1)
        assert draws.std(ddof=1) == 0.0

    def test_minimum_replications(self):
        with pytest.raises(ValueError):
            bootstrap_statistic(20, lambda idx: np.array([0.0]), 1, seed=1)

    def test_se_of_mean_matches_analytic(self):
        # Analytic oracle: the SE of the mean of m iid standard normals is
        # 1/sqrt(m).
        m = 400
        sample = np.random.default_rng(7).standard_normal(m)
        draws = bootstrap_statistic(m, lambda idx: np.array([sample[idx].mean()]), 1000, seed=3)
        se = float(draws.std(ddof=1))
        assert abs(se - 1.0 / np.sqrt(m)) <= 0.15 / np.sqrt(m)

    def test_seed_reproducibility(self):
        sample = np.random.default_rng(0).standard_normal(50)
        stat = lambda idx: np.array([sample[idx].mean()])
        first = bootstrap_statistic(50, stat, 25, seed=11)
        second = bootstrap_statistic(50, stat, 25, seed=11)
        npt.assert_array_equal(first, second)
        other = bootstrap_statistic(50, stat, 25, seed=12)
        assert not np.array_equal(first, other)

    def test_failed_replicates_redrawn(self):
        sample = np.random.default_rng(0).standard_normal(50)
        calls = {"failures": 0}

        def flaky(idx):
            if idx[0] % 3 == 0:
                calls["failures"] += 1
                raise EbctError("synthetic failure")
            return np.array([sample[idx].mean()])

        draws = bootstrap_statistic(50, flaky, 30, seed=5)
        assert draws.shape == (30, 1)
        assert calls["failures"] > 0

    def test_hopeless_statistic_aborts(self):
        def always_fails(idx):
            raise EbctError("cannot compute")

        with pytest.raises(ResampleDegenerate):
            bootstrap_statistic(20, always_fails, 5, seed=9)


class TestBootstrapSe:

    def drf_dataset(self):
        rng = replication_rng(77, 3)
        x = gen_covariates(120, rng)
        t = gen_treatment(x, 4.0, rng)
        y = gen_outcome(x, t, 1.0, rng)
        return Dataset(treatment=t, covariates=x, outcome=y)

    def drf_fit(self, ds, points, method="uniform"):
        weights = estimate_weights(ds, method)
        fit = estimate_drf(ds, weights, degree=1, grid=default_grid(ds.treatment, points))
        return fit, weights

    def test_pipeline_bootstrap_and_flags(self):
        ds = self.drf_dataset()
        fit, weights = self.drf_fit(ds, 10)
        result = bootstrap_se(fit, ds, weights, None, replications=60, seed=4)
        assert result.derivative_se.shape == (10,)
        assert np.all(result.derivative_se > 0)
        expected_flags = np.abs(fit.drf_derivatives) / result.derivative_se > 1.645
        npt.assert_array_equal(result.significant_10pct, expected_flags)

    def test_returns_the_fit_with_se_filled(self):
        ds = self.drf_dataset()
        fit, weights = self.drf_fit(ds, 5)
        assert fit.derivative_se is None and fit.significant_10pct is None
        result = bootstrap_se(fit, ds, weights, None, 30, seed=2)
        assert result.derivative_se.shape == (5,) and result.significant_10pct.shape == (5,)
        for name in ("degree", "coefficients", "grid", "drf_values", "drf_derivatives"):
            npt.assert_array_equal(getattr(result, name), getattr(fit, name))

    def test_reestimates_weights_per_replicate(self):
        # The ebct pipeline re-solves on each resample, so its spread must
        # reflect more than outcome noise: SEs strictly positive and finite.
        ds = self.drf_dataset()
        fit, weights = self.drf_fit(ds, 5, method="ebct")
        result = bootstrap_se(fit, ds, weights, None, 30, seed=21)
        assert np.all(np.isfinite(result.derivative_se))
        assert np.all(result.derivative_se > 0)

    @pytest.mark.parametrize(
        "method, truncation", [("ebct", None), ("ebct", 0.03), ("ipw", None), ("uniform", None)]
    )
    def test_se_is_the_sd_of_full_pipeline_refits(self, method, truncation):
        # Oracle: redo each replicate with the full-sample pipeline, drawing
        # attempt by attempt as bootstrap_statistic does and skipping the
        # draws whose weights fail.
        ds = self.drf_dataset()
        weights = estimate_weights(ds, method, truncation=truncation)
        fit = estimate_drf(ds, weights, degree=2, grid=default_grid(ds.treatment, 7))
        replications, seed = 25, 13
        rows, attempt = [], 0
        while len(rows) < replications:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(attempt,)))
            sample = ds.subset(rng.integers(0, ds.n, size=ds.n))
            attempt += 1
            try:
                resampled = estimate_weights(sample, method, truncation, weights.gamma)
            except EbctError:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtrapolationWarning)
                refit = estimate_drf(sample, resampled, fit.degree, fit.grid)
            rows.append(refit.drf_derivatives)
        expected = np.std(rows, axis=0, ddof=1)
        result = bootstrap_se(fit, ds, weights, truncation, replications, seed)
        # The replicates solve the frequency-weighted problem on the drawn
        # units, whose sums run in another order than the resample's.
        npt.assert_allclose(result.derivative_se, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("truncation", [None, 0.03], ids=["plain", "truncated"])
    def test_full_sample_start_saves_steps_not_precision(self, monkeypatch, truncation):
        # The start feeds each replicate's first solve, before truncation, so
        # it is the untruncated full-sample optimum, which truncated weights
        # keep as their gamma. Zeroing it gives the cold start.
        ds = self.drf_dataset()
        untruncated = estimate_weights(ds, "ebct")
        assert truncation is None or untruncated.max_share > truncation
        weights = estimate_weights(ds, "ebct", truncation=truncation)
        assert weights.gamma.tobytes() == untruncated.gamma.tobytes()
        fit = estimate_drf(ds, weights, degree=1, grid=default_grid(ds.treatment, 5))
        iterations = []

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            iterations.append(result[0].iterations)
            return result

        monkeypatch.setattr(weighting, "solve", counting_solve)
        zero_start = replace(weights, gamma=np.zeros_like(weights.gamma))
        cold = bootstrap_se(fit, ds, zero_start, truncation, 30, seed=21)
        cold_iterations = sum(iterations)
        iterations.clear()
        warm = bootstrap_se(fit, ds, weights, truncation, 30, seed=21)
        assert sum(iterations) < cold_iterations
        for name in ("coefficients", "grid", "drf_values", "drf_derivatives"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes()
        npt.assert_allclose(warm.derivative_se, cold.derivative_se, rtol=1e-6, atol=0)
        npt.assert_array_equal(warm.significant_10pct, cold.significant_10pct)


class TestDrfCsv:

    def test_write_csv(self, tmp_path, rng):
        ds = random_dataset(rng, 40, 1, outcome=True)
        fit = estimate_drf(ds, uniform_weights(40), degree=2, grid=np.linspace(-0.5, 0.5, 4))
        path = tmp_path / "drf.csv"
        fit.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,drf,derivative,se,significant"
        assert len(lines) == 5
        assert lines[1].endswith(",,")  # no bootstrap: se and significant empty
