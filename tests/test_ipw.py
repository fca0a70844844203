import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy import stats

from ebct import Dataset
from ebct.ipw import _normal_logpdf, ipw_weights
from ebct.errors import ConstantColumn, DegenerateResidual, RankDeficientDesign
from ebct.simulation import gen_covariates, gen_treatment, replication_rng

from conftest import batch, random_dataset


def density_ratio_oracle(t, fitted, residual_dof):
    """Spreadsheet-style weights: scipy normal densities of the marginal fit
    over the conditional fit, normalized to sum one."""
    residuals = t - fitted
    sigma = np.sqrt(residuals @ residuals / residual_dof)
    ratio = stats.norm.pdf(t, t.mean(), t.std(ddof=1)) / stats.norm.pdf(t, fitted, sigma)
    return ratio / ratio.sum()


class TestFitGps:
    """The normal treatment model inside ``ipw_weights``, seen through its
    weights and its errors."""

    def test_intercept_only_matches_marginal(self):
        # With K=0 the conditional model is the marginal one, so even an
        # outlying treatment gets the uniform weight.
        t = np.array([0.1, -0.4, 0.3, 0.0, 9.0, -0.2])
        weights = ipw_weights(Dataset(treatment=t, covariates=np.empty((6, 0))))
        npt.assert_allclose(weights.weights, np.full(6, 1.0 / 6), rtol=1e-12)

    def test_exact_linear_fit_degenerates(self):
        x = np.arange(8.0).reshape(-1, 1)
        ds = Dataset(treatment=2.0 * x[:, 0] + 1.0, covariates=x)
        with pytest.raises(DegenerateResidual):
            ipw_weights(ds)

    def test_three_point_normal_equations(self):
        # The 2x2 normal equations by hand give beta = [5/6, 3/2].
        x = np.array([0.0, 1.0, 2.0])
        t = np.array([1.0, 2.0, 4.0])
        expected = density_ratio_oracle(t, 5.0 / 6.0 + 1.5 * x, residual_dof=1)
        weights = ipw_weights(Dataset(treatment=t, covariates=x.reshape(-1, 1)))
        npt.assert_allclose(weights.weights, expected, rtol=1e-12)

    def test_fewer_than_k_plus_2_units_rejected_before_the_fit(self, rng):
        # K+1 units fit exactly and leave the residual scale no degree of
        # freedom: one error, and no division by zero on the way.
        ds = random_dataset(rng, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = r"^need at least K\+2 = 4 units for K=2 covariates, got 3$"
            with pytest.raises(ValueError, match=message):
                ipw_weights(ds)

    def test_rank_deficient_design_rejected(self, rng):
        x1 = rng.standard_normal(10)
        ds = Dataset(
            treatment=rng.standard_normal(10),
            covariates=np.column_stack([x1, 2.0 * x1]),
        )
        with pytest.raises(RankDeficientDesign):
            ipw_weights(ds)

    def test_constant_treatment_rejected(self, rng):
        # A constant treatment also leaves no residual scale; the constant
        # column is the error named. A rank-deficient design comes first.
        x1 = rng.standard_normal(10)
        t = np.full(10, 1.5)
        with pytest.raises(ConstantColumn, match="'D'"):
            ipw_weights(Dataset(t, x1.reshape(-1, 1), column_names=("D", "X1", "Y")))
        with pytest.raises(RankDeficientDesign):
            ipw_weights(Dataset(t, np.column_stack([x1, 2.0 * x1])))

    def test_residual_dof_convention(self, rng):
        # sigma uses n - K - 1: the K=3 oracle matches with that denominator
        # and not with n - 1.
        ds = random_dataset(rng, 40, 3)
        design = np.column_stack([np.ones(40), ds.covariates])
        beta = np.linalg.solve(design.T @ design, design.T @ ds.treatment)
        fitted = design @ beta
        weights = ipw_weights(ds).weights
        npt.assert_allclose(weights, density_ratio_oracle(ds.treatment, fitted, 36), rtol=1e-10)
        assert not np.allclose(weights, density_ratio_oracle(ds.treatment, fitted, 39), rtol=1e-3)


def gps_density(t, mu, sigma):
    return np.exp(_normal_logpdf(t, mu, sigma))


class TestGpsDensity:
    """The normal density that ``ipw_weights`` takes the log of."""

    def test_mode_of_standard_normal(self):
        assert gps_density(0.0, 0.0, 1.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)
        assert gps_density(0.0, 0.0, 1.0) == pytest.approx(0.39894, abs=1e-5)

    def test_one_sigma_point(self):
        sigma = 2.5
        expected = np.exp(-0.5) / (sigma * np.sqrt(2 * np.pi))
        assert gps_density(1.0 + sigma, 1.0, sigma) == pytest.approx(expected, abs=1e-12)

    def test_integrates_to_one(self):
        # Quadrature oracle over +-8 sigma.
        mu, sigma = 0.7, 1.9
        grid = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 200_001)
        total = np.trapezoid(gps_density(grid, mu, sigma), grid)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_scipy(self, rng):
        t = rng.standard_normal(20)
        npt.assert_allclose(gps_density(t, 0.3, 1.7), stats.norm.pdf(t, 0.3, 1.7), rtol=1e-12)


class TestIpwWeights:

    def test_intercept_only_reduces_to_uniform(self, rng):
        # With K=0 the conditional and marginal fits coincide exactly
        # (identical variance denominators), so the ratio is constant.
        ds = Dataset(treatment=rng.standard_normal(25), covariates=np.empty((25, 0)))
        weights = ipw_weights(ds)
        npt.assert_allclose(weights.weights, np.full(25, 1.0 / 25), atol=1e-10)

    def test_orthogonal_covariate_near_uniform(self):
        # Exact in-sample orthogonality zeroes the slope but leaves the
        # variance denominators (n-K-1 vs n-1) apart, so weights are uniform
        # only up to O(K/n).
        n = 4000
        rng = np.random.default_rng(5)
        t = rng.standard_normal(n)
        x = rng.standard_normal(n)
        t = t - t.mean()
        x = x - x.mean()
        x = x - (x @ t) / (t @ t) * t
        assert abs(x @ t) < 1e-8
        weights = ipw_weights(Dataset(treatment=t, covariates=x.reshape(-1, 1)))
        # Deviation from uniform is O(z_i^2 / 2n) from the dof mismatch alone.
        npt.assert_allclose(weights.weights, np.full(n, 1.0 / n), rtol=5e-3)

    def test_hand_built_density_ratio(self):
        # Refit by the one-covariate slope formulas, then take the oracle's
        # density ratio.
        t = np.array([0.5, 1.5, 2.0, 4.0])
        x = np.array([[0.0], [1.0], [1.0], [3.0]])
        ds = Dataset(treatment=t, covariates=x)

        xc = x[:, 0]
        slope = ((xc - xc.mean()) @ (t - t.mean())) / ((xc - xc.mean()) @ (xc - xc.mean()))
        intercept = t.mean() - slope * xc.mean()
        expected = density_ratio_oracle(t, intercept + slope * xc, residual_dof=4 - 2)

        weights = ipw_weights(ds)
        npt.assert_allclose(weights.weights, expected, rtol=1e-10)
        assert weights.method_tag == "ipw"
        assert weights.gamma.size == 0
        assert weights.converged

    def test_affine_covariate_rescaling_invariance(self, rng):
        ds = random_dataset(rng, 60, 3)
        rescaled = Dataset(
            treatment=ds.treatment,
            covariates=ds.covariates * np.array([2.0, -0.5, 100.0]) + np.array([1.0, -7.0, 3.0]),
        )
        w1 = ipw_weights(ds).weights
        w2 = ipw_weights(rescaled).weights
        assert np.max(np.abs(w1 - w2) / w1) <= 1e-8

    def test_positive_and_normalized(self, rng):
        ds = random_dataset(rng, 50, 2)
        weights = ipw_weights(ds)
        assert np.all(weights.weights > 0)
        assert weights.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sequence_matches_single_calls_bit_for_bit(self):
        datasets = []
        for index in range(6):
            rng = replication_rng(2718, index)
            x = gen_covariates(200, rng)
            datasets.append(Dataset(treatment=gen_treatment(x, 2.0, rng), covariates=x))
        stacked = ipw_weights(batch(datasets)).weights
        assert stacked.shape == (len(datasets), 200)
        assert not stacked.flags.writeable
        for dataset, weights in zip(datasets, stacked):
            alone = ipw_weights(dataset)
            assert weights.tobytes() == alone.weights.tobytes()
            assert alone.method_tag == "ipw"
        assert ipw_weights(batch(datasets[:1])).weights[0].tobytes() == stacked[0].tobytes()

    def test_sequence_raises_the_first_failing_datasets_error(self, rng):
        fine = random_dataset(rng, 20, 2)
        x1 = rng.standard_normal(20)
        collinear = Dataset(
            treatment=rng.standard_normal(20), covariates=np.column_stack([x1, x1])
        )
        constant = Dataset(treatment=np.full(20, 1.5), covariates=rng.standard_normal((20, 2)))
        with pytest.raises(RankDeficientDesign):
            ipw_weights(batch([fine, collinear, constant]))
        # A batch's labels name the failing sample's column.
        with pytest.raises(ConstantColumn, match="'D'"):
            ipw_weights(batch([fine, constant], column_names=("D", "X1", "X2", "Y")))
        with pytest.raises(ValueError, match="counts apply to one dataset"):
            ipw_weights(batch([fine, fine]), counts=np.ones(20, dtype=int))

    def test_moderate_selection_balance_is_erratic(self):
        # Simulated selection data: IPW balance varies a lot and sometimes
        # worsens the raw imbalance.
        from ebct import balance_report
        from ebct.data import uniform_weights

        ipw_metric, raw_metric = [], []
        for index in range(60):
            rng = replication_rng(314, index)
            x = gen_covariates(200, rng)
            t = gen_treatment(x, 4.0, rng)
            ds = Dataset(treatment=t, covariates=x)
            ipw_metric.append(balance_report(ipw_weights(ds), ds).max_abs_correlation)
            raw_metric.append(
                balance_report(uniform_weights(200), ds).max_abs_correlation
            )
        ipw_metric = np.asarray(ipw_metric)
        raw_metric = np.asarray(raw_metric)
        assert np.median(ipw_metric) > 0.01
        assert ipw_metric.std() > 0.01
        assert np.any(ipw_metric > raw_metric)
