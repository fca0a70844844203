import numpy as np
import numpy.testing as npt
import pytest

from ebct import Dataset, StandardizedSample, standardize
from ebct.errors import ConstantColumn, NonFiniteInput

from conftest import random_dataset


class TestDataset:

    def test_minimum_sample_size_for_balancing(self):
        # n must reach 2K+2 before standardizing so the dual has more units
        # than parameters; reading smaller files is still allowed.
        ds = Dataset(treatment=np.arange(5.0), covariates=np.arange(10.0).reshape(5, 2))
        with pytest.raises(ValueError, match="2K\\+2"):
            standardize(ds)

    def test_non_finite_rejected(self):
        t = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(NonFiniteInput):
            Dataset(treatment=t, covariates=np.ones((4, 1)) * np.arange(4.0)[:, None])

    def test_duplicate_column_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(
                treatment=np.arange(4.0),
                covariates=np.arange(4.0).reshape(-1, 1),
                column_names=("T", "T", "Y"),
            )

    def test_default_names_and_ids(self):
        ds = Dataset(treatment=np.arange(6.0), covariates=np.arange(6.0).reshape(-1, 1) ** 2)
        assert ds.column_names == ("T", "X1", "Y")
        assert ds.unit_ids == tuple(range(6))
        assert ds.n == 6 and ds.k == 1

    def test_subset_repeats_and_ids(self):
        ds = Dataset(
            treatment=np.arange(6.0),
            covariates=np.arange(6.0).reshape(-1, 1) ** 2,
            unit_ids=tuple("abcdef"),
        )
        sub = ds.subset([5, 0, 0, 1, 2, 3])
        assert sub.unit_ids == ("f", "a", "a", "b", "c", "d")
        npt.assert_array_equal(sub.treatment, [5, 0, 0, 1, 2, 3])

    def test_arrays_are_read_only(self):
        ds = Dataset(treatment=np.arange(4.0), covariates=np.arange(4.0).reshape(-1, 1))
        with pytest.raises(ValueError):
            ds.treatment[0] = 99.0


class TestStandardize:

    def test_three_point_treatment(self):
        # Symmetric sample: mean 2 and sample sd exactly 1.
        ds = Dataset(treatment=np.array([1.0, 2.0, 3.0]), covariates=np.empty((3, 0)))
        sample = standardize(ds)
        npt.assert_allclose(sample.t_std, [-1.0, 0.0, 1.0])
        assert sample.t_mean == 2.0
        assert sample.t_scale == 1.0

    def test_constant_covariate_rejected(self):
        ds = Dataset(
            treatment=np.arange(6.0),
            covariates=np.column_stack([np.arange(6.0), np.full(6, 3.0)]),
        )
        with pytest.raises(ConstantColumn, match="X2"):
            standardize(ds)

    def test_constant_treatment_rejected(self):
        ds = Dataset(treatment=np.full(6, 1.5), covariates=np.arange(6.0).reshape(-1, 1))
        with pytest.raises(ConstantColumn, match="T"):
            standardize(ds)

    def test_random_matrix_moments(self, rng):
        # Oracle: recompute mean and variance of each standardized column directly.
        ds = random_dataset(rng, 50, 3)
        sample = standardize(ds)
        cols = np.column_stack([sample.t_std, sample.x_std])
        npt.assert_allclose(cols.mean(axis=0), np.zeros(4), atol=1e-12)
        npt.assert_allclose(cols.var(axis=0, ddof=1), np.ones(4), atol=1e-12)

    def test_round_trip(self, rng):
        ds = random_dataset(rng, 40, 2)
        sample = standardize(ds)
        back = sample.t_std * sample.t_scale + sample.t_mean
        npt.assert_allclose(back, ds.treatment, rtol=1e-10)
        back_x = sample.x_std * sample.x_scales + sample.x_means
        npt.assert_allclose(back_x, ds.covariates, rtol=1e-10)

    def test_permutation_permutes_rows(self, rng):
        ds = random_dataset(rng, 30, 2)
        perm = rng.permutation(30)
        shuffled = Dataset(treatment=ds.treatment[perm], covariates=ds.covariates[perm])
        npt.assert_allclose(
            standardize(shuffled).constraint_matrix,
            standardize(ds).constraint_matrix[perm],
            atol=1e-13,
        )


class TestConstraintMatrix:

    def test_two_point_by_hand(self):
        sample = StandardizedSample.from_standardized(
            t_std=np.array([-1.0, 1.0]), x_std=np.array([[1.0], [-1.0]])
        )
        npt.assert_array_equal(sample.constraint_matrix, [[-1, 1, -1], [1, -1, -1]])
        t, x = sample.t_std[:, None], sample.x_std
        npt.assert_array_equal(sample.constraint_matrix, np.column_stack([t, x, t * x]))

    def test_k_zero_single_column(self):
        sample = StandardizedSample.from_standardized(
            t_std=np.array([-1.0, 0.0, 1.0]), x_std=np.empty((3, 0))
        )
        assert sample.constraint_matrix.shape == (3, 1)
        npt.assert_array_equal(sample.constraint_matrix[:, 0], sample.t_std)

    def test_random_matches_loop_construction(self, rng):
        # Oracle: independent entry-by-entry loop construction.
        ds = random_dataset(rng, 10, 2)
        sample = standardize(ds)
        n, k = 10, 2
        expected = np.zeros((n, 2 * k + 1))
        for i in range(n):
            expected[i, 0] = sample.t_std[i]
            for j in range(k):
                expected[i, 1 + j] = sample.x_std[i, j]
                expected[i, 1 + k + j] = sample.t_std[i] * sample.x_std[i, j]
        npt.assert_array_equal(sample.constraint_matrix, expected)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_width_is_2k_plus_1(self, rng, k):
        ds = random_dataset(rng, 2 * k + 6, k)
        assert standardize(ds).constraint_matrix.shape == (2 * k + 6, 2 * k + 1)

    def test_linear_columns_centered(self, rng):
        ds = random_dataset(rng, 25, 3)
        matrix = standardize(ds).constraint_matrix
        npt.assert_allclose(matrix[:, :4].mean(axis=0), np.zeros(4), atol=1e-12)
