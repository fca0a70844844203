import numpy as np
import numpy.testing as npt
import pytest

from ebct import BalancingWeights, Dataset, standardize
from ebct.errors import ConstantColumn, NonFiniteInput

from conftest import balance_columns, random_dataset


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

    def test_outcome_name_counts_only_with_an_outcome(self):
        t, x = np.arange(4.0), np.arange(4.0).reshape(-1, 1)
        assert Dataset(t, x, column_names=("T", "Y", "Y")).covariate_names == ("Y",)
        with pytest.raises(ValueError, match="unique"):
            Dataset(t, x, outcome=np.arange(4.0), column_names=("T", "Y", "Y"))

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

    def test_subset_matches_a_dataset_of_the_rows(self, rng):
        ds = random_dataset(rng, 30, 3, outcome=True)
        ids = tuple(f"u{i}" for i in range(30))
        ds = Dataset(ds.treatment, ds.covariates, ds.outcome, unit_ids=ids)
        idx = rng.integers(-30, 30, 50)
        sub = ds.subset(idx)
        rows = Dataset(
            treatment=ds.treatment[idx],
            covariates=ds.covariates[idx],
            outcome=ds.outcome[idx],
            unit_ids=tuple(ds.unit_ids[i] for i in idx),
        )
        for name in ("treatment", "covariates", "outcome"):
            npt.assert_array_equal(getattr(sub, name), getattr(rows, name))
            assert not getattr(sub, name).flags.writeable
        assert sub.unit_ids == rows.unit_ids
        assert sub.column_names == rows.column_names
        assert ds.subset([1, 2]).outcome.shape == (2,)
        no_outcome = Dataset(ds.treatment, ds.covariates).subset([0, 0, 1])
        assert no_outcome.outcome is None and no_outcome.unit_ids == (0, 0, 1)

    @pytest.mark.parametrize("indices", [[], [3], [[0, 1], [2, 3]]])
    def test_subset_needs_two_rows(self, indices):
        ds = Dataset(treatment=np.arange(4.0), covariates=np.arange(4.0).reshape(-1, 1))
        with pytest.raises(ValueError):
            ds.subset(indices)

    def test_arrays_are_read_only(self):
        ds = Dataset(treatment=np.arange(4.0), covariates=np.arange(4.0).reshape(-1, 1))
        with pytest.raises(ValueError):
            ds.treatment[0] = 99.0


class TestBalancingWeights:

    @pytest.mark.parametrize("weights", [[0.5, np.nan, 0.5], [np.nan] * 3])
    def test_nan_weights_rejected(self, weights):
        # NaN fails neither a "<= 0" test nor the sum check.
        with pytest.raises(ValueError, match="strictly positive"):
            BalancingWeights(
                weights=weights,
                gamma=[],
                converged=True,
                iterations=0,
                final_gradient_norm=0.0,
                method_tag="ipw",
            )


class TestStandardize:

    def test_three_point_treatment(self):
        # Symmetric sample: mean 2 and sample sd exactly 1.
        ds = Dataset(treatment=np.array([1.0, 2.0, 3.0]), covariates=np.empty((3, 0)))
        npt.assert_allclose(standardize(ds)[:, 0], [-1.0, 0.0, 1.0])

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
        # Oracle: recompute mean and variance of each linear column directly.
        ds = random_dataset(rng, 50, 3)
        linear = standardize(ds)[:, :4]
        npt.assert_allclose(linear.mean(axis=0), np.zeros(4), atol=1e-12)
        npt.assert_allclose(linear.var(axis=0, ddof=1), np.ones(4), atol=1e-12)

    def test_group_matches_single_bit_for_bit(self, rng):
        group = [random_dataset(rng, 40, 3) for _ in range(3)]
        stack = standardize(group)
        assert stack.shape == (3, 40, 7)
        assert not stack.flags.writeable
        for dataset, matrix in zip(group, stack):
            assert matrix.tobytes() == standardize(dataset).tobytes()
        assert standardize(group[:1])[0].tobytes() == standardize(group[0]).tobytes()

    def test_group_raises_for_its_first_failing_dataset(self, rng):
        good = random_dataset(rng, 12, 2)
        constant = Dataset(
            treatment=rng.standard_normal(12),
            covariates=np.column_stack([rng.standard_normal(12), np.full(12, 3.0)]),
        )
        with pytest.raises(ConstantColumn, match="X2"):
            standardize([good, constant, good])
        with pytest.raises(ValueError, match="share n and K"):
            standardize([good, random_dataset(rng, 13, 2)])

    def test_permutation_permutes_rows(self, rng):
        ds = random_dataset(rng, 30, 2)
        perm = rng.permutation(30)
        shuffled = Dataset(treatment=ds.treatment[perm], covariates=ds.covariates[perm])
        npt.assert_allclose(
            standardize(shuffled),
            standardize(ds)[perm],
            atol=1e-13,
        )


class TestConstraintMatrix:

    def test_two_point_by_hand(self):
        # The hand-built solver inputs of the tests use this layout.
        matrix = balance_columns([-1.0, 1.0], [[1.0], [-1.0]])
        npt.assert_array_equal(matrix, [[-1, 1, -1], [1, -1, -1]])

    def test_k_zero_single_column(self):
        ds = Dataset(treatment=np.array([1.0, 2.0, 3.0]), covariates=np.empty((3, 0)))
        matrix = standardize(ds)
        assert matrix.shape == (3, 1)
        npt.assert_array_equal(matrix[:, 0], [-1.0, 0.0, 1.0])

    def test_random_matches_loop_construction(self, rng):
        # Oracle: standardize by hand, then build entry by entry in a loop.
        ds = random_dataset(rng, 10, 2)
        t = (ds.treatment - ds.treatment.mean()) / ds.treatment.std(ddof=1)
        x = (ds.covariates - ds.covariates.mean(axis=0)) / ds.covariates.std(axis=0, ddof=1)
        n, k = 10, 2
        expected = np.zeros((n, 2 * k + 1))
        for i in range(n):
            expected[i, 0] = t[i]
            for j in range(k):
                expected[i, 1 + j] = x[i, j]
                expected[i, 1 + k + j] = t[i] * x[i, j]
        npt.assert_array_equal(standardize(ds), expected)
        npt.assert_array_equal(balance_columns(t, x), expected)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_width_is_2k_plus_1(self, rng, k):
        ds = random_dataset(rng, 2 * k + 6, k)
        assert standardize(ds).shape == (2 * k + 6, 2 * k + 1)

    def test_linear_columns_centered(self, rng):
        ds = random_dataset(rng, 25, 3)
        matrix = standardize(ds)
        npt.assert_allclose(matrix[:, :4].mean(axis=0), np.zeros(4), atol=1e-12)

    def test_read_only(self, rng):
        matrix = standardize(random_dataset(rng, 12, 2))
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0
