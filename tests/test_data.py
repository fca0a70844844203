import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from ebct import BalancingWeights, Dataset, data, standardize
from ebct.errors import ConstantColumn, NonFiniteInput

from conftest import balance_columns, batch, random_dataset


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

    def test_arrays_are_kept_in_c_order(self, rng):
        # A Fortran-ordered covariate matrix is copied to C order, so every
        # result is that of the same values in C order, bit for bit.
        ds = random_dataset(rng, 40, 3)
        fortran = Dataset(treatment=ds.treatment, covariates=np.asfortranarray(ds.covariates))
        assert fortran.covariates.flags.c_contiguous
        G, G_fortran = standardize(ds), standardize(fortran)
        assert G.tobytes() == G_fortran.tobytes()

    def test_default_names_and_ids(self):
        ds = Dataset(treatment=np.arange(6.0), covariates=np.arange(6.0).reshape(-1, 1) ** 2)
        assert ds.column_names == ("T", "X1", "Y")
        assert list(ds.unit_ids) == list(range(6))
        assert ds.n == 6 and ds.k == 1

    def test_subset_repeats_and_ids(self):
        ds = Dataset(
            treatment=np.arange(6.0),
            covariates=np.arange(6.0).reshape(-1, 1) ** 2,
            unit_ids=tuple("abcdef"),
        )
        sub = ds.subset([5, 0, 0, 1, 2, 3])
        assert list(sub.unit_ids) == ["f", "a", "a", "b", "c", "d"]
        npt.assert_array_equal(sub.treatment, [5, 0, 0, 1, 2, 3])

    def test_ids_cannot_change_under_the_dataset(self):
        t, x = np.arange(4.0), np.arange(4.0).reshape(-1, 1) ** 2
        given = np.array(["a", "b", "c", "d"], dtype=np.dtypes.StringDType())
        ds = Dataset(t, x, unit_ids=given)
        given[0] = "z"
        assert ds.unit_ids.tolist() == ["a", "b", "c", "d"]
        assert not ds.unit_ids.flags.writeable
        assert not ds.subset([3, 0]).unit_ids.flags.writeable
        # A read-only array that owns its data is kept; a read-only view is copied.
        given.setflags(write=False)
        assert Dataset(t, x, unit_ids=given).unit_ids is given
        view = given[::-1]
        assert Dataset(t, x, unit_ids=view).unit_ids is not view
        # Other sequences become tuples, as do iterables; a range is kept.
        ids = ["a", "b", "c", "d"]
        assert Dataset(t, x, unit_ids=ids).unit_ids == tuple(ids)
        assert Dataset(t, x, unit_ids=iter(ids)).unit_ids == tuple(ids)
        assert Dataset(t, x, unit_ids=range(10, 14)).unit_ids == range(10, 14)
        assert Dataset(t, x, unit_ids={"a": 0, "b": 1, "c": 2, "d": 3}).subset([3, 0]).unit_ids == ("d", "a")

    def test_a_batch_keeps_read_only_arrays_and_checks_its_shapes(self, rng):
        t, x, y = rng.standard_normal((3, 12)), rng.standard_normal((3, 12, 2)), np.ones((3, 12))
        writable = Dataset(treatment=t, covariates=x, outcome=y)
        assert (writable.n, writable.k) == (12, 2)
        assert writable.treatment is not t and not writable.treatment.flags.writeable
        for array in (t, x, y):
            array.setflags(write=False)
        batch = Dataset(treatment=t, covariates=x, outcome=y)
        assert batch.treatment is t and batch.covariates is x and batch.outcome is y
        # A read-only row of a read-only batch is kept too; a strided view is copied.
        row = Dataset(treatment=t[1], covariates=x[1])
        assert np.shares_memory(row.treatment, t) and np.shares_memory(row.covariates, x)
        assert not np.shares_memory(Dataset(treatment=t[1], covariates=x[1, :, ::-1]).covariates, x)
        with pytest.raises(ValueError, match="outcome has shape"):
            Dataset(treatment=t, covariates=x, outcome=y[:2])
        with pytest.raises(ValueError, match="covariates have shape"):
            Dataset(treatment=t[0], covariates=x)
        with pytest.raises(NonFiniteInput):
            Dataset(treatment=np.where(np.eye(3, 12) > 0, np.nan, t), covariates=x)

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
        assert list(sub.unit_ids) == list(rows.unit_ids)
        assert sub.column_names == rows.column_names
        assert ds.subset([1, 2]).outcome.shape == (2,)
        no_outcome = Dataset(ds.treatment, ds.covariates).subset([0, 0, 1])
        assert no_outcome.outcome is None and list(no_outcome.unit_ids) == [0, 0, 1]

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


    def test_a_sum_off_one_is_named_lone_or_stacked(self):
        # A lone weighting's total is a numpy scalar and a stack's a (B,)
        # array; both are checked, and the message shows the total.
        lone = np.array([0.25, 0.75 + 2e-12])
        total = np.add.reduce(lone)
        with pytest.raises(ValueError) as caught:
            BalancingWeights(lone, np.zeros(3), True, 3, 1e-9, "ebct")
        assert str(caught.value) == f"weights must sum to 1, got {total!r}"
        stack = np.array([[0.25, 0.75], [0.5, 0.5 - 2e-12]])
        with pytest.raises(ValueError) as caught:
            BalancingWeights(stack, np.zeros((2, 3)), True, [3, 4], [0.0, 0.0], "ebct")
        assert str(caught.value) == f"weights must sum to 1, got {stack.sum(axis=-1)!r}"
        # Within the tolerance both are kept.
        BalancingWeights(np.array([0.25, 0.75 + 5e-13]), np.zeros(3), True, 3, 1e-9, "ebct")
        near = stack + [[0.0, 0.0], [0.0, 1.5e-12]]
        BalancingWeights(near, np.zeros((2, 3)), True, [3, 4], [0.0, 0.0], "ebct")

    def test_a_stack_checks_every_row_and_gives_lone_rows(self):
        weights = np.array([[0.25, 0.75], [0.5, 0.5]])
        stack = BalancingWeights(weights, np.zeros((2, 3)), True, [3, 4], [1e-9, 2e-9], "ebct")
        assert stack.n == 2 and stack.gamma.shape == (2, 3)
        assert stack.iterations.tolist() == [3, 4]
        row = stack.row(1)
        assert row.weights.base is stack.weights and row.gamma.shape == (3,)
        assert (row.iterations, row.final_gradient_norm) == (4, 2e-9)
        assert isinstance(row.iterations, int) and isinstance(row.final_gradient_norm, float)
        for bad, message in (([[0.25, 0.75], [0.5, 0.6]], "sum to 1"),
                             ([[0.25, 0.75], [1.0, 0.0]], "strictly positive")):
            with pytest.raises(ValueError, match=message):
                BalancingWeights(np.array(bad), np.zeros((2, 3)), True, [3, 4], [0.0, 0.0], "ebct")

    def test_a_stack_broadcasts_lone_provenance_over_its_rows(self):
        weights = np.array([[0.25, 0.75], [0.5, 0.5], [0.125, 0.875]])
        stack = BalancingWeights(weights, np.array([0.5, -1.0]), True, 7, 3e-9, "ebct")
        assert stack.gamma.shape == (3, 2) and stack.gamma.flags.c_contiguous
        assert stack.iterations.tolist() == [7] * 3
        assert stack.final_gradient_norm.tolist() == [3e-9] * 3
        for array in (stack.gamma, stack.iterations, stack.final_gradient_norm):
            assert not array.flags.writeable
        row = stack.row(2)
        assert row.gamma.tolist() == [0.5, -1.0]
        assert (row.iterations, row.final_gradient_norm) == (7, 3e-9)
        empty = BalancingWeights(weights, np.empty(0), True, 0, float("nan"), "ipw")
        assert empty.gamma.shape == (3, 0) and empty.row(0).gamma.shape == (0,)
        with pytest.raises(ValueError):
            BalancingWeights(weights, np.zeros((2, 2)), True, [1, 2], [0.0, 0.0], "ebct")



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
        stack = standardize(batch(group))
        assert stack.shape == (3, 40, 7)
        assert not stack.flags.writeable
        for dataset, matrix in zip(group, stack):
            assert matrix.tobytes() == standardize(dataset).tobytes()
        assert standardize(batch(group[:1]))[0].tobytes() == standardize(group[0]).tobytes()

    def test_group_raises_for_its_first_failing_dataset(self, rng):
        good = random_dataset(rng, 12, 2)
        constant = Dataset(
            treatment=rng.standard_normal(12),
            covariates=np.column_stack([rng.standard_normal(12), np.full(12, 3.0)]),
        )
        with pytest.raises(ConstantColumn, match="X2"):
            standardize(batch([good, constant, good]))
        # A batch's samples share n and K by construction.
        with pytest.raises(ValueError, match="covariates have shape"):
            Dataset(treatment=np.ones((2, 12)), covariates=np.ones((2, 13, 2)))
        with pytest.raises(ValueError, match="covariates have shape"):
            Dataset(treatment=np.ones((3, 12)), covariates=np.ones((2, 12, 2)))

    def test_row_blocks_keep_the_bits(self, rng, monkeypatch):
        # G's strided columns are written in blocks of rows: many blocks and
        # a ragged last one give the bits of one block, counted or not.
        ds = random_dataset(rng, 300, 3)
        group = batch([random_dataset(rng, 300, 3) for _ in range(4)])
        counts = rng.integers(0, 3, 300)

        def resampled():
            return data.resample(standardize(ds), counts, ds.column_names)[2]

        expected = [standardize(ds), standardize(group), resampled()]
        monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
        got = [standardize(ds), standardize(group), resampled()]
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def test_permutation_permutes_rows(self, rng):
        ds = random_dataset(rng, 30, 2)
        perm = rng.permutation(30)
        shuffled = Dataset(treatment=ds.treatment[perm], covariates=ds.covariates[perm])
        npt.assert_allclose(
            standardize(shuffled),
            standardize(ds)[perm],
            atol=1e-13,
        )


class TestStandardizeMemory:
    # What standardize allocates beside the matrix it returns, traced, as a
    # fraction of that matrix.

    def working_memory(self, datasets):
        tracemalloc.start()
        try:
            G = standardize(datasets)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return G, (peak - current) / G.nbytes

    def test_plain_dataset_has_no_deviation_copy(self, rng):
        # The deviations go straight into G; an n x K copy of them alone is
        # 0.48 G.nbytes at K = 10.
        G, fraction = self.working_memory(random_dataset(rng, 50_000, 10))
        assert G.shape == (50_000, 21)
        assert fraction < 0.2, fraction

    def test_stacked_block_is_not_buffered(self, rng):
        # One block of a simulation group, read as views of the batch's own
        # arrays: stacked copies of its treatments and covariates took 0.52
        # G.nbytes, and numpy's buffers for ufuncs over G's strided 3-d
        # column slices 0.6 G.nbytes more.
        G, fraction = self.working_memory(batch([random_dataset(rng, 200, 10) for _ in range(10)]))
        assert G.shape == (10, 200, 21)
        assert fraction < 0.25, fraction


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
