"""Law representation, marginals, TV distance, sampling, estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (
    DiscreteLaw,
    SupportSpec,
    estimate,
    marginal,
    sample,
    tv_distance,
    validate,
)
from weakdep.errors import (
    CollinearSupport,
    EmptyDataset,
    SupportMismatch,
)
from weakdep.laws import Dataset

from helpers import dataset_from_rows, late_law, random_law, random_support


def unit_support():
    return SupportSpec(
        mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
    )


def uniform_law():
    support = unit_support()
    return DiscreteLaw(support, np.full(support.shape, 1.0 / 8.0))


class TestSupportSpec:
    def test_rejects_nonpositive_measures(self):
        with pytest.raises(ValueError):
            SupportSpec(mu_y=[1, 0], mu_z=[1], mu_w=[1], mu_x=[1], iota_y=[0, 1])

    def test_rejects_unequal_zw(self):
        with pytest.raises(ValueError):
            SupportSpec(mu_y=[1, 1], mu_z=[1, 1], mu_w=[1], mu_x=[1], iota_y=[0, 1])

    def test_rejects_collinear_iota(self):
        with pytest.raises(CollinearSupport):
            SupportSpec(
                mu_y=[1.0, 2.0], mu_z=[1], mu_w=[1], mu_x=[1], iota_y=[0.5, 1.0]
            )

    def test_single_y_cell_rejected(self):
        with pytest.raises(ValueError):
            SupportSpec(mu_y=[1.0], mu_z=[1], mu_w=[1], mu_x=[1], iota_y=[1.0])


class TestValidate:
    def test_uniform_law_valid(self):
        assert validate(uniform_law()) == []

    def test_negative_entry_reported(self):
        support = unit_support()
        mass = np.full(support.shape, 1.0 / 8.0)
        mass[0, 0, 0, 0] = -0.1
        mass[1, 1, 1, 0] += 0.225   # keep the total at 1
        violations = validate(DiscreteLaw(support, mass))
        assert any("negative mass at (0, 0, 0, 0)" in v for v in violations)

    def test_bad_total_reported(self):
        support = unit_support()
        mass = np.full(support.shape, 0.98 / 8.0)
        violations = validate(DiscreteLaw(support, mass))
        assert any(v.startswith("total mass 0.98") for v in violations)


class TestMarginal:
    def test_uniform_zx(self):
        got = marginal(uniform_law(), ("Z", "X"))
        assert got.shape == (2, 1)
        np.testing.assert_allclose(got, 0.5)

    def test_product_law_factorizes(self):
        rng = np.random.default_rng(3)
        support = random_support(rng, 3, 2, 2, 2)
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(2))
        c = rng.dirichlet(np.ones(2))
        d = rng.dirichlet(np.ones(2))
        mass = np.einsum("h,l,j,m->hljm", a, b, c, d)
        law = DiscreteLaw(support, mass)
        np.testing.assert_allclose(marginal(law, ("Y",)), a, atol=1e-15)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(4)
        law = random_law(rng, 3, 2, 2, 2)
        got = marginal(law, ("W", "X"))
        expect = np.zeros((2, 2))
        for j in range(2):
            for m in range(2):
                expect[j, m] = sum(
                    law.mass[h, l, j, m] for h in range(3) for l in range(2)
                )
        np.testing.assert_allclose(got, expect, atol=1e-15)
        assert abs(got.sum() - 1.0) < 1e-10

    def test_nonnegative_and_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            law = random_law(rng, 3, 3, 3, 2)
            for which in (("Y",), ("Z", "X"), ("Y", "W"), ("W", "X")):
                out = marginal(law, which)
                assert np.all(out >= 0.0)
                assert abs(out.sum() - 1.0) < 1e-10


class TestDivergences:
    def test_tv_identical_zero(self):
        law = uniform_law()
        assert tv_distance(law, law) == 0.0

    def test_tv_disjoint_point_masses(self):
        support = unit_support()
        a = np.zeros(support.shape)
        b = np.zeros(support.shape)
        a[0, 0, 0, 0] = 1.0
        b[1, 1, 1, 0] = 1.0
        assert tv_distance(DiscreteLaw(support, a), DiscreteLaw(support, b)) == 1.0

    def test_tv_support_mismatch(self):
        rng = np.random.default_rng(11)
        with pytest.raises(SupportMismatch):
            tv_distance(random_law(rng, 2, 2, 2, 1), random_law(rng, 2, 2, 2, 1))

    def test_tv_equals_subset_enumeration_oracle(self):
        # sup over events of the probability gap, brute forced on <= 12 cells
        rng = np.random.default_rng(12)
        support = random_support(rng, 3, 2, 2, 1)
        for _ in range(5):
            a = random_law(rng, support=support)
            b = random_law(rng, support=support)
            diff = (a.mass - b.mass).ravel()
            best = max(
                abs(sum(diff[i] for i in range(diff.size) if mask >> i & 1))
                for mask in range(1 << diff.size)
            )
            assert tv_distance(a, b) == pytest.approx(best, abs=1e-12)

    def test_tv_metric_properties(self):
        rng = np.random.default_rng(14)
        support = random_support(rng, 2, 2, 2, 1)
        for _ in range(25):
            a, b, c = (random_law(rng, support=support) for _ in range(3))
            assert tv_distance(a, b) == pytest.approx(tv_distance(b, a), abs=1e-15)
            assert tv_distance(a, c) <= tv_distance(a, b) + tv_distance(b, c) + 1e-12
            assert tv_distance(a, a) == 0.0


class TestSample:
    def test_point_mass_rows_identical(self):
        support = unit_support()
        mass = np.zeros(support.shape)
        mass[1, 0, 1, 0] = 1.0
        ds = sample(DiscreteLaw(support, mass), 50, seed=0)
        assert len(ds) == 50
        assert ds.counts[:, 1, 0, 1, 0].tolist() == [25, 25]

    def test_same_seed_identical(self):
        law = late_law()
        a = sample(law, 1000, seed=42)
        b = sample(law, 1000, seed=42)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_frequencies_within_clt_band(self):
        rng = np.random.default_rng(15)
        law = random_law(rng, 2, 2, 2, 2)
        n = 10**5
        ds = sample(law, n, seed=123)
        emp = estimate(ds, law.support)
        p = law.mass
        band = 4.0 * np.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(emp.mass - p) <= band)

    def test_n_up_to_two_to_the_53(self):
        """Counts and n stay exact in float64 up to n = 2**53; beyond it, or
        at n = 0, sample refuses the size instead of overflowing."""
        law = late_law()
        ds = sample(law, 2**53, seed=5)
        assert int(ds.counts.sum()) == 2**53
        assert float(ds.counts.sum()) == 2.0**53
        for n in (0, 2**53 + 1, 2**63, 10**30):
            with pytest.raises(ValueError, match="n must lie in"):
                sample(law, n, seed=5)

    def test_counts_on_the_support_grid(self):
        rng = np.random.default_rng(16)
        support = random_support(rng, 3, 2, 2, 1)
        law = random_law(rng, support=support)
        ds = sample(law, 500, seed=3)
        assert ds.counts.shape == (2,) + support.shape
        assert ds.counts.dtype == np.int64
        assert not ds.counts.flags.writeable

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3)),
        law_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folds_and_support_of_a_draw(self, shape, law_seed, n, seed):
        """Fold sizes are n // 2 and n - n // 2 (and fold() splits the counts
        into them), zero-mass cells take no draw, and the same seed gives
        the same counts."""
        k_y, k, k_x = shape
        rng = np.random.default_rng(law_seed)
        support = random_support(rng, k_y, k, k, k_x)
        raw = rng.gamma(2.0, size=support.shape) * (rng.random(support.shape) < 0.5)
        raw.flat[rng.integers(raw.size)] += 1.0
        law = DiscreteLaw(support, raw / raw.sum())
        ds = sample(law, n, seed)
        a, b = ds.fold(0), ds.fold(1)
        assert (len(a), len(b)) == (n // 2, n - n // 2)
        assert not a.counts[1].any() and not b.counts[0].any()
        np.testing.assert_array_equal(a.counts + b.counts, ds.counts)
        assert not ds.counts[:, law.mass == 0.0].any()
        np.testing.assert_array_equal(sample(law, n, seed).counts, ds.counts)

    def test_moments_over_many_draws(self):
        """Over 4,000 draws each cell's empirical mass averages to the law's
        mass, and the two folds' counts are uncorrelated, both within 4
        standard errors."""
        rng = np.random.default_rng(19)
        law = random_law(rng, 2, 2, 2, 2)
        n, reps = 31, 4000
        draws = [sample(law, n, seed=(19, r)) for r in range(reps)]
        mass = np.array([estimate(ds, law.support).mass for ds in draws])
        p = law.mass
        se = np.sqrt(p * (1.0 - p) / n / reps)
        assert np.all(np.abs(mass.mean(axis=0) - p) <= 4.0 * se)
        folds = np.array([ds.counts.reshape(2, -1) for ds in draws], dtype=float)
        centred = folds - folds.mean(axis=0)
        cov = np.einsum("ra,rb->ab", centred[:, 0], centred[:, 1]) / reps
        sd = centred.std(axis=0)
        corr = cov / np.outer(sd[0], sd[1])
        assert np.all(np.abs(corr) <= 4.0 / np.sqrt(reps))


class TestDataset:
    def test_rejects_negative_or_fractional_counts(self):
        shape = (2, 2, 2, 2, 1)
        for bad in (-1, 0.5, np.nan, np.inf):
            counts = np.zeros(shape)
            counts[1, 0, 1, 0, 0] = bad
            with pytest.raises(ValueError):
                Dataset(counts)
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 2, 2, 2, 1), int))
        ds = Dataset(np.full(shape, 2.0))
        assert ds.counts.dtype == np.int64 and len(ds) == 32


class TestEstimate:
    def test_identical_rows_point_mass(self):
        support = unit_support()
        ds = dataset_from_rows(
            y=np.ones(20), z=np.zeros(20, int), w=np.ones(20, int),
            x=np.zeros(20, int), support=support,
        )
        law = estimate(ds, support)
        assert law.mass[1, 0, 1, 0] == 1.0
        assert law.mass.sum() == pytest.approx(1.0)

    def test_round_trip_tv(self):
        rng = np.random.default_rng(17)
        law = random_law(rng, 2, 2, 2, 1)
        ds = sample(law, 10**6, seed=6)
        assert tv_distance(estimate(ds, law.support), law) < 0.005

    def test_empty_dataset(self):
        support = unit_support()
        ds = dataset_from_rows(y=np.zeros(0), z=np.zeros(0, int), w=np.zeros(0, int),
                               x=np.zeros(0, int), support=support)
        with pytest.raises(EmptyDataset):
            estimate(ds, support)

    def test_rows_outside_support_rejected(self):
        support = unit_support()
        with pytest.raises(ValueError):
            dataset_from_rows(y=np.array([0.37]), z=np.array([0]), w=np.array([0]),
                              x=np.array([0]), support=support)
        with pytest.raises(ValueError):
            dataset_from_rows(y=np.array([1.0]), z=np.array([2]), w=np.array([0]),
                              x=np.array([0]), support=support)

    def test_counts_must_match_the_support(self):
        ds = sample(late_law(), 10, seed=0)
        with pytest.raises(ValueError):
            estimate(ds, random_support(np.random.default_rng(0), 3, 2, 2, 1))
