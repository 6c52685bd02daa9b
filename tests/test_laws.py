"""Law representation, marginals, TV distance, sampling, estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from weakdep import (
    DiscreteLaw,
    SupportSpec,
    estimate,
    marginal,
    sample,
    tv_distance,
    validate,
)
from weakdep import confsets
from weakdep.errors import (
    CollinearSupport,
    SupportMismatch,
)
from weakdep.laws import _live_cells, _reduce_short, check_counts, law_from_dict, law_to_dict

from helpers import (
    dataset_from_rows,
    empirical_law,
    late_law,
    random_law,
    random_support,
    serial_sample,
)


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

    def test_cached_constants_are_read_only(self):
        law = late_law()
        support = law.support
        cached = [support.y_cell_means, *confsets._coordinates(support), *_live_cells(law)]
        assert all(not array.flags.writeable for array in cached)
        # computed once: a second call returns the same arrays
        assert support.y_cell_means is support.y_cell_means
        assert confsets._coordinates(support)[0] is cached[1]
        assert _live_cells(law)[1] is cached[-1]


# float64 values over the whole exponent range, with both zeros, both
# infinities, NaN and subnormals; and values of one scale, whose sums
# round otherwise in another order
_FLOATS = (
    st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1e-310]),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    ),
    st.floats(-1.0, 1.0),
)


def _bits(values):
    """The bytes of an array, every NaN made the one NaN: which of two NaN
    operands a sum keeps (their sign bits may differ, as inf - inf gives
    -nan) depends on the order numpy hands operands to the machine."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        values = np.where(np.isnan(values), np.nan, values)
    return values.tobytes()


class TestReduceShort:
    """The short-axis reduction has numpy's bits: ndarray.sum's on every axis
    of every layout, and any's and all's on booleans."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(data=st.data(), dtype=st.sampled_from(["spread", "scale", "int64", "bool"]),
           layout=st.sampled_from(["C", "swapaxes", "reversed"]))
    def test_same_bits_as_numpy(self, data, dtype, layout):
        shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=12)
                          .filter(lambda shape: np.prod(shape) <= 2000), label="shape")
        elements = {"spread": _FLOATS[0], "scale": _FLOATS[1],
                    "int64": st.integers(-2**40, 2**40), "bool": st.booleans()}[dtype]
        dtype = "float64" if dtype in ("spread", "scale") else dtype
        x = data.draw(hnp.arrays(dtype, shape, elements=elements, fill=st.nothing()),
                      label="x")
        if layout == "swapaxes":
            x = x.swapaxes(0, -1)
        elif layout == "reversed" and x.ndim > 1:
            x = x[:, ::-1]
        for axis in range(-x.ndim, x.ndim):
            with np.errstate(all="ignore"):
                got, want = _reduce_short(np.add, x, axis), x.sum(axis=axis)
            assert np.asarray(got).dtype == want.dtype
            assert _bits(got) == _bits(want), axis
            if dtype == "bool":
                for ufunc, method in ((np.logical_or, x.any), (np.logical_and, x.all)):
                    assert np.array_equal(_reduce_short(ufunc, x, axis), method(axis=axis))

    def test_long_innermost_axis_is_summed_pairwise(self):
        # numpy sums 8 or more innermost values pairwise, which rounds these
        # otherwise than a sum in index order
        x = np.array([[1.0] + [2.0**-53] * 15] * 3)
        in_order = x[:, 0].copy()
        for i in range(1, x.shape[1]):
            in_order = in_order + x[:, i]
        assert x.sum(axis=-1).tobytes() != in_order.tobytes()
        assert _reduce_short(np.add, x, -1).tobytes() == x.sum(axis=-1).tobytes()


class TestLawDict:
    def test_json_numbers_are_taken_as_written(self):
        """Integers, also beyond 64 bits, are numbers, and k_* may be an
        integer-valued float; strings and booleans are refused."""
        d = law_to_dict(uniform_law())
        d["support"]["mu_x"] = [10**20]
        d["support"]["k_y"] = 2.0
        d["mass"] = [1] + [0] * 7
        law = law_from_dict(d)
        assert law.support.mu_x.tolist() == [1e20]
        assert law.mass.ravel().tolist() == [1.0] + [0.0] * 7
        for key, value in (("mu_x", [10**20, True]), ("mu_x", ["1"]), ("k_y", 2.5)):
            bad = law_to_dict(uniform_law())
            bad["support"][key] = value
            with pytest.raises(ValueError):
                law_from_dict(bad)


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


def sparse_law(shape, law_seed):
    """Random law on a random (k_y, k, k, k_x) support with about half of
    its cells at zero mass."""
    k_y, k, k_x = shape
    rng = np.random.default_rng(law_seed)
    support = random_support(rng, k_y, k, k, k_x)
    raw = rng.gamma(2.0, size=support.shape) * (rng.random(support.shape) < 0.5)
    raw.flat[rng.integers(raw.size)] += 1.0
    return DiscreteLaw(support, raw / raw.sum())


class TestSample:
    def test_point_mass_rows_identical(self):
        support = unit_support()
        mass = np.zeros(support.shape)
        mass[1, 0, 1, 0] = 1.0
        counts = sample(DiscreteLaw(support, mass), 50, seed=0)
        assert counts.sum() == 50
        assert counts[0, :, 1, 0, 1, 0].tolist() == [25, 25]

    def test_same_seed_identical(self):
        law = late_law()
        a = sample(law, 1000, seed=42)
        b = sample(law, 1000, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_frequencies_within_clt_band(self):
        rng = np.random.default_rng(15)
        law = random_law(rng, 2, 2, 2, 2)
        n = 10**5
        counts = sample(law, n, seed=123)
        emp = estimate(counts.sum(axis=1), law.support)[0]
        p = law.mass
        band = 4.0 * np.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(emp - p) <= band)

    def test_n_up_to_two_to_the_53(self):
        """Counts and n stay exact in float64 up to n = 2**53; beyond it, or
        at n = 0, sample refuses the size instead of overflowing."""
        law = late_law()
        counts = sample(law, 2**53, seed=5)
        assert int(counts.sum()) == 2**53
        assert float(counts.sum()) == 2.0**53
        for n in (0, 2**53 + 1, 2**63, 10**30):
            with pytest.raises(ValueError, match="n must lie in"):
                sample(law, n, seed=5)

    @pytest.mark.parametrize("n, reps, seed, what", [
        (100.5, 1, 5, "n"), (100.0, 1, 5, "n"), (True, 1, 5, "n"),
        (100, 2.5, 5, "reps"), (100, True, 5, "reps"),
        (100, 1, 1.5, "seed"), (100, 1, True, "seed"),
    ])
    def test_sizes_and_seed_are_integers(self, n, reps, seed, what):
        """A fractional or boolean n, reps or numeric seed is refused, not
        rounded or read as 0 or 1; numpy integers and a Generator are
        taken as they are."""
        law = late_law()
        with pytest.raises(ValueError, match=f"{what} must be an integer"):
            sample(law, n, seed, reps=reps)
        np.testing.assert_array_equal(
            sample(law, np.int64(100), np.random.default_rng(np.int32(5)), reps=np.int8(2)),
            sample(law, 100, 5, reps=2))

    def test_counts_on_the_support_grid(self):
        rng = np.random.default_rng(16)
        support = random_support(rng, 3, 2, 2, 1)
        law = random_law(rng, support=support)
        counts = sample(law, 500, seed=3)
        assert counts.shape == (1, 2) + support.shape
        assert counts.dtype == np.int64

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3)),
        law_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_folds_and_support_of_a_draw(self, shape, law_seed, n, seed):
        """Fold sizes are n // 2 and n - n // 2, zero-mass cells take no
        draw, and the same seed gives the same counts."""
        law = sparse_law(shape, law_seed)
        counts = sample(law, n, seed)
        assert counts[0].reshape(2, -1).sum(axis=1).tolist() == [n // 2, n - n // 2]
        assert not counts[:, :, law.mass == 0.0].any()
        np.testing.assert_array_equal(sample(law, n, seed), counts)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3)),
        law_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_sample_stream_is_the_serial_one(self, shape, law_seed, n, seed):
        """One sample is drawn from the same bits as two multinomial calls,
        one per fold, and is the first row of a block drawn from the same
        seed."""
        law = sparse_law(shape, law_seed)
        counts = sample(law, n, seed)
        np.testing.assert_array_equal(counts[0], serial_sample(law, n, seed))
        np.testing.assert_array_equal(counts, sample(law, n, seed, reps=3)[:1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 3)),
        law_seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 10**6),
        split=st.tuples(st.integers(0, 6), st.integers(1, 6)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocks_continue_one_stream(self, shape, law_seed, n, split, seed):
        """Blocks of a and b replications drawn in turn from one generator
        are the block of a + b drawn at once; every (replication, fold) holds
        n // 2 or n - n // 2 draws, and zero-mass cells none."""
        law = sparse_law(shape, law_seed)
        a, b = split
        rng = np.random.default_rng(seed)
        parts = [sample(law, n, rng, reps=a), sample(law, n, rng, reps=b)]
        whole = sample(law, n, np.random.default_rng(seed), reps=a + b)
        assert whole.shape == (a + b, 2) + law.support.shape
        assert whole.dtype == np.int64
        np.testing.assert_array_equal(np.concatenate(parts), whole)
        fold_sizes = whole.reshape(a + b, 2, -1).sum(axis=2)
        assert (fold_sizes == [n // 2, n - n // 2]).all()
        assert not whole[:, :, law.mass == 0.0].any()

    def test_moments_over_many_draws(self):
        """Over 4,000 draws each cell's empirical mass averages to the law's
        mass, and the two folds' counts are uncorrelated, both within 4
        standard errors."""
        rng = np.random.default_rng(19)
        law = random_law(rng, 2, 2, 2, 2)
        n, reps = 31, 4000
        draws = [sample(law, n, seed=(19, r))[0] for r in range(reps)]
        mass = np.array([empirical_law(counts, law.support).mass for counts in draws])
        p = law.mass
        se = np.sqrt(p * (1.0 - p) / n / reps)
        assert np.all(np.abs(mass.mean(axis=0) - p) <= 4.0 * se)
        folds = np.array([counts.reshape(2, -1) for counts in draws], dtype=float)
        centred = folds - folds.mean(axis=0)
        cov = np.einsum("ra,rb->ab", centred[:, 0], centred[:, 1]) / reps
        sd = centred.std(axis=0)
        corr = cov / np.outer(sd[0], sd[1])
        assert np.all(np.abs(corr) <= 4.0 / np.sqrt(reps))


class TestEstimate:
    def test_rejects_negative_or_fractional_counts(self):
        support = unit_support()
        shape = (2,) + support.shape
        for bad in (-1, 0.5, np.nan, np.inf):
            counts = np.zeros(shape)
            counts[1, 0, 1, 0, 0] = bad
            with pytest.raises(ValueError):
                estimate(counts, support)
        with pytest.raises(ValueError):
            estimate(np.zeros((3, 2, 2, 1), int), support)
        assert check_counts(np.full(shape, 2.0), support).dtype == np.int64
        np.testing.assert_array_equal(estimate(np.full(shape, 2.0), support),
                                      estimate(np.full(shape, 2), support))

    def test_each_tensor_over_its_own_total(self):
        """Any leading axes: each (k_y, k_z, k_w, k_x) tensor is divided by
        its own total, and a tensor without draws has zero masses."""
        support = unit_support()
        counts = np.zeros((3, 2) + support.shape, dtype=np.int64)
        counts[0, 0, 1, 0, 1, 0] = 3
        counts[0, 1, 0, 1, 0, 0] = 1
        counts[0, 1, 1, 1, 1, 0] = 3
        counts[2] = 7
        mass = estimate(counts, support)
        assert mass.shape == counts.shape
        assert mass[0, 0, 1, 0, 1, 0] == 1.0
        assert (mass[0, 1, 0, 1, 0, 0], mass[0, 1, 1, 1, 1, 0]) == (0.25, 0.75)
        assert not mass[1].any()
        assert (mass[2] == 1.0 / support.n_cells).all()

    def test_identical_rows_point_mass(self):
        support = unit_support()
        counts = dataset_from_rows(
            y=np.ones(20), z=np.zeros(20, int), w=np.ones(20, int),
            x=np.zeros(20, int), support=support,
        )
        mass = estimate(counts.sum(axis=1), support)[0]
        assert mass[1, 0, 1, 0] == 1.0
        assert mass.sum() == pytest.approx(1.0)

    def test_round_trip_tv(self):
        rng = np.random.default_rng(17)
        law = random_law(rng, 2, 2, 2, 1)
        counts = sample(law, 10**6, seed=6)
        assert tv_distance(empirical_law(counts, law.support), law) < 0.005

    def test_rows_outside_support_rejected(self):
        support = unit_support()
        with pytest.raises(ValueError):
            dataset_from_rows(y=np.array([0.37]), z=np.array([0]), w=np.array([0]),
                              x=np.array([0]), support=support)
        with pytest.raises(ValueError):
            dataset_from_rows(y=np.array([1.0]), z=np.array([2]), w=np.array([0]),
                              x=np.array([0]), support=support)

    def test_counts_must_match_the_support(self):
        counts = sample(late_law(), 10, seed=0)
        with pytest.raises(ValueError):
            estimate(counts, random_support(np.random.default_rng(0), 3, 2, 2, 1))
