"""Interval arithmetic, the normal quantile, and the three constructors."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import (
    DiscreteLaw,
    FunctionalSpec,
    SupportSpec,
    estimate,
    generate_sequence,
    sample,
)
from weakdep import functionals
from weakdep.errors import ZeroConditioningMass
from weakdep.confsets import (
    FULL_LINE,
    REASONS,
    Interval,
    binary_union_estimand,
    binary_union_set,
    interval_arrays,
    normal_quantile,
    score_invert_late,
    wald_ci,
    _quadratic_sublevel,
    _region_arrays,
)
from helpers import (
    EmptySample,
    Rows,
    acceptance_base,
    as_result,
    binary_x_law,
    case_interval_div,
    compositions,
    dataset_from_rows,
    diameter,
    divide_boxes,
    empirical_law,
    fixed_arrays,
    interval_add,
    intersect,
    kind_spec,
    kind_support,
    late_law,
    late_support,
    pieces,
    random_base,
    region_from_intervals,
    row_binary_union_set,
    row_score_invert_late,
    row_wald_ci,
    serial_binary_union_set,
    serial_interval_div,
    serial_quadratic_sublevel,
    serial_score_invert_late,
    serial_wald_ci,
    svd_solve_strata,
    wald_ratio,
)

INF = float("inf")


class TestNormalQuantile:
    def test_against_scipy_oracle(self):
        ps = np.concatenate([
            np.linspace(1e-12, 1 - 1e-12, 2001),
            [1e-9, 1e-6, 0.025, 0.5, 0.975, 1 - 1e-6, 1 - 1e-9],
        ])
        for p in ps:
            assert normal_quantile(float(p)) == pytest.approx(
                scipy.stats.norm.ppf(p), abs=1e-9
            )

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p),
                                                       abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)
        with pytest.raises(ValueError):
            normal_quantile(float("nan"))


def _div_oracle(num, den, quotient, grid_points=300):
    """Dense-sampling check of the division image."""
    s_vals = np.linspace(num.lo, num.hi, grid_points)
    t_parts = []
    if den.lo < 0.0:
        t_parts.append(np.linspace(den.lo, min(den.hi, -1e-9), grid_points))
    if den.hi > 0.0:
        t_parts.append(np.linspace(max(den.lo, 1e-9), den.hi, grid_points))
    if not t_parts:
        assert quotient == ()
        return
    ratios = np.concatenate([
        (s_vals[:, None] / t[None, :]).ravel() for t in t_parts
    ])
    # every sampled ratio lies inside some piece
    scale = np.maximum(1.0, np.abs(ratios))
    inside = np.zeros(ratios.size, dtype=bool)
    for iv in quotient:
        inside |= (ratios >= iv.lo - 1e-9 * scale) & (ratios <= iv.hi + 1e-9 * scale)
    assert inside.all()
    # every finite endpoint is attained by a sample
    for iv in quotient:
        for endpoint in (iv.lo, iv.hi):
            if math.isfinite(endpoint):
                gap = np.min(np.abs(ratios - endpoint))
                assert gap <= 1e-9 * max(1.0, abs(endpoint))


def _div(num, den):
    """The package's division of one pair of intervals."""
    (quotient,) = divide_boxes([(num, den)])
    return quotient


def _ordered(pair):
    return Interval(min(pair), max(pair))


_ENDS = st.one_of(st.floats(-60.0, 60.0), st.sampled_from([-INF, INF]))
# finite endpoints, zero among them often enough to reach every branch
_FINITE = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
_FINITE_INTERVALS = st.tuples(_FINITE, _FINITE).map(_ordered)
# the same with infinite endpoints
_EXTENDED = st.one_of(_FINITE, st.sampled_from([-INF, INF]))
_EXTENDED_INTERVALS = st.tuples(_EXTENDED, _EXTENDED).map(_ordered)


def _points(iv, fractions):
    """The endpoints of iv and a point inside it per fraction: at that
    fraction of its length, or, when the length is infinite, the fraction's
    point on a tangent scale clamped into iv."""
    if math.isfinite(iv.hi - iv.lo):
        inner = [iv.lo + f * (iv.hi - iv.lo) for f in fractions]
    else:
        inner = [1e3 * math.tan(math.pi * (f - 0.5)) for f in fractions]
    return [iv.lo, iv.hi] + [min(max(x, iv.lo), iv.hi) for x in inner]


class TestIntervalArithmetic:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(
        num=_EXTENDED_INTERVALS,
        den=_EXTENDED_INTERVALS,
        u=st.lists(st.floats(0.0, 1.0), max_size=4),
        v=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_div_contains_every_quotient(self, num, den, u, v):
        # division rounds monotonically, so the computed quotients lie in the
        # computed pieces without any tolerance; an infinite s over an
        # infinite t has no value
        quotient = _div(num, den)
        for t in _points(den, v):
            if t == 0.0:
                continue
            for s in _points(num, u):
                if math.isinf(s) and math.isinf(t):
                    continue
                assert any(iv.lo <= s / t <= iv.hi for iv in quotient), (num, den, s, t)

    @pytest.mark.parametrize("num, den, image", [
        (Interval(-INF, 1.0), Interval(-INF, -1.0), (Interval(-1.0, INF),)),
        (Interval(-INF, -1.0), Interval(-INF, -1.0), (Interval(0.0, INF),)),
        (Interval(-INF, INF), Interval(-INF, -INF), (Interval(0.0, 0.0),)),
        (Interval(INF, INF), Interval(INF, INF), ()),
    ])
    def test_infinite_over_infinite_endpoint_does_not_lose_the_part(self, num, den,
                                                                     image):
        """An endpoint quotient inf / inf has no value: it no longer makes
        its part absent, the finite s next to it give a zero, and a part
        with no valued quotient is absent."""
        assert _div(num, den) == image

    def test_same_bits_as_the_scalar_form_with_infinite_endpoints(self):
        values = [-INF, -2.0, -0.0, 0.0, 0.5, INF]
        intervals = [Interval(a, b) for a in values for b in values if a <= b]
        boxes = [(num, den) for num in intervals for den in intervals]
        for (num, den), got in zip(boxes, divide_boxes(boxes)):
            assert _bits(got) == _bits(serial_interval_div(num, den)), (num, den)

    def test_positive_denominator(self):
        (piece,) = _div(Interval(0.1, 0.2), Interval(0.2, 0.4))
        assert piece.lo == pytest.approx(0.25, abs=1e-15)
        assert piece.hi == pytest.approx(1.0, abs=1e-15)

    def test_zero_straddling_denominator(self):
        quotient = _div(Interval(1.0, 2.0), Interval(-1.0, 1.0))
        assert len(quotient) == 2
        assert quotient[0].lo == -INF and quotient[0].hi == -1.0
        assert quotient[1].lo == 1.0 and quotient[1].hi == INF

    def test_zero_numerator(self):
        (piece,) = _div(Interval(0.0, 0.0), Interval(1.0, 2.0))
        assert (piece.lo, piece.hi) == (0.0, 0.0)

    def test_degenerate_denominator_empty(self):
        assert _div(Interval(1.0, 2.0), Interval(0.0, 0.0)) == ()

    def test_full_line_when_numerator_reaches_zero(self):
        (piece,) = _div(Interval(-1.0, 2.0), Interval(-0.5, 0.5))
        assert (piece.lo, piece.hi) == (-INF, INF)

    def test_zero_endpoint_denominator(self):
        (piece,) = _div(Interval(1.0, 2.0), Interval(0.0, 0.5))
        assert piece.lo == pytest.approx(2.0) and piece.hi == INF
        (piece,) = _div(Interval(1.0, 2.0), Interval(-0.5, 0.0))
        assert piece.lo == -INF and piece.hi == pytest.approx(-2.0)

    def test_dense_oracle_random_boxes(self):
        rng = np.random.default_rng(61)
        endpoints = np.array([-2.0, -1.0, -0.5, 0.0, 0.1, 0.4, 1.0, 3.0])
        boxes = []
        for _ in range(100):
            a, b = sorted(rng.choice(endpoints, 2, replace=True))
            c, d = sorted(rng.choice(endpoints, 2, replace=True))
            boxes.append((Interval(a, b), Interval(c, d)))
        for (num, den), quotient in zip(boxes, divide_boxes(boxes)):
            _div_oracle(num, den, quotient)

    def test_regions_match_case_analysis_on_endpoint_grid(self):
        # signed zeros, subnormal-scale and huge endpoints: the two forms may
        # split a full line differently when a quotient underflows to a signed
        # zero, but they give the same region
        values = [-1e300, -2.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 1e300]
        intervals = [Interval(a, b) for a in values for b in values if a <= b]
        boxes = [(num, den) for num in intervals for den in intervals]
        for (num, den), quotient in zip(boxes, divide_boxes(boxes)):
            assert region_from_intervals(quotient) == \
                region_from_intervals(case_interval_div(num, den)), (num, den)

    def test_same_bits_as_the_scalar_form_on_endpoint_grid(self):
        # the elementwise division keeps every endpoint of the scalar case
        # split, signed zeros included
        values = [-1e300, -2.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 3.0, 1e300]
        intervals = [Interval(a, b) for a in values for b in values if a <= b]
        boxes = [(num, den) for num in intervals for den in intervals]
        for (num, den), got in zip(boxes, divide_boxes(boxes)):
            assert _bits(got) == _bits(serial_interval_div(num, den)), (num, den)

    def test_add_shifts_pieces(self):
        pieces = (Interval(-INF, -1.0), Interval(1.0, INF))
        shifted = interval_add(pieces, Interval(0.5, 0.5))
        assert shifted[0].hi == -0.5 and shifted[1].lo == 1.5


# endpoints that make pieces touch, nest and share signed zeros and rays
_PIECE_ENDS = st.one_of(st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, 1.0, INF]),
                        st.floats(-2.0, 2.0))
_PIECE = st.one_of(st.none(), st.tuples(_PIECE_ENDS, _PIECE_ENDS).map(sorted))


def _assert_rows_are_the_scalar_regions(raw, s):
    """_region_arrays of raw pieces, one row of (lo, hi) pairs or None per
    entry, is the scalar reference's region of every row: kind, endpoints
    and diameter bit for bit."""
    ends = np.array([[(np.nan, np.nan) if piece is None else piece for piece in row]
                     for row in raw])
    arrays = _region_arrays(ends[..., 0], ends[..., 1], s,
                            np.zeros(len(raw), dtype=np.int64))
    diameters = arrays.diameters()
    for r, row in enumerate(raw):
        want = region_from_intervals(
            [Interval(*piece) for piece in row if piece is not None], s)
        got = as_result(arrays, r).region
        assert got.kind == want.kind, row
        assert _bits(got.intervals) == _bits(want.intervals), row
        # bit for bit: signed zeros, and the NaN of a range s = [inf, inf]
        assert diameters[r].tobytes() == np.float64(diameter(want, s)).tobytes(), row


class TestRegions:
    """The package's normal form: fixed_arrays is _region_arrays of the same
    intervals for every replication."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        raw=st.lists(st.tuples(_ENDS, _ENDS).map(_ordered), max_size=2),
        s=st.tuples(_ENDS, _ENDS).map(_ordered),
    )
    def test_normal_form_is_idempotent_and_covers_the_input(self, raw, s):
        arrays = fixed_arrays(raw, s, 1)
        region = as_result(arrays, 0).region
        # a full region carries no intervals; as a set it is s itself
        again = fixed_arrays((s,) if region.is_full else region.intervals, s, 1)
        assert as_result(again, 0).region == region
        merged = region.intervals
        assert all(a.hi < b.lo for a, b in zip(merged, merged[1:]))
        for iv in raw:
            cut = intersect(iv, s)
            if cut is not None:
                assert arrays.contains(cut.lo)[0] and arrays.contains(cut.hi)[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        width=st.integers(1, 2),
        rows=st.integers(1, 4),
        data=st.data(),
        s=st.tuples(_PIECE_ENDS, _PIECE_ENDS).map(sorted),
    )
    def test_arrays_match_the_scalar_normal_form(self, width, rows, data, s):
        """Every entry of a (rows, width) stack of raw pieces, absent ones
        among them, is the scalar reference's region, endpoints and diameter
        bit for bit."""
        raw = data.draw(st.lists(st.lists(_PIECE, min_size=width, max_size=width),
                                 min_size=rows, max_size=rows))
        _assert_rows_are_the_scalar_regions(raw, Interval(*s))

    def test_every_pair_of_pieces_matches_the_scalar_normal_form(self):
        """Every ordered pair of pieces, each absent or [a, b] with ends on a
        grid of rays, signed zeros and touching points, in a finite s and in
        the line: the two-piece sort and merge give the scalar reference's
        region bit for bit."""
        ends = [-INF, -1.0, -0.0, 0.0, 0.5, 1.0, INF]
        choices = [None] + [(a, b) for a in ends for b in ends if a <= b]
        raw = list(itertools.product(choices, repeat=2))
        for s in (Interval(-1.0, 0.5), FULL_LINE):
            _assert_rows_are_the_scalar_regions(raw, s)

    def test_merge_and_clip(self):
        region = as_result(fixed_arrays(
            [Interval(3.0, 4.0), Interval(-20.0, 2.0)], Interval(-10.0, 10.0), 1,
        ), 0).region
        assert region.kind == "union"
        assert [(iv.lo, iv.hi) for iv in region.intervals] == [(-10.0, 2.0), (3.0, 4.0)]

    def test_collapse_to_full(self):
        arrays = fixed_arrays([Interval(-INF, INF)], Interval(-5.0, 5.0), 1)
        assert arrays.is_full()[0] and as_result(arrays, 0).region.is_full

    def test_empty(self):
        region = as_result(fixed_arrays([Interval(2.0, 3.0)], Interval(-1.0, 1.0), 1),
                           0).region
        assert region.kind == "empty"

    def test_diameter_cases(self):
        s = Interval(0.0, 1.0)
        assert fixed_arrays([Interval(0.2, 0.5)], s, 1).diameters()[0] == pytest.approx(0.3)
        rays = fixed_arrays([Interval(-INF, -1.0), Interval(1.0, INF)], FULL_LINE, 1)
        assert rays.diameters()[0] == INF
        assert fixed_arrays([FULL_LINE], s, 1).diameters()[0] == 1.0
        assert fixed_arrays([], s, 1).diameters()[0] == 0.0


class TestWaldCI:
    def test_constant_influence_zero_width(self):
        # Y = W = Z deterministically: every influence value equals the contrast
        support = SupportSpec(
            mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
        )
        mass = np.zeros(support.shape)
        mass[0, 0, 0, 0] = 0.5
        mass[1, 1, 1, 0] = 0.5
        ds = sample(DiscreteLaw(support, mass), 200, seed=1)
        res = as_result(wald_ci(ds, FunctionalSpec.late(), support, 0.05), 0)
        assert not res.degenerate
        (iv,) = res.region.intervals
        assert iv.lo == pytest.approx(res.estimate, abs=1e-12)
        assert iv.hi == pytest.approx(res.estimate, abs=1e-12)
        assert res.estimate == pytest.approx(1.0, abs=1e-12)

    def test_point_estimate_is_sample_wald_ratio(self):
        law = late_law()
        for seed in range(5):
            ds = sample(law, 400, seed=seed)
            res = wald_ci(ds, FunctionalSpec.late(), law.support, 0.05)
            emp = empirical_law(ds, law.support)
            assert res.estimate[0] == pytest.approx(wald_ratio(emp), abs=1e-10)

    def test_zero_sample_dependence_degenerates(self):
        # empirical cov(W, Z) exactly zero, response varying with Z
        support = late_law().support
        ds = dataset_from_rows(
            y=np.array([0.0, 0.0, 1.0, 1.0]),
            z=np.array([0, 0, 1, 1]),
            w=np.array([0, 1, 0, 1]),
            x=np.zeros(4, int),
            support=support,
        )
        res = wald_ci(ds, FunctionalSpec.late(), support, 0.05)
        assert res.degenerate
        assert res.is_full()[0]

    def test_coverage_near_nominal(self):
        law = late_law()
        phi = wald_ratio(law)
        reps = 300
        counts = np.stack([
            sample(law, 2000, np.random.SeedSequence(entropy=2, spawn_key=(0, r)))[0]
            for r in range(reps)
        ])
        res = wald_ci(counts, FunctionalSpec.late(), law.support, 0.05)
        assert 0.92 <= res.contains(phi).sum() / reps <= 0.98

    def test_empty_cross_fit_fold_gives_full_range(self):
        # n = 1 puts its one draw in fold 1 and leaves fold 0 empty
        law = late_law()
        ds = sample(law, 1, seed=0)
        res = wald_ci(ds, FunctionalSpec.late(), law.support, 0.05, cross_fit=True)
        assert res.degenerate
        assert res.is_full()[0]
        assert np.isnan(res.estimate[0])

    def test_cross_fit_runs(self):
        law = late_law()
        ds = sample(law, 1000, seed=9)
        res = wald_ci(ds, FunctionalSpec.late(), law.support, 0.05, cross_fit=True)
        assert not res.degenerate
        assert res.contains(res.estimate[0])[0]


# estimate and every constructor as a function of a count stack, with the
# reason an empty sample gets (None for estimate, which gives no region)
_S = Interval(-5.0, 5.0)
_READERS = {
    "estimate": (lambda counts: estimate(counts, late_support()), None),
    "wald": (lambda counts: wald_ci(counts, FunctionalSpec.late(), late_support(),
                                    0.05, _S), "ZeroConditioningMass"),
    "wald_cross_fit": (lambda counts: wald_ci(counts, FunctionalSpec.late(),
                                              late_support(), 0.05, _S, cross_fit=True),
                       "empty_fold"),
    "score": (lambda counts: score_invert_late(counts, late_support(), 0.05, _S),
              "DegenerateSample"),
    "union": (lambda counts: binary_union_set(counts, late_support(), 0.05, _S),
              "ZeroConditioningMass"),
}
_CONSTRUCTORS = sorted(name for name, (_, reason) in _READERS.items() if reason)


def _three_samples():
    """A stack of three samples of the ratio law, 400 draws each."""
    return np.concatenate([sample(late_law(), 400, seed=seed) for seed in range(3)])


class TestCounts:
    """One check of the counts, and empty samples as degenerate entries."""

    @pytest.mark.parametrize("defect", ["negative", "fractional", "wrong_shape"])
    @pytest.mark.parametrize("name", sorted(_READERS))
    def test_bad_counts_raise(self, name, defect):
        """A count of -25 (with the other fold's count of the same cell large
        enough that their sum is positive), a count of 30.5, or a stack whose
        cell axes are not the support's raises ValueError instead of being
        read as draws."""
        counts = _three_samples()
        if defect == "negative":
            assert counts[1, 1, 0, 0, 0, 0] >= 25
            counts[1, 0, 0, 0, 0, 0] = -25
        elif defect == "fractional":
            counts = counts.astype(float)
            counts[1, 0, 0, 0, 0, 0] = 30.5
        else:
            counts = np.concatenate([counts, counts], axis=2)     # three Y cells
        with pytest.raises(ValueError):
            _READERS[name][0](counts)

    @pytest.mark.parametrize("name", _CONSTRUCTORS)
    def test_lead_axes_are_checked(self, name):
        """A constructor takes (R, 2) leading axes and nothing else."""
        counts = _three_samples()
        for bad in (counts[0], np.concatenate([counts, counts[:, :1]], axis=1)):
            with pytest.raises(ValueError):
                _READERS[name][0](bad)

    @pytest.mark.parametrize("name", _CONSTRUCTORS)
    def test_empty_sample_gets_a_reason(self, name):
        """An empty sample, alone and inside a stack, is a degenerate entry
        with the full range and a reason; integer-valued float counts give
        the bits of the integer counts."""
        construct, reason = _READERS[name]
        empty = np.zeros((1, 2) + late_support().shape, dtype=np.int64)
        full = _three_samples()
        full[1] = 0
        for counts, row in ((empty, 0), (full, 1)):
            got = construct(counts)
            assert REASONS[got.reason[row]] == reason
            assert got.is_full()[row] and got.diameters()[row] == _S.hi - _S.lo
        assert got.reason[[0, 2]].tolist() == [0, 0]
        as_float = construct(full.astype(float))
        for field in ("lo", "hi", "reason"):
            assert getattr(as_float, field).tobytes() == getattr(got, field).tobytes()

    @pytest.mark.parametrize("name", _CONSTRUCTORS)
    def test_empty_stack_gives_empty_regions(self, name):
        """A stack of no samples, as sample(..., reps=0) draws it, gives a
        RegionArrays of no rows; Wald also on a 3x3 support, whose strata
        take the SVD path."""
        results = [_READERS[name][0](sample(late_law(), 400, seed=0, reps=0))]
        if name.startswith("wald"):
            rng = np.random.default_rng(36)
            support = kind_support(rng, "generic", 3, 2, 2)
            counts = np.zeros((0, 2) + support.shape, dtype=np.int64)
            results.append(wald_ci(counts, kind_spec(rng, "generic", support), support,
                                   0.05, _S, cross_fit=name == "wald_cross_fit"))
        for got in results:
            assert got.lo.shape == got.hi.shape and got.lo.shape[0] == 0
            assert got.reason.shape == got.diameters().shape == got.contains(0.0).shape \
                == got.is_full().shape == (0,)
            assert not got.degenerate
            for lo, hi in got.components.values():
                assert lo.shape == hi.shape == (0,)
            if name.startswith("wald"):
                assert got.estimate.shape == got.stderr.shape == (0,)


def _score_accepts(obs, alpha, thetas):
    """Score test evaluated directly on the rows obs at each theta:
    n mean(psi)^2 <= z^2 mean(psi^2).

    Returns (accepted, tie): tie marks the thetas where the two sides agree
    to within rounding of the terms they are summed from, so that either
    answer is right.
    """
    n = len(obs)
    f_z1 = obs.z.mean()
    c = np.where(obs.z == 1, 1.0 / f_z1, -1.0 / (1.0 - f_z1))
    a_dev = obs.y - obs.y[obs.z == 1].mean()
    b_dev = obs.w - obs.w[obs.z == 1].mean()
    psi = c[None, :] * (a_dev[None, :] - thetas[:, None] * b_dev[None, :])
    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    lhs = n * psi.mean(axis=1) ** 2
    rhs = z2 * (psi * psi).mean(axis=1)
    terms = np.abs(c)[None, :] * (
        np.abs(a_dev)[None, :] + np.abs(thetas)[:, None] * np.abs(b_dev)[None, :]
    )
    scale = (n + z2) * (terms * terms).mean(axis=1)
    return lhs <= rhs, np.abs(lhs - rhs) <= 1e-9 * scale


def _bits(intervals):
    """Endpoints of intervals with the sign of each zero."""
    return [(iv.lo, iv.hi, math.copysign(1.0, iv.lo), math.copysign(1.0, iv.hi))
            for iv in intervals]


def _sublevel(quad, lin, const):
    """The intervals of the elementwise quadratic sublevel set at one point."""
    return pieces(*_quadratic_sublevel(np.float64(quad), np.float64(lin),
                                       np.float64(const)))


class TestScoreInversion:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        rows=st.lists(st.tuples(*[st.integers(0, 1)] * 3), min_size=2, max_size=80),
        alpha=st.floats(0.001, 0.5),
        ends=st.tuples(_ENDS, _ENDS).filter(lambda e: e[0] != e[1]),
    )
    def test_exact_set_matches_statistic(self, rows, alpha, ends):
        """The exact set agrees with the directly evaluated score test at
        dense probes (and far out on rays), except at endpoints and ties."""
        y, z, w = (np.array(col) for col in zip(*rows))
        obs = Rows(y=y.astype(float), z=z, w=w, x=np.zeros(len(rows), int))
        ds = dataset_from_rows(obs.y, obs.z, obs.w, obs.x, late_support())
        s = Interval(*sorted(ends))
        res = as_result(score_invert_late(ds, late_support(), alpha, s), 0)
        if z.min() == z.max():
            assert res.degenerate and res.region.is_full
            return
        finite = [v for v in (s.lo, s.hi) if math.isfinite(v)]
        lo = s.lo if math.isfinite(s.lo) else min(finite + [0.0]) - 100.0
        hi = s.hi if math.isfinite(s.hi) else max(finite + [0.0]) + 100.0
        far = np.array([-1e6, -1e3, 1e3, 1e6])
        thetas = np.concatenate([np.linspace(lo, hi, 2001),
                                 far[(far >= s.lo) & (far <= s.hi)]])
        ends_seen = finite + [e for iv in res.region.intervals
                              for e in (iv.lo, iv.hi) if math.isfinite(e)]
        expected, tie = _score_accepts(obs, alpha, thetas)
        clear = ~tie
        for e in ends_seen:
            clear &= np.abs(thetas - e) > 1e-9 * max(1.0, abs(e))
        got = np.array([res.region.contains(float(th)) for th in thetas])
        assert np.array_equal(got[clear], expected[clear])

    def test_wald_estimate_always_accepted(self):
        law = late_law()
        s = Interval(-2.0, 2.0)
        for seed in range(5):
            ds = sample(law, 500, seed=seed)
            emp = empirical_law(ds, law.support)
            theta_hat = wald_ratio(emp)
            res = score_invert_late(ds, law.support, 0.05, s)
            assert res.contains(theta_hat)[0]

    def test_affine_rescaling_of_y(self):
        law = late_law()
        a, b = 2.5, -1.0
        s1 = Interval(-2.0, 2.0)
        s2 = Interval(-5.0, 5.0)
        ds = sample(law, 800, seed=11)
        # the rescaled Y values live in the support; the cell counts stay
        support = law.support
        scaled_support = SupportSpec(
            mu_y=support.mu_y, mu_z=support.mu_z, mu_w=support.mu_w,
            mu_x=support.mu_x, iota_y=(a * support.y_cell_means + b) * support.mu_y,
        )
        r1 = as_result(score_invert_late(ds, support, 0.05, s1), 0)
        r2 = as_result(score_invert_late(ds, scaled_support, 0.05, s2), 0)
        assert len(r1.region.intervals) == len(r2.region.intervals)
        for iv1, iv2 in zip(r1.region.intervals, r2.region.intervals):
            assert iv2.lo == pytest.approx(a * iv1.lo, abs=1e-9)
            assert iv2.hi == pytest.approx(a * iv1.hi, abs=1e-9)

    def test_quadratic_sublevel_shapes(self):
        cases = [
            ((0.0, 2.0, -4.0), [Interval(-INF, 2.0)]),
            ((0.0, -2.0, -4.0), [Interval(-2.0, INF)]),
            ((0.0, 0.0, 1.0), []),
            ((0.0, 0.0, 0.0), [FULL_LINE]),
            ((1.0, 0.0, 1.0), []),
            ((-1.0, 0.0, -1.0), [FULL_LINE]),
            ((1.0, -3.0, 2.0), [Interval(1.0, 2.0)]),
            ((-1.0, 3.0, -2.0), [Interval(-INF, 1.0), Interval(2.0, INF)]),
            ((1.0, 0.0, 0.0), [Interval(0.0, 0.0)]),
        ]
        for coefs, expected in cases:
            assert _sublevel(*coefs) == expected
        # the small root of theta^2 - 1e8 theta + 1 survives cancellation
        (iv,) = _sublevel(1.0, -1e8, 1.0)
        assert iv.lo == pytest.approx(1e-8, rel=1e-15)
        assert iv.hi == pytest.approx(1e8, rel=1e-15)

    def test_elementwise_matches_scalar_form_on_coefficient_grid(self):
        """One elementwise call over every coefficient triple of a grid with
        signed zeros, tiny and large values (whose discriminant stays finite)
        gives each triple's scalar set."""
        values = np.array([-1e150, -3.0, -1.0, -1e-300, -0.0, 0.0, 1e-300, 0.25,
                           1.0, 2.0, 1e150])
        quad, lin, const = (a.ravel() for a in np.meshgrid(values, values, values))
        lo, hi = _quadratic_sublevel(quad, lin, const)
        for i in range(len(quad)):
            got = pieces(lo[i], hi[i])
            want = serial_quadratic_sublevel(float(quad[i]), float(lin[i]), float(const[i]))
            assert _bits(got) == _bits(want), (quad[i], lin[i], const[i])

    def test_outcome_equal_to_treatment_gives_point(self):
        # strong instrument and Y = W (Y = 1 - W): only theta = 1 (theta = -1)
        # zeroes every score term
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 200
            z = rng.integers(0, 2, n)
            w = np.where(rng.random(n) < 0.9, z, 1 - z)
            for y, theta in ((w, 1.0), (1 - w, -1.0)):
                ds = dataset_from_rows(y=y.astype(float), z=z, w=w,
                                       x=np.zeros(n, int), support=late_support())
                res = as_result(score_invert_late(ds, late_support(), 0.05), 0)
                assert res.region.intervals == (Interval(theta, theta),)

    def test_one_arm_missing_full_range(self):
        ds = dataset_from_rows(
            y=np.array([0.0, 1.0]), z=np.array([1, 1]), w=np.array([0, 1]),
            x=np.zeros(2, int), support=late_support(),
        )
        res = score_invert_late(ds, late_support(), 0.05)
        assert res.degenerate and res.is_full()[0]

    def test_weak_dependence_spans_range(self):
        base = acceptance_base()
        from weakdep import default_params, perturb_kernels

        weak = perturb_kernels(base, default_params(base, 1e-4, 1.25))
        s = Interval(-20.0, 20.0)
        counts = np.concatenate([sample(weak, 2000, seed=seed) for seed in range(20)])
        res = score_invert_late(counts, weak.support, 0.05, s)
        assert (res.diameters() >= 0.9 * (s.hi - s.lo)).sum() >= 18


class TestBinaryUnionSet:
    def test_component_arithmetic_example(self):
        quotient = _div(Interval(0.1, 0.2), Interval(0.2, 0.4))
        shifted = interval_add(quotient, Interval(0.5, 0.5))
        region = region_from_intervals(shifted, Interval(-5.0, 5.0))
        (iv,) = region.intervals
        assert iv.lo == pytest.approx(0.75, abs=1e-12)
        assert iv.hi == pytest.approx(1.5, abs=1e-12)

    def test_zero_straddling_denominator_full_range(self):
        # independent W and Z: the denominator interval straddles zero
        rng = np.random.default_rng(63)
        n = 2000
        ds = dataset_from_rows(
            y=rng.integers(0, 2, n).astype(float),
            z=rng.integers(0, 2, n),
            w=rng.integers(0, 2, n),
            x=np.zeros(n, int),
            support=late_support(),
        )
        res = as_result(binary_union_set(ds, late_support(), 0.05,
                                         Interval(-10.0, 10.0)), 0)
        de = res.components["de"]
        assert res.region.is_full and not res.degenerate
        assert de.lo < 0.0 < de.hi

    def test_covers_estimand_with_x(self):
        law = binary_x_law(dep=0.5, py=0.5)
        phi = binary_union_estimand(law)
        s = Interval(-5.0, 5.0)
        counts = np.concatenate([sample(law, 1500, seed=seed) for seed in range(40)])
        assert binary_union_set(counts, law.support, 0.05, s).contains(phi).sum() >= 38

    def test_empty_stratum_full_range(self):
        ds = dataset_from_rows(
            y=np.array([0.0, 1.0, 1.0, 0.0]),
            z=np.array([1, 1, 1, 1]),          # Z = 0 unobserved
            w=np.array([0, 1, 0, 1]),
            x=np.array([0, 1, 0, 1]),
            support=binary_x_law().support,
        )
        res = binary_union_set(ds, binary_x_law().support, 0.05, Interval(-5.0, 5.0))
        assert res.degenerate and res.is_full()[0]

    def test_x_form_when_sample_holds_one_x_value(self):
        # the support, not the drawn X values, decides the target
        law = binary_x_law(dep=0.7, py=0.5)
        only_x1 = sample(law, 2000, seed=4)
        only_x1[..., 0] = 0
        res = binary_union_set(only_x1, law.support, 0.05, Interval(-5.0, 5.0))
        assert set(res.components) == {"de", "num", "offset"}
        assert not res.degenerate

    def test_contains_plug_in_when_denominator_clear(self):
        law = binary_x_law(dep=0.7, py=0.5)
        s = Interval(-5.0, 5.0)
        for seed in range(20):
            ds = sample(law, 2000, seed=seed)
            res = as_result(binary_union_set(ds, law.support, 0.05, s), 0)
            if res.degenerate or res.components["de"].lo < 0.0 < res.components["de"].hi:
                continue
            emp = empirical_law(ds, law.support)
            plug_in = binary_union_estimand(emp)
            assert res.region.contains(plug_in)

    @pytest.mark.parametrize("k_x, z", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_estimand_names_the_empty_conditioning_cell(self, k_x, z):
        """A law without mass on the conditioning cell (Z = z, X = k_x - 1)
        has no union target: the estimand raises ZeroConditioningMass naming
        that cell."""
        law = late_law() if k_x == 1 else binary_x_law(dep=0.5, py=0.5)
        mass = law.mass.copy()
        mass[:, z, :, k_x - 1] = 0.0
        with pytest.raises(ZeroConditioningMass) as exc:
            binary_union_estimand(DiscreteLaw(law.support, mass / mass.sum()))
        assert exc.value.cell == (z, k_x - 1)
        assert f"cell {(z, k_x - 1)}" in str(exc.value)

    def test_estimand_matches_generic_representer(self):
        from weakdep import evaluate_phi
        from weakdep.laws import marginal

        for dep, py in ((0.3, 0.4), (0.6, 0.6)):
            law = binary_x_law(dep, py)
            mass_w = marginal(law, ("W",))
            mass_wx = marginal(law, ("W", "X"))
            alpha = np.zeros((2, 2))
            alpha[:, 1] = mass_w / mass_wx[:, 1]
            phi = evaluate_phi(law, FunctionalSpec.generic(alpha))
            assert binary_union_estimand(law) == pytest.approx(phi, abs=1e-10)


def _binary_support(k_x):
    return SupportSpec(mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
                       mu_x=[1.0] * k_x, iota_y=[0.0, 1.0])


def _assert_same_result(cell, row):
    assert cell.region.kind == row.region.kind
    assert len(cell.region.intervals) == len(row.region.intervals)
    assert cell.degenerate == row.degenerate
    pairs = [(cell.estimate, row.estimate), (cell.stderr, row.stderr)]
    pairs += [(a, b) for ic, ir in zip(cell.region.intervals, row.region.intervals)
              for a, b in ((ic.lo, ir.lo), (ic.hi, ir.hi))]
    for a, b in pairs:
        _assert_close(a, b)


def _assert_close(a, b):
    if a is None or b is None or math.isinf(a) or math.isinf(b):
        assert a == b
    else:
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestCellPathMatchesRows:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        k_x=st.sampled_from([1, 2]),
        rows=st.lists(st.tuples(*[st.integers(0, 1)] * 4), min_size=2, max_size=80),
        alpha=st.floats(0.001, 0.5),
        ends=st.tuples(_ENDS, _ENDS).filter(lambda e: e[0] != e[1]),
    )
    def test_same_regions_as_row_reference(self, k_x, rows, alpha, ends):
        """Every constructor gives on the cell counts the region the row-level
        reference gives on the rows themselves."""
        y, z, w, x = (np.array(col) for col in zip(*rows))
        x = x if k_x == 2 else np.zeros_like(x)
        support = _binary_support(k_x)
        obs = Rows(y=y.astype(float), z=z, w=w, x=x)
        ds = dataset_from_rows(obs.y, obs.z, obs.w, obs.x, support)
        s = Interval(*sorted(ends))
        kinds = ["ate_iv"] + (["late"] if k_x == 1 else [])
        for kind in kinds:
            spec = FunctionalSpec(kind=kind)
            for cross_fit in (False, True):
                got = wald_ci(ds, spec, support, alpha, s, cross_fit=cross_fit)
                _assert_same_result(
                    as_result(got, 0),
                    row_wald_ci(obs, spec, support, alpha, s, cross_fit=cross_fit),
                )
        # Y = 1 - W rows are the rounding case the row reference gets wrong
        if k_x == 1 and not np.array_equal(y, 1 - w):
            _assert_same_result(as_result(score_invert_late(ds, support, alpha, s), 0),
                                row_score_invert_late(obs, alpha, s))
        # the row reference picks the ratio form when one X value is drawn
        if k_x == 1 or x.min() != x.max():
            _assert_same_result(as_result(binary_union_set(ds, support, alpha, s), 0),
                                row_binary_union_set(obs, alpha, s))


class TestLevelMonotonicity:
    def test_regions_nest_in_alpha(self):
        law = late_law()
        law_x = binary_x_law(0.5, 0.5)
        s = Interval(-5.0, 5.0)
        for seed in range(10):
            ds = sample(law, 800, seed=seed)
            ds_x = sample(law_x, 800, seed=seed)
            for alpha_pair in ((0.01, 0.05), (0.05, 0.2)):
                a1, a2 = alpha_pair
                w1 = wald_ci(ds, FunctionalSpec.late(), law.support, a1, s=s)
                w2 = wald_ci(ds, FunctionalSpec.late(), law.support, a2, s=s)
                assert _region_contains(w1, w2, s)
                r1 = score_invert_late(ds, law.support, a1, s)
                r2 = score_invert_late(ds, law.support, a2, s)
                assert _region_contains(r1, r2, s)
                u1 = binary_union_set(ds_x, law_x.support, a1, s)
                u2 = binary_union_set(ds_x, law_x.support, a2, s)
                assert _region_contains(u1, u2, s)


def _region_contains(outer, inner, s, probes=2000):
    """Whether the one-row region ``outer`` holds every probe of ``inner``."""
    outer, inner = as_result(outer, 0).region, as_result(inner, 0).region
    thetas = np.linspace(s.lo, s.hi, probes)
    for theta in thetas:
        if inner.contains(theta) and not outer.contains(theta):
            return False
    return True


def _assert_stack_matches_serial(counts, spec, support, alpha, s, cross_fit,
                                 single=False):
    """Entry r of the stacked Wald is the serial reference's result on
    replication r: same degenerate flag and reason, same region; with
    ``single``, so is wald_ci on the stack of replication r alone."""
    stack = wald_ci(counts, spec, support, alpha, s, cross_fit=cross_fit)
    for r in range(len(counts)):
        got = as_result(stack, r)
        if not counts[r].any():
            # the serial constructor refuses an empty sample outright
            assert got.reason == ("empty_fold" if cross_fit else "ZeroConditioningMass")
            continue
        ref = serial_wald_ci(counts[r], spec, support, alpha, s, cross_fit=cross_fit)
        assert got.reason == ref.reason
        _assert_same_result(got, ref)
        if single:
            _assert_same_result(as_result(wald_ci(counts[r:r + 1], spec, support,
                                                  alpha, s, cross_fit=cross_fit), 0),
                                ref)


class TestStackedWald:
    """The stacked Wald against the serial reference, exhaustively on small
    samples of the ratio law's 8 cells."""

    S = Interval(-20.0, 20.0)

    def test_every_plain_sample_of_ten(self):
        support = late_support()
        comps = compositions(10, support.n_cells)          # 19,448 samples
        counts = np.zeros((len(comps), 2, support.n_cells), dtype=np.int64)
        counts[:, 1] = comps
        counts = counts.reshape((len(comps), 2) + support.shape)
        _assert_stack_matches_serial(counts, FunctionalSpec.late(), support,
                                     0.05, self.S, cross_fit=False)

    def test_every_cross_fit_sample_of_three_plus_three(self):
        support = late_support()
        fold = compositions(3, support.n_cells)            # 120 per fold
        first, second = np.meshgrid(np.arange(len(fold)), np.arange(len(fold)),
                                    indexing="ij")
        counts = np.stack([fold[first.ravel()], fold[second.ravel()]], axis=1)
        counts = counts.reshape((len(counts), 2) + support.shape)   # 14,400 pairs
        _assert_stack_matches_serial(counts, FunctionalSpec.late(), support,
                                     0.05, self.S, cross_fit=True)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(FunctionalSpec.KINDS),
        k=st.integers(2, 3),
        k_y=st.integers(2, 3),
        k_x=st.integers(1, 4),
        reps=st.integers(1, 6),
        draws=st.sampled_from([0, 1, 2, 5, 40]),
        sparsity=st.floats(0.0, 0.9),
        cross_fit=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_kind_matches_serial(self, kind, k, k_y, k_x, reps, draws,
                                       sparsity, cross_fit, seed):
        """Every functional kind, k_x up to 4, zero-mass cells, empty folds
        and samples of 0, 1 and 2 draws."""
        if kind in ("late", "ate_iv"):
            k = 2
        if kind in ("late", "npiv"):
            k_x = 1
        if kind == "proximal_ate":
            k_x = 2 * (1 + k_x // 3)
        rng = np.random.default_rng(seed)
        support = kind_support(rng, kind, k, k_y, k_x)
        spec = kind_spec(rng, kind, support)
        mass = rng.gamma(1.0, size=support.shape) * (rng.random(support.shape) >= sparsity)
        if not mass.any():
            mass.flat[0] = 1.0
        p = (mass / mass.sum()).ravel()
        counts = rng.multinomial(draws, p, size=(reps, 2))
        if draws:
            counts[rng.random(reps) < 0.3, rng.integers(0, 2)] = 0   # empty folds
        counts = counts.reshape((reps, 2) + support.shape)
        _assert_stack_matches_serial(counts, spec, support, 0.05, self.S, cross_fit,
                                     single=True)

    @pytest.mark.parametrize("which", ["strata_sequence", "criterion_6_sequence"])
    def test_closed_form_matches_svd_reference(self, which, monkeypatch):
        """Along a certified sequence, cross-fitted Wald with the closed-form
        2x2 solves gives the reasons and coverage that the batched-SVD
        reference gives on the same counts.  Estimates agree to 1e-12 of the
        root-mean-square influence value; standard errors to 1e-12 relative,
        or to 8 eps times the replication's largest stratum condition number
        where that is more: both solvers are backward stable, and near-singular
        empirical strata amplify their rounding by that number."""
        if which == "strata_sequence":      # binary Z and W, 16 strata
            base = random_base(np.random.default_rng(0), k=2, k_y=3, k_x=16, tame=True)
            n = 4000
        else:
            base = acceptance_base()
            n = 2000
        seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
        rng = np.random.default_rng(19)
        for step in seq.steps:
            counts = sample(step.law, n, rng, reps=300)
            conds = []

            def reference(lhs, rhs, tol):
                out = svd_solve_strata(lhs, rhs, tol)
                sigma = out[3]
                cond = np.divide(sigma[..., 0], sigma[..., -1],
                                 out=np.full(sigma.shape[:-1], np.inf),
                                 where=sigma[..., -1] > 0.0)
                conds.append(cond.max(axis=(0, 2, 3)))   # over g and q, folds, strata
                return out

            got = wald_ci(counts, base.functional, base.support, 0.05, self.S,
                          cross_fit=True)
            with monkeypatch.context() as patch:
                patch.setattr("weakdep.functionals._solve_strata", reference)
                ref = wald_ci(counts, base.functional, base.support, 0.05, self.S,
                              cross_fit=True)
            np.testing.assert_array_equal(got.reason, ref.reason)
            np.testing.assert_array_equal(got.contains(5.0), ref.contains(5.0))
            live = ref.reason == 0
            assert np.array_equal(live, ~np.isnan(got.estimate))
            est, se = ref.estimate[live], ref.stderr[live]
            rms = np.hypot(est, se * np.sqrt(n))
            assert np.all(np.abs(got.estimate[live] - est) <= 1e-12 * rms)
            rtol = np.maximum(1e-12, 8.0 * np.finfo(float).eps * np.max(conds, axis=0)[live])
            assert np.all(np.abs(got.stderr[live] - se) <= rtol * se)

    @pytest.mark.parametrize("kind, k", [("late", 2), ("generic", 3)])
    @pytest.mark.parametrize("cross_fit", [False, True])
    def test_g_and_q_share_one_solve(self, kind, k, cross_fit, monkeypatch):
        """One wald_ci call solves g's and q's systems of every replication
        and fold in one _solve_strata call, on a (2, R, folds, k_x, k, k)
        stack."""
        rng = np.random.default_rng(23)
        support = kind_support(rng, kind, k, 2, 1)
        spec = kind_spec(rng, kind, support)
        p = rng.uniform(0.5, 1.5, size=support.n_cells)
        counts = rng.multinomial(200, p / p.sum(), size=(5, 2))
        counts = counts.reshape((5, 2) + support.shape)
        shapes = []
        solve = functionals._solve_strata

        def counted(lhs, rhs, tol):
            shapes.append(lhs.shape)
            return solve(lhs, rhs, tol)

        monkeypatch.setattr(functionals, "_solve_strata", counted)
        wald_ci(counts, spec, support, 0.05, self.S, cross_fit=cross_fit)
        assert shapes == [(2, 5, 2 if cross_fit else 1, 1, k, k)]

    def test_stack_is_not_an_exception_path(self):
        """A stack mixing regular, degenerate and empty replications returns
        one entry per replication."""
        law = late_law()
        counts = np.concatenate([sample(law, 400, seed=1), sample(law, 1, seed=2),
                                 np.zeros((1, 2) + law.support.shape, dtype=np.int64)])
        stack = wald_ci(counts, FunctionalSpec.late(), law.support, 0.05,
                        cross_fit=True)
        assert stack.reason.tolist() == [0, 1, 1]
        assert stack.degenerate
        assert stack.is_full().tolist() == [False, True, True]
        assert np.isnan(stack.estimate[1:]).all()


def _assert_region_result_equal(got, ref):
    """Same reason, region kind and pieces, and component intervals, every
    endpoint bit-equal (signed zeros too)."""
    assert got.reason == ref.reason
    assert set(got.components) == set(ref.components)
    assert _bits(got.region.intervals) == _bits(ref.region.intervals)
    assert got.region.kind == ref.region.kind
    assert _bits(got.components.values()) == _bits(
        [ref.components[name] for name in got.components])


def _assert_sets_match_serial(construct, serial, counts, support, alpha, s,
                              single=False):
    """Entry r of the stacked score or union set is the serial reference's
    result on replication r, its diameter the reference region's, sign of
    zero included; with ``single``, so is the constructor's result on the
    stack of replication r alone."""
    stack = construct(counts, support, alpha, s)
    diameters = stack.diameters()
    for r in range(len(counts)):
        got = as_result(stack, r)
        if not counts[r].any():
            # the serial constructors refuse an empty sample outright
            with pytest.raises(EmptySample):
                serial(counts[r], support, alpha, s)
            assert got.degenerate and got.region.is_full
            continue
        ref = serial(counts[r], support, alpha, s)
        _assert_region_result_equal(got, ref)
        want = diameter(ref.region, s)
        assert (diameters[r], math.copysign(1.0, diameters[r])) == \
            (want, math.copysign(1.0, want))
        if single:
            one = construct(counts[r:r + 1], support, alpha, s)
            _assert_region_result_equal(as_result(one, 0), ref)


def _every_sample(n, support):
    """Every sample of n draws over the support's cells, all in fold 1."""
    comps = compositions(n, support.n_cells)
    counts = np.zeros((len(comps), 2, support.n_cells), dtype=np.int64)
    counts[:, 1] = comps
    return counts.reshape((len(comps), 2) + support.shape)


class TestStackedScoreAndUnion:
    """The stacked score and union sets against the serial references,
    exhaustively on small samples."""

    S = Interval(-20.0, 20.0)

    def test_every_plain_sample_of_ten(self):
        support = late_support()
        counts = _every_sample(10, support)                 # 19,448 samples
        _assert_sets_match_serial(score_invert_late, serial_score_invert_late,
                                  counts, support, 0.05, self.S)
        _assert_sets_match_serial(binary_union_set, serial_binary_union_set,
                                  counts, support, 0.05, self.S)

    def test_every_binary_x_union_sample_of_six(self):
        support = _binary_support(2)
        counts = _every_sample(6, support)                  # 54,264 samples
        _assert_sets_match_serial(binary_union_set, serial_binary_union_set,
                                  counts, support, 0.05, Interval(-5.0, 5.0))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        union=st.booleans(),
        k_y=st.integers(2, 4),
        k_x=st.integers(1, 2),
        reps=st.integers(1, 40),
        draws=st.sampled_from([0, 1, 2, 7, 40, 2000]),
        sparsity=st.floats(0.0, 0.9),
        alpha=st.floats(0.001, 0.5),
        ends=st.tuples(_ENDS, _ENDS).filter(lambda e: e[0] != e[1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_binary_supports_match_serial(self, union, k_y, k_x, reps, draws,
                                                 sparsity, alpha, ends, seed):
        """Random Y cell measures and integrals (cell means that are not
        integers), zero-mass cells, random levels and ranges, and empty,
        one-arm and sparse samples mixed into stacks of up to 40: every
        entry has the bits of the serial reference, in its stack and alone."""
        rng = np.random.default_rng(seed)
        support = SupportSpec(mu_y=rng.uniform(0.2, 3.0, k_y),
                              mu_z=rng.uniform(0.2, 3.0, 2),
                              mu_w=rng.uniform(0.2, 3.0, 2),
                              mu_x=rng.uniform(0.2, 3.0, k_x if union else 1),
                              iota_y=rng.normal(0.0, 2.0, k_y))
        mass = rng.gamma(0.5, size=support.shape) * (rng.random(support.shape) >= sparsity)
        if not mass.any():
            mass.flat[0] = 1.0
        counts = rng.multinomial(draws, (mass / mass.sum()).ravel(), size=(reps, 2))
        counts = counts.reshape((reps, 2) + support.shape)
        kind = rng.integers(0, 4, reps)          # 1: empty, 2 and 3: one Z arm only
        counts[kind == 1] = 0
        counts[kind == 2, :, :, 0] = 0
        counts[kind == 3, :, :, 1] = 0
        construct, serial = ((binary_union_set, serial_binary_union_set) if union
                             else (score_invert_late, serial_score_invert_late))
        _assert_sets_match_serial(construct, serial, counts, support, alpha,
                                  Interval(*sorted(ends)), single=True)


# Finite and infinite ranges; the law's ratio target is 0.4.
_RANGES = st.sampled_from([Interval(-5.0, 5.0), Interval(0.2, 0.6), Interval(-1.0, 0.0),
                           FULL_LINE, Interval(-INF, 0.5), Interval(0.3, INF)])
# How each sample of a stack is cut down before the constructors see it.
_SAMPLE_KINDS = {
    "regular": lambda c: c,
    "empty": lambda c: 0 * c,
    "z0_only": lambda c: np.where(np.arange(2)[:, None, None] == 1, 0, c),
    "z1_only": lambda c: np.where(np.arange(2)[:, None, None] == 0, 0, c),
    "no_w1": lambda c: np.where(np.arange(2)[:, None] == 1, 0, c),    # zero-mass cells
    "empty_fold": lambda c: np.stack([c[0], 0 * c[1]]),
}


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes() or (
        math.isnan(a) and math.isnan(b))


def _assert_pieces_are_the_region(arrays, s):
    """Every piece lies in s; a degenerate or covering row is the one piece
    s; contains, diameters and is_full are the scalar model's on the pieces."""
    lo, hi = arrays.lo, arrays.hi
    assert lo.shape[1] <= 2
    present = ~np.isnan(lo)
    assert (present == ~np.isnan(hi)).all()
    assert (lo[present] >= s.lo).all() and (hi[present] <= s.hi).all()
    the_range = (np.float64(s.lo).tobytes(), np.float64(s.hi).tobytes())
    regions = [region_from_intervals(pieces(lo[r], hi[r]), s) for r in range(len(lo))]
    diameters, full = arrays.diameters(), arrays.is_full()
    for r, region in enumerate(regions):
        if arrays.reason[r] or region.is_full:
            assert (lo[r, 0].tobytes(), hi[r, 0].tobytes()) == the_range, r
            assert not present[r, 1:].any(), r
        assert full[r] == region.is_full
        assert _same_float(diameters[r], diameter(region, s)), r
    probes = [v for v in (s.lo, s.hi, -1.0, -0.0, 0.0, 0.3, 0.4, 0.5, 1.0, 3.0)
              if s.lo <= v <= s.hi]
    for v in probes:
        assert arrays.contains(v).tolist() == [region.contains(v) for region in regions]
    own = np.where(present[:, 0], hi[:, 0], probes[0])          # one value per row
    assert arrays.contains(own).tolist() == [
        region.contains(v) for region, v in zip(regions, own.tolist())]
    for v in (np.nextafter(s.lo, -INF), np.nextafter(s.hi, INF)):
        if math.isfinite(v):
            assert not arrays.contains(v).any()


class TestPiecesAreTheRegion:
    """A region is its pieces, for every constructor on every kind of
    sample: the full range is the piece s whether a row covers s or
    degenerated."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(sorted(_SAMPLE_KINDS)), min_size=1, max_size=12),
        n=st.sampled_from([1, 2, 5, 40, 400]),
        s=_RANGES,
        fixed=st.lists(_PIECE, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pieces_lie_in_s_and_decide_the_region(self, kinds, n, s, fixed, seed):
        rng = np.random.default_rng(seed)
        support = late_support()
        counts = sample(late_law(), n, rng, reps=len(kinds))
        counts = np.stack([_SAMPLE_KINDS[k](c) for k, c in zip(kinds, counts)])
        phi = rng.uniform(-2.0, 2.0, len(kinds))
        eps = rng.choice([0.0, 0.01, 1.0, INF], len(kinds))
        stacks = {
            "wald": wald_ci(counts, FunctionalSpec.late(), support, 0.05, s),
            "wald_cross_fit": wald_ci(counts, FunctionalSpec.late(), support, 0.05, s,
                                      cross_fit=True),
            "score": score_invert_late(counts, support, 0.05, s),
            "union": binary_union_set(counts, support, 0.05, s),
            "fixed": fixed_arrays([Interval(*p) for p in fixed if p], s, len(kinds)),
            "oracle": interval_arrays(phi - eps, phi + eps, s),
        }
        for name, arrays in stacks.items():
            try:
                _assert_pieces_are_the_region(arrays, s)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc
