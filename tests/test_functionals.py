"""Conditional-mean operator, equation solving, representers, functional values."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakdep import (
    DiscreteLaw,
    FunctionalSpec,
    NoSolution,
    SupportSpec,
    check_model_membership,
    cond_mean_operator,
    evaluate_phi,
    generate_sequence,
    response_vector,
    riesz_alpha,
    solve_g,
    solve_q,
)
from weakdep.errors import PositivityViolation, WeakdepError
from weakdep.functionals import (
    DEFAULT_TOL,
    _m_cells,
    _nuisances,
    _solve_strata,
    adjoint_mean_operator,
    psi1_values,
)
from weakdep.laws import marginal

from helpers import (
    kind_spec,
    kind_support,
    late_law,
    random_base,
    random_law,
    random_support,
    spec_for_support,
    svd_solve_strata,
    wald_ratio,
)

EPS = np.finfo(float).eps


def wz_identity_late(r=(0.3, 0.7), p_z1=0.5):
    """Binary law with W = Z and P(Y=1 | Z=l) = r[l]."""
    support = SupportSpec(
        mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
    )
    mass = np.zeros(support.shape)
    pz = (1.0 - p_z1, p_z1)
    for l in range(2):
        for h in range(2):
            mass[h, l, l, 0] = pz[l] * (r[l] if h == 1 else 1.0 - r[l])
    return DiscreteLaw(support, mass)


def w_indep_z_law(r=(0.3, 0.7)):
    """W independent of Z, Y driven by Z only (non-constant response)."""
    support = SupportSpec(
        mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
    )
    mass = np.zeros(support.shape)
    for l in range(2):
        for j in range(2):
            for h in range(2):
                mass[h, l, j, 0] = 0.5 * 0.5 * (r[l] if h == 1 else 1.0 - r[l])
    return DiscreteLaw(support, mass)


def binary_kernel_law(p_w=(0.2, 0.6), r=(0.3, 0.7)):
    """P(W=1|Z=l) = p_w[l], P(Y=1|Z=l) = r[l], Y independent of W given Z."""
    support = SupportSpec(
        mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
    )
    mass = np.zeros(support.shape)
    for l in range(2):
        for j in range(2):
            pj = p_w[l] if j == 1 else 1.0 - p_w[l]
            for h in range(2):
                mass[h, l, j, 0] = 0.5 * pj * (r[l] if h == 1 else 1.0 - r[l])
    return DiscreteLaw(support, mass)


@st.composite
def stratum_systems(draw):
    """A law with 1-8 strata of k x k systems (k = 2..4) and a representer.

    Each stratum is regular (with some empty off-diagonal cells), exactly
    singular with a consistent response (Z row 1 duplicates Z row 0), or
    exactly singular with a response outside the range (row 1 has the W
    profile of row 0 but the Y profile reversed).  Each representer column
    is constant in W (inside every adjoint range) or random.
    """
    k_x = draw(st.integers(1, 8))
    k = draw(st.integers(2, 4))
    kinds = draw(st.lists(st.sampled_from(("regular", "consistent", "inconsistent")),
                          min_size=k_x, max_size=k_x))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = random_support(rng, 3, k, k, k_x)
    mass = rng.integers(1, 6, size=support.shape).astype(float)
    for m, kind in enumerate(kinds):
        if kind == "regular":
            empty = (rng.random((k, k)) < 0.3) & ~np.eye(k, dtype=bool)
            mass[:, empty, m] = 0.0
        elif kind == "consistent":
            mass[:, 1, :, m] = mass[:, 0, :, m]
        else:
            mass[:, 1, :, m] = mass[::-1, 0, :, m]
    alpha = rng.normal(size=(k, k_x))
    constant = rng.random(k_x) < 0.5
    alpha[:, constant] = alpha[0, constant]
    return DiscreteLaw(support, mass / mass.sum()), alpha


class TestBatchedSolver:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=stratum_systems())
    def test_matches_per_stratum_lstsq(self, case):
        # reference: one lstsq call per stratum, as the solver used to do
        law, alpha = case
        equations = (
            (cond_mean_operator(law), response_vector(law), solve_g, ()),
            (adjoint_mean_operator(law), alpha.T, solve_q, (alpha,)),
        )
        for lhs, rhs, solve, extra in equations:
            sol, residuals, ok, sigma = _solve_strata(lhs, rhs, DEFAULT_TOL)
            ref = np.array([np.linalg.lstsq(a, b, rcond=None)[0]
                            for a, b in zip(lhs, rhs)])
            ref_res = np.linalg.norm(
                np.einsum("mij,mj->mi", lhs, ref) - rhs, axis=1
            )
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(sol, ref, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(residuals, ref_res, rtol=0, atol=1e-12 * scale)
            ref_ok = ref_res <= DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(rhs, axis=1))
            np.testing.assert_array_equal(ok, ref_ok)
            np.testing.assert_allclose(
                sigma, [np.linalg.svd(a, compute_uv=False) for a in lhs],
                rtol=1e-12, atol=1e-15,
            )
            result = solve(law, *extra)
            if ref_ok.all():
                np.testing.assert_array_equal(result, sol.T)
            else:
                assert isinstance(result, NoSolution)
                assert result.stratum == int(np.flatnonzero(~ref_ok)[0])


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


@st.composite
def two_by_two_systems(draw):
    """A stack of 1-12 2x2 systems at scales 1e-3 to 1e3, with right-hand
    sides and the mask of those built consistent.

    Each matrix is random, a rotation of diag(1, 10**-u) with u in [0, 17],
    or has equal rows, equal columns, a zero row, or no nonzero entry.  Each
    right-hand side is b = A x (consistent) or random.
    """
    size = draw(st.integers(1, 12))
    kinds = draw(st.lists(
        st.sampled_from(("random", "rotated", "equal_rows", "equal_columns",
                         "zero_row", "zero")),
        min_size=size, max_size=size,
    ))
    consistent = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lhs = rng.normal(size=(size, 2, 2))
    for i, kind in enumerate(kinds):
        if kind == "rotated":
            u = draw(st.floats(0.0, 17.0))
            t = rng.uniform(-np.pi, np.pi, size=2)
            lhs[i] = _rotation(t[0]) @ np.diag([1.0, 10.0 ** -u]) @ _rotation(t[1])
        elif kind == "equal_rows":
            lhs[i, 1] = lhs[i, 0]
        elif kind == "equal_columns":
            lhs[i, :, 1] = lhs[i, :, 0]
        elif kind == "zero_row":
            lhs[i, rng.integers(2)] = 0.0
        elif kind == "zero":
            lhs[i] = 0.0
    lhs *= 10.0 ** rng.uniform(-3.0, 3.0, size=(size, 1, 1))
    built = np.einsum("sij,sj->si", lhs, rng.normal(size=(size, 2)))
    rhs = np.where(consistent[:, None], built, rng.normal(size=(size, 2)))
    return lhs, rhs, consistent


class TestRotationSolve:
    """The closed-form 2x2 path against the batched-SVD reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(case=two_by_two_systems())
    def test_matches_svd_reference(self, case):
        lhs, rhs, consistent = case
        sol, residuals, ok, sigma = _solve_strata(lhs, rhs, DEFAULT_TOL)
        ref, ref_res, ref_ok, ref_sigma = svd_solve_strata(lhs, rhs, DEFAULT_TOL)
        s1 = ref_sigma[:, 0]
        cutoff = 2.0 * EPS * s1

        # singular values, largest first, to within 4 eps sigma_max
        assert np.all(sigma[:, 0] >= sigma[:, 1]) and np.all(sigma[:, 1] >= 0.0)
        assert np.all(np.abs(sigma - ref_sigma) <= 4.0 * EPS * s1[:, None])

        # outside a 4x band around the cutoff the rank decision is the same
        band = (s1 > 0.0) & (ref_sigma[:, 1] >= cutoff / 4) & (ref_sigma[:, 1] <= 4 * cutoff)
        clear = ~band
        rank = (sigma > 2.0 * EPS * sigma[:, :1]).sum(axis=1)
        ref_rank = (ref_sigma > cutoff[:, None]).sum(axis=1)
        np.testing.assert_array_equal(rank[clear], ref_rank[clear])

        # the minimum-norm solutions agree within the least-squares
        # perturbation bound eps * cond * (|x| + |r| / sigma_r), sigma_r the
        # smallest kept singular value and r the least-squares residual
        kept = np.take_along_axis(ref_sigma, np.maximum(ref_rank - 1, 0)[:, None], 1)[:, 0]
        cond = np.divide(s1, kept, out=np.zeros_like(s1), where=ref_rank > 0)
        size = np.linalg.norm(ref, axis=1) + np.divide(
            ref_res, kept, out=np.zeros_like(s1), where=ref_rank > 0)
        gap = np.linalg.norm(sol - ref, axis=1)
        assert np.all(gap[clear] <= 16.0 * EPS * (cond * size)[clear])

        # the consistency decision is the same away from the tolerance, and
        # every system built consistent is consistent
        threshold = DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(rhs, axis=1))
        sure = clear & ((ref_res < threshold / 4) | (ref_res > 4 * threshold))
        np.testing.assert_array_equal(ok[sure], ref_ok[sure])
        assert ok[consistent].all()

        # elementwise: each system alone gives the bits it gets in the stack
        for i in range(len(lhs)):
            alone = _solve_strata(lhs[i:i + 1], rhs[i:i + 1], DEFAULT_TOL)
            for got, stacked in zip(alone, (sol, residuals, ok, sigma)):
                np.testing.assert_array_equal(got[0], stacked[i])

    def test_two_by_two_stacks_skip_the_svd(self, monkeypatch):
        """The closed form is chosen by shape: no 2x2 stack reaches LAPACK,
        every other shape does."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        lhs = np.random.default_rng(5).normal(size=(3, 4, 2, 2))
        rhs = np.ones((3, 4, 2))
        monkeypatch.setattr(np.linalg, "svd", refuse)
        sol, _, ok, sigma = _solve_strata(lhs, rhs, DEFAULT_TOL)
        assert sol.shape == (3, 4, 2) and ok.shape == (3, 4) and sigma.shape == (3, 4, 2)
        with pytest.raises(AssertionError, match="svd called"):
            _solve_strata(np.eye(3)[None], np.ones((1, 3)), DEFAULT_TOL)


class TestStackedSolve:
    """wald_ci solves g's and q's square systems as one (2, ...) stack."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        k=st.sampled_from([2, 3, 4, 8]),
        lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        degenerate=st.sampled_from(["none", "equal_rows", "zero_row", "zero"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_of_two_gives_the_bits_of_two_calls(self, k, lead, degenerate, seed):
        """One call on np.array([A, B]) returns, in entry 0 and entry 1, the
        bits that the calls on A and on B return: solutions, residuals,
        consistency and singular values, on the 2x2 path and the SVD path."""
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (k, k)
        systems = []
        for _ in range(2):
            lhs = rng.gamma(1.0, size=shape) * (rng.random(shape) >= 0.3)
            if degenerate == "equal_rows":
                lhs[..., 1, :] = lhs[..., 0, :]
            elif degenerate == "zero_row":
                lhs[..., -1, :] = 0.0
            elif degenerate == "zero":
                lhs[rng.random(shape[:-2]) < 0.5] = 0.0
            lhs /= np.maximum(lhs.sum(axis=-1, keepdims=True), 1.0)
            built = np.einsum("...ij,...j->...i", lhs, rng.normal(size=shape[:-1]))
            rhs = np.where(rng.random(shape[:-2] + (1,)) < 0.5, built,
                           rng.normal(size=shape[:-1]))
            systems.append((lhs, rhs))
        (a, b), (c, d) = systems
        stacked = _solve_strata(np.array([a, c]), np.array([b, d]), DEFAULT_TOL)
        for i, (lhs, rhs) in enumerate(systems):
            alone = _solve_strata(lhs, rhs, DEFAULT_TOL)
            for got, want in zip(stacked, alone):
                assert got[i].shape == want.shape
                assert got[i].tobytes() == want.tobytes()


class TestCondMeanOperator:
    def test_wz_deterministic_is_identity(self):
        law = wz_identity_late()
        T = cond_mean_operator(law)[0]
        np.testing.assert_allclose(T, np.eye(2), atol=1e-14)

    def test_independence_gives_rank_one(self):
        law = w_indep_z_law()
        T = cond_mean_operator(law)[0]
        np.testing.assert_allclose(T[0], T[1], atol=1e-14)
        assert np.linalg.matrix_rank(T, tol=1e-10) == 1

    def test_constants_are_fixed_points(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            law = random_law(rng, 3, 3, 3, 2)
            for m in range(2):
                T = cond_mean_operator(law)[m]
                np.testing.assert_allclose(
                    T @ np.full(3, 2.5), 2.5, atol=1e-12
                )


class TestResponseVector:
    def test_y_independent_of_z_constant(self):
        rng = np.random.default_rng(22)
        support = random_support(rng, 3, 2, 2, 1)
        py = rng.dirichlet(np.ones(3))
        pzw = rng.dirichlet(np.ones(4)).reshape(2, 2)
        mass = np.einsum("h,lj->hlj", py, pzw)[..., None]
        law = DiscreteLaw(support, mass)
        r = response_vector(law)[0]
        assert r[0] == pytest.approx(r[1], abs=1e-12)

    def test_binary_probabilities(self):
        law = binary_kernel_law(r=(0.25, 0.65))
        r = response_vector(law)[0]
        np.testing.assert_allclose(r, [0.25, 0.65], atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(23)
        law = random_law(rng, 4, 3, 3, 2)
        ybar = law.support.y_cell_means
        for m in range(2):
            r = response_vector(law)[m]
            for l in range(3):
                num = sum(
                    law.mass[h, l, j, m] * ybar[h]
                    for h in range(4) for j in range(3)
                )
                den = law.mass[:, l, :, m].sum()
                assert r[l] == pytest.approx(num / den, rel=1e-12)


class TestSolveG:
    def test_identity_operator(self):
        law = wz_identity_late(r=(0.3, 0.7))
        g = solve_g(law)
        np.testing.assert_allclose(g[:, 0], [0.3, 0.7], atol=1e-12)

    def test_binary_closed_form(self):
        # slope (0.7-0.3)/(0.6-0.2) = 1, so g = (0.1, 1.1)
        law = binary_kernel_law(p_w=(0.2, 0.6), r=(0.3, 0.7))
        g = solve_g(law)
        T = cond_mean_operator(law)[0]
        r = response_vector(law)[0]
        direct = np.linalg.solve(T, r)
        np.testing.assert_allclose(g[:, 0], direct, atol=1e-12)
        np.testing.assert_allclose(g[:, 0], [0.1, 1.1], atol=1e-12)

    def test_rank_one_mismatch_gives_no_solution(self):
        law = w_indep_z_law(r=(0.3, 0.7))
        result = solve_g(law)
        assert isinstance(result, NoSolution)
        assert result.residual > 1e-8
        assert result.stratum == 0


class TestRieszAlpha:
    def test_late_uniform(self):
        law = binary_kernel_law(p_w=(0.5, 0.5))
        alpha = riesz_alpha(law, FunctionalSpec.late())
        np.testing.assert_allclose(alpha[:, 0], [-2.0, 2.0], atol=1e-14)

    def test_ate_iv_closed_form(self):
        rng = np.random.default_rng(24)
        support = SupportSpec(
            mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1],
            mu_x=rng.uniform(0.5, 2.0, 2), iota_y=[0.0, 1.0],
        )
        # force f(W=1 | X=m) = 0.25 on every stratum
        pzy = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)
        mass = np.zeros(support.shape)
        px = (0.4, 0.6)
        for m in range(2):
            for j, pj in enumerate((0.75, 0.25)):
                for h in range(2):
                    for l in range(2):
                        mass[h, l, j, m] = px[m] * pj * pzy[m, l, h]
        law = DiscreteLaw(support, mass)
        alpha = riesz_alpha(law, FunctionalSpec.ate_iv())
        np.testing.assert_allclose(alpha[1], 4.0, atol=1e-12)
        np.testing.assert_allclose(alpha[0], -4.0 / 3.0, atol=1e-12)

    def test_proximal_matches_kernel_oracle(self):
        rng = np.random.default_rng(25)
        mu_l = rng.uniform(0.5, 2.0, 2)
        support = SupportSpec(
            mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
            mu_x=np.repeat(mu_l, 2), iota_y=[0.0, 1.0],
        )
        law = random_law(rng, support=support)
        alpha = riesz_alpha(law, FunctionalSpec.proximal_ate())
        mass_wx = marginal(law, ("W", "X"))
        for j in range(2):
            for lcell in range(2):
                dens = mass_wx[j, 2 * lcell:2 * lcell + 2] / support.mu_x[2 * lcell]
                p = dens / dens.sum()
                assert alpha[j, 2 * lcell] == pytest.approx(-1.0 / p[0], rel=1e-12)
                assert alpha[j, 2 * lcell + 1] == pytest.approx(1.0 / p[1], rel=1e-12)

    def test_positivity_violation(self):
        support = SupportSpec(
            mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1], iota_y=[0.0, 1.0]
        )
        mass = np.zeros(support.shape)
        mass[:, :, 0, :] = 1.0 / 4.0    # W = 1 never occurs
        with pytest.raises(PositivityViolation):
            riesz_alpha(DiscreteLaw(support, mass), FunctionalSpec.late())

    def test_generic_passthrough(self):
        rng = np.random.default_rng(26)
        law = random_law(rng, 2, 3, 3, 2)
        coef = rng.normal(size=(3, 2))
        alpha = riesz_alpha(law, FunctionalSpec.generic(coef))
        np.testing.assert_array_equal(alpha, coef)

    def test_spec_keeps_copies_of_its_arrays(self):
        """A spec's coefficients are read-only copies: a later write to the
        caller's array cannot put a NaN past the finite check."""
        alpha, omega = np.ones((3, 2)), np.ones(3)
        specs = (FunctionalSpec.generic(alpha), FunctionalSpec.npiv(omega))
        alpha[0, 0] = omega[0] = np.nan
        for spec, name in zip(specs, ("alpha", "omega")):
            assert np.isfinite(getattr(spec, name)).all()
            assert not getattr(spec, name).flags.writeable


class TestFunctionalSpec:
    @pytest.mark.parametrize("kind, coefficients", [
        ("late", {"alpha": [[1.0], [2.0]]}),
        ("ate_iv", {"omega": [1.0, 2.0]}),
        ("npiv", {"omega": [1.0, 2.0], "alpha": [[1.0], [2.0]]}),
        ("generic", {"alpha": [[1.0], [2.0]], "omega": [1.0, 2.0]}),
    ])
    def test_coefficient_its_kind_does_not_take_is_refused(self, kind, coefficients):
        """A spec carries no coefficient its kind never reads: omega is
        npiv's alone and alpha generic's alone."""
        with pytest.raises(ValueError, match="and only"):
            FunctionalSpec(kind=kind, **coefficients)
        with pytest.raises(ValueError, match="and only"):
            FunctionalSpec.from_dict({"kind": kind, **coefficients})

    def test_unknown_key_is_refused_and_every_kind_reads_back(self):
        """A key other than kind, omega and alpha is refused, and so is a
        null coefficient; every spec reads back from what to_dict writes."""
        with pytest.raises(ValueError, match=r"unknown functional keys \['bogus'\]"):
            FunctionalSpec.from_dict({"kind": "late", "bogus": 1})
        with pytest.raises(ValueError, match="omega must hold numbers only"):
            FunctionalSpec.from_dict({"kind": "late", "omega": None})
        specs = (FunctionalSpec.late(), FunctionalSpec.ate_iv(),
                 FunctionalSpec.proximal_ate(), FunctionalSpec.npiv([0.5, 1.0]),
                 FunctionalSpec.generic([[-1.0], [1.0]]))
        for spec in specs:
            d = json.loads(json.dumps(spec.to_dict()))
            assert FunctionalSpec.from_dict(d).to_dict() == d


class TestSolveQ:
    def test_identity_adjoint(self):
        law = wz_identity_late()
        alpha = riesz_alpha(law, FunctionalSpec.late())
        q = solve_q(law, alpha)
        np.testing.assert_allclose(q, alpha, atol=1e-12)

    def test_late_closed_form(self):
        # The defining equation E[q(Z) | W] = (2W-1)/f_W(W) forces
        # q(Z) = (2Z-1) / (f_Z(Z) * delta) with delta = E[W|Z=1] - E[W|Z=0];
        # delta equals cov(W, Z) / {f_Z(0) f_Z(1)}.
        law = late_law(p_z1=0.4, p_w=(0.3, 0.7))
        alpha = riesz_alpha(law, FunctionalSpec.late())
        q = solve_q(law, alpha)
        mass = law.mass
        f_z = np.array([mass[:, 0].sum(), mass[:, 1].sum()])
        delta = (mass[:, 1, 1, :].sum() / f_z[1]
                 - mass[:, 0, 1, :].sum() / f_z[0])
        e_w = mass[:, :, 1, :].sum()
        cov = mass[:, 1, 1, :].sum() - e_w * f_z[1]
        assert delta == pytest.approx(cov / (f_z[0] * f_z[1]), rel=1e-12)
        expect = np.array([-1.0 / (f_z[0] * delta), 1.0 / (f_z[1] * delta)])
        np.testing.assert_allclose(q[:, 0], expect, rtol=1e-10)
        # and the solution does satisfy the adjoint equation cellwise
        mass_zw = mass.sum(axis=(0, 3))
        f_w = mass_zw.sum(axis=0)
        for j in range(2):
            cond = mass_zw[:, j] / f_w[j]
            assert float(q[:, 0] @ cond) == pytest.approx(
                alpha[j, 0], rel=1e-10
            )

    def test_rank_one_adjoint_no_solution(self):
        law = w_indep_z_law()
        alpha = np.array([[1.0], [3.0]])   # non-constant in W
        result = solve_q(law, alpha)
        assert isinstance(result, NoSolution)


class TestEvaluatePhi:
    def test_identity_late(self):
        law = wz_identity_late(r=(0.3, 0.7))
        assert evaluate_phi(law, FunctionalSpec.late()) == pytest.approx(0.4, abs=1e-12)

    def test_late_equals_wald_ratio(self):
        rng = np.random.default_rng(27)
        for _ in range(25):
            law = late_law(
                p_z1=rng.uniform(0.2, 0.8),
                p_w=(rng.uniform(0.05, 0.45), rng.uniform(0.55, 0.95)),
                y_base=rng.uniform(0.1, 0.4),
                y_gain=rng.uniform(0.1, 0.5),
            )
            phi = evaluate_phi(law, FunctionalSpec.late())
            assert phi == pytest.approx(wald_ratio(law), abs=1e-10)

    def test_zero_representer(self):
        rng = np.random.default_rng(28)
        law = random_law(rng, 2, 2, 2, 1)
        spec = FunctionalSpec.generic(np.zeros((2, 1)))
        assert evaluate_phi(law, spec) == 0.0

    def test_no_solution_propagates(self):
        law = w_indep_z_law()
        result = evaluate_phi(law, FunctionalSpec.late())
        assert isinstance(result, NoSolution)


@st.composite
def kind_laws(draw):
    """A random law on a random support of a random functional kind (k 2-4,
    k_x 1-4, as far as the kind allows), with its spec; some laws have
    zero-mass cells, so empty rows and vanishing densities occur."""
    kind = draw(st.sampled_from(FunctionalSpec.KINDS))
    k = 2 if kind in ("late", "ate_iv") else draw(st.integers(2, 4))
    k_x = 1 if kind in ("late", "npiv") else draw(st.integers(1, 4))
    if kind == "proximal_ate":
        k_x += k_x % 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = kind_support(rng, kind, k, draw(st.integers(2, 3)), k_x)
    mass = rng.gamma(2.0, size=support.shape) + 0.05
    if draw(st.booleans()):
        mass *= rng.random(support.shape) >= draw(st.sampled_from((0.3, 0.7)))
        mass.flat[0] += float(not mass.any())
    return DiscreteLaw(support, mass / mass.sum()), kind_spec(rng, kind, support)


@st.composite
def wide_laws(draw):
    """A law on a support with k 2-9 and k_x 1-16, with its spec: the first
    law of a generated sequence, or a strictly positive random law whose
    mass tensor is Fortran-ordered or C-ordered over permuted axes."""
    k, k_x = draw(st.integers(2, 9)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = random_base(rng, k=k, k_y=draw(st.integers(2, 3)), k_x=k_x, tame=True)
        try:
            sequence = generate_sequence(base, draw(st.floats(0.5, 2.0)), [0.05])
        except WeakdepError:
            assume(False)
        return sequence.steps[0].law, base.functional
    support = random_support(rng, draw(st.integers(2, 3)), k, k, k_x)
    mass = rng.gamma(2.0, size=support.shape) + 0.05
    mass /= mass.sum()
    if draw(st.booleans()):
        mass = np.asfortranarray(mass)
    else:
        axes = draw(st.permutations(range(4)))
        mass = np.ascontiguousarray(mass.transpose(axes)).transpose(np.argsort(axes))
    return DiscreteLaw(support, mass), spec_for_support(rng, support)


def _nuisance_rows(out, r):
    """Every array of a _nuisances result, at stack row r (r None: a result
    of masses without a stack axis)."""
    row = () if r is None else (r,)
    pair = (slice(None),) + row
    gq, (alpha, mass_wx), (residuals, ok, sigma), masks = out
    return [gq[pair], alpha[row], mass_wx[row], residuals[pair], ok[pair], sigma[row],
            *(mask[row] for mask in masks)]


class TestNuisances:
    """The one stacked g / q solve behind Wald and the membership check."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=kind_laws(), reps=st.integers(2, 6))
    def test_a_stack_gives_each_row_the_bits_of_one_law(self, case, reps):
        law, spec = case
        alone = _nuisance_rows(_nuisances(law.mass, spec, law.support, DEFAULT_TOL), None)
        one = _nuisances(law.mass[None], spec, law.support, DEFAULT_TOL)
        stack = _nuisances(np.array([law.mass] * reps), spec, law.support, DEFAULT_TOL)
        for r in range(reps):
            for got, ref, ref_one in zip(_nuisance_rows(stack, r), alone,
                                         _nuisance_rows(one, 0)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert got.tobytes() == ref.tobytes() == ref_one.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=kind_laws())
    def test_membership_phi_matches_the_reference(self, case):
        """In the model, the check's phi is the reference evaluate_phi (solve_g,
        riesz_alpha and the law's (W, X) marginal), bit for bit."""
        law, spec = case
        report = check_model_membership(law, spec)
        if report.in_model:
            assert report.phi == evaluate_phi(law, spec)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=wide_laws())
    def test_reference_path_gives_the_membership_bits(self, case):
        """On supports with k 2-9 and k_x 1-16, generated or laid out in any
        order, the systems solve_g and solve_q solve have the check's
        per-stratum residuals, and evaluate_phi is its phi, bit for bit."""
        law, spec = case
        report = check_model_membership(law, spec)
        assert report.in_model
        g_res = _solve_strata(cond_mean_operator(law), response_vector(law),
                              DEFAULT_TOL)[1]
        q_res = _solve_strata(adjoint_mean_operator(law), riesz_alpha(law, spec).T,
                              DEFAULT_TOL)[1]
        assert tuple(g_res.tolist()) == report.g_residuals
        assert tuple(q_res.tolist()) == report.q_residuals
        assert evaluate_phi(law, spec) == report.phi

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=kind_laws(), fortran=st.booleans())
    def test_membership_does_not_depend_on_the_memory_layout(self, case, fortran):
        """A law whose mass tensor is Fortran-ordered, or C-ordered over
        (W, Y, X, Z) axes, as an einsum may return it, gets the report of its
        C-ordered copy, bit for bit."""
        law, spec = case
        mass = np.asfortranarray(law.mass) if fortran else \
            np.ascontiguousarray(law.mass.transpose(2, 0, 3, 1)).transpose(1, 3, 0, 2)
        assert check_model_membership(DiscreteLaw(law.support, mass), spec) \
            == check_model_membership(law, spec)


class TestModelMembership:
    def test_identity_law_in_model(self):
        report = check_model_membership(wz_identity_late(), FunctionalSpec.late())
        assert report.in_model
        assert report.g_residual < 1e-12
        assert report.q_residual < 1e-12
        assert report.positivity_ok

    def test_independence_out_of_model(self):
        report = check_model_membership(w_indep_z_law(), FunctionalSpec.late())
        assert not report.in_model
        assert report.g_residual > 1e-8

    def test_random_laws_generically_in_model(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(20):
            support = random_support(rng, 3, 3, 3, 2)
            law = random_law(rng, support=support)
            spec = spec_for_support(rng, support)
            hits += check_model_membership(law, spec).in_model
        assert hits == 20

    @staticmethod
    def _emptied(law, cells):
        """The law with the masses at ``cells`` (an index of the mass tensor)
        set to zero, renormalised."""
        mass = law.mass.copy()
        mass[cells] = 0.0
        return DiscreteLaw(law.support, mass / mass.sum())

    def _branch_cases(self):
        """(name, law, spec, in_model, positivity_ok, g solved, q solved,
        message), one per way a report can end; the messages are the ones
        the law-level operators and riesz_alpha raise."""
        rng = np.random.default_rng(34)
        generic = random_law(rng, support=random_support(rng, 2, 3, 3, 2))
        spec = FunctionalSpec.generic(rng.uniform(-2.0, 2.0, size=(3, 2)))
        ate = random_law(rng, support=random_support(rng, 2, 2, 2, 3, unit_zw=True))
        return [
            ("empty (Z, X) row", self._emptied(generic, np.s_[:, 2, :, 1]), spec,
             False, True, False, False, "zero probability on conditioning cell (2, 1)"),
            ("empty (W, X) row", self._emptied(generic, np.s_[:, :, 1, 0]), spec,
             False, True, True, False, "zero probability on conditioning cell (1, 0)"),
            ("vanishing density", self._emptied(ate, np.s_[:, :, 0, 1]),
             FunctionalSpec.ate_iv(), False, False, True, False,
             "zero density at cell (0, 1)"),
            ("inconsistent g", w_indep_z_law(), FunctionalSpec.late(),
             False, True, True, True, ""),
            ("in model", wz_identity_late(), FunctionalSpec.late(),
             True, True, True, True, ""),
        ]

    def test_every_report_branch(self):
        """Each branch's verdict, the residuals it sets and its message."""
        for (name, law, spec, in_model, positivity_ok, g_solved, q_solved,
             message) in self._branch_cases():
            report = check_model_membership(law, spec)
            k_x = law.support.k_x
            assert report.in_model is in_model, name
            assert report.positivity_ok is positivity_ok, name
            assert report.message == message, name
            assert (report.g_residual is not None) is g_solved, name
            assert len(report.g_residuals) == len(report.sigma_min) \
                == len(report.sigma_max) == (k_x if g_solved else 0), name
            assert (report.q_residual is not None) is q_solved, name
            assert len(report.q_residuals) == (k_x if q_solved else 0), name
            assert (report.phi is not None) is in_model, name
            if g_solved:
                assert report.g_residual == max(report.g_residuals), name
                assert report.sigma_min <= report.sigma_max, name
            if q_solved:
                assert report.q_residual == max(report.q_residuals), name
        report = check_model_membership(w_indep_z_law(), FunctionalSpec.late())
        assert report.g_residual > DEFAULT_TOL
        assert check_model_membership(wz_identity_late(), FunctionalSpec.late()) \
            .phi == pytest.approx(0.4, abs=1e-12)

    def test_spec_that_does_not_fit_the_support_raises(self):
        law = random_law(np.random.default_rng(35), 2, 3, 3, 1)
        for spec in (FunctionalSpec.late(), FunctionalSpec.ate_iv(),
                     FunctionalSpec.generic(np.ones((3, 2)))):
            with pytest.raises(ValueError):
                check_model_membership(law, spec)


class TestStructuralInvariants:
    def test_adjointness(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            law = random_law(rng, 3, 3, 3, 2)
            mass_zx = marginal(law, ("Z", "X"))
            mass_wx = marginal(law, ("W", "X"))
            g = rng.normal(size=(3, 2))
            q = rng.normal(size=(3, 2))
            for m in range(2):
                T = cond_mean_operator(law)[m]
                A = adjoint_mean_operator(law)[m]
                lhs = float(q[:, m] @ (T @ g[:, m] * mass_zx[:, m]))
                rhs = float((A @ q[:, m] * mass_wx[:, m]) @ g[:, m])
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_phi_well_defined_on_singular_operator(self):
        # W independent of Z: the operator has a nontrivial kernel; a
        # W-constant response is consistent, and any representer in the
        # adjoint range must give the same functional for every solution
        law = w_indep_z_law(r=(0.4, 0.4))
        spec = FunctionalSpec.generic(np.full((2, 1), 1.7))
        g = solve_g(law)
        assert not isinstance(g, NoSolution)
        alpha = riesz_alpha(law, spec)
        q = solve_q(law, alpha)
        assert not isinstance(q, NoSolution)
        T = cond_mean_operator(law)[0]
        # kernel direction of the rank-one operator
        null = np.array([1.0, -T[0, 0] / T[0, 1]])
        assert np.linalg.norm(T @ null) < 1e-12
        mass_wx = marginal(law, ("W", "X"))
        phi_a = float(np.sum(alpha * g * mass_wx))
        phi_b = float(np.sum(alpha * (g + null[:, None]) * mass_wx))
        assert abs(phi_a - phi_b) <= 1e-8

    def test_psi1_unbiased_iff_theta_is_phi(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            support = random_support(rng, 3, 3, 3, 2)
            law = random_law(rng, support=support)
            spec = spec_for_support(rng, support)
            g = solve_g(law)
            alpha = riesz_alpha(law, spec)
            q = solve_q(law, alpha)
            phi = evaluate_phi(law, spec)
            for theta, expected in ((phi, 0.0), (phi + 0.5, -0.5)):
                psi = psi1_values(support, spec, g, q) - theta
                assert (law.mass * psi).sum() == pytest.approx(expected, abs=1e-10)

    def test_m_cell_values_consistent_with_phi(self):
        # E[m(O, g)] must agree with E[alpha g] for every variant
        rng = np.random.default_rng(32)
        cases = [
            random_support(rng, 3, 2, 2, 1, unit_zw=True),   # late
            random_support(rng, 3, 2, 2, 3, unit_zw=True),   # ate_iv
            random_support(rng, 4, 3, 3, 1),                 # npiv
            random_support(rng, 3, 3, 3, 2),                 # generic
        ]
        for support in cases:
            law = random_law(rng, support=support)
            spec = spec_for_support(rng, support)
            g = solve_g(law)
            alpha = riesz_alpha(law, spec)
            mass_wx = marginal(law, ("W", "X"))
            lhs = float(np.sum(_m_cells(spec, g, law.support) * mass_wx))
            rhs = float(np.sum(alpha * g * mass_wx))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_proximal_m_cells(self):
        rng = np.random.default_rng(33)
        support = SupportSpec(
            mu_y=[1, 1], mu_z=[1, 1], mu_w=[1, 1], mu_x=[1.0, 1.0, 0.5, 0.5],
            iota_y=[0.0, 1.0],
        )
        law = random_law(rng, support=support)
        spec = FunctionalSpec.proximal_ate()
        g = solve_g(law)
        mcell = _m_cells(spec, g, support)
        for j, m in itertools.product(range(2), range(4)):
            lcell = m // 2
            assert mcell[j, m] == pytest.approx(
                g[j, 2 * lcell + 1] - g[j, 2 * lcell], abs=1e-14
            )
        alpha = riesz_alpha(law, spec)
        mass_wx = marginal(law, ("W", "X"))
        assert float(np.sum(mcell * mass_wx)) == pytest.approx(
            float(np.sum(alpha * g * mass_wx)), abs=1e-10
        )
