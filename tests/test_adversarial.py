"""The weak-dependence construction: tilt matrices, perturbed kernels,
rank-one inverse, closed-form functional, limits, targeting, sequences."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weakdep import (
    BaseLawSpec,
    FunctionalSpec,
    NoSolution,
    PerturbationParams,
    adversarial,
    build_M,
    check_model_membership,
    closed_form_phi,
    cond_mean_operator,
    default_params,
    evaluate_phi,
    gamma_for_target,
    generate_sequence,
    marginal,
    perturb_kernels,
    riesz_alpha,
    sherman_morrison_inverse,
    solve_g,
    tv_distance,
)
from weakdep.adversarial import check_params
from weakdep.errors import (
    BracketingFailure,
    CollinearSupport,
    DegenerateBase,
    InvalidPerturbation,
    SingularPerturbation,
)

from helpers import acceptance_base, limit_phi, random_base, wald_ratio


def small_params(base, eta_w=0.02, gamma=0.5):
    return default_params(base, eta_w, gamma)


class TestBuildM:
    def test_zero_target_gives_zero(self):
        M = build_M(np.zeros(3), np.array([0.0, 1.0, 2.0]), np.ones(3))
        np.testing.assert_array_equal(M, 0.0)

    def test_two_by_two_constraints(self):
        a, b = 1.3, -0.7
        M = build_M(np.array([a, b]), np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(M @ np.array([0.0, 1.0]), [a, b], atol=1e-14)
        np.testing.assert_allclose(M @ np.array([1.0, 1.0]), 0.0, atol=1e-14)

    def test_random_constraints_and_minimality(self):
        rng = np.random.default_rng(41)
        iota = rng.normal(size=4)
        mu = rng.uniform(0.5, 2.0, size=4)
        alpha = rng.normal(size=3)
        M = build_M(alpha, iota, mu)
        np.testing.assert_allclose(M @ iota, alpha, atol=1e-12)
        np.testing.assert_allclose(M @ mu, 0.0, atol=1e-12)
        # no feasible matrix found by random search beats the Frobenius norm
        norm = np.linalg.norm(M)
        basis = np.vstack([iota, mu])
        for _ in range(1000):
            # random feasible matrix: M plus any rows orthogonal to (iota, mu)
            extra = rng.normal(size=(3, 4))
            extra -= extra @ basis.T @ np.linalg.solve(basis @ basis.T, basis)
            candidate = M + extra
            np.testing.assert_allclose(candidate @ iota, alpha, atol=1e-10)
            assert np.linalg.norm(candidate) >= norm - 1e-12

    def test_collinear_rejected(self):
        with pytest.raises(CollinearSupport):
            build_M(np.ones(2), np.array([1.0, 2.0]), np.array([2.0, 4.0]))

    def test_base_stack_matches_per_stratum(self):
        rng = np.random.default_rng(42)
        base = random_base(rng, k=3, k_y=3, k_x=5)
        s = base.support
        per_stratum = np.stack([
            build_M(base.alpha_tilde[:, m], s.iota_y, s.mu_y) for m in range(s.k_x)
        ])
        assert base.M.shape == (s.k_x, s.k_z, s.k_y)
        np.testing.assert_array_equal(base.M, per_stratum)
        assert not base.M.flags.writeable


class TestPerturbKernels:
    def test_zero_perturbation_reproduces_base(self):
        base = acceptance_base()
        params = small_params(base, eta_w=0.0, gamma=0.0)
        law = perturb_kernels(base, params)
        np.testing.assert_allclose(
            law.mass, base.product_law().mass, atol=1e-15
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), k_y=st.integers(2, 4),
           k_x=st.integers(1, 8), tame=st.booleans())
    def test_scale_zero_assembles_the_product_law(self, seed, k, k_y, k_x, tame):
        """On admissible random bases the perturbation (0, 0) is the product
        law bit for bit, C-ordered like every law."""
        base = random_base(np.random.default_rng(seed), k=k, k_y=k_y, k_x=k_x, tame=tame)
        params = PerturbationParams(0.0, 0.0)
        assume(check_params(base, params))
        law = perturb_kernels(base, params)
        product = base.product_law().mass
        assert law.mass.flags.c_contiguous and product.flags.c_contiguous
        assert law.mass.tobytes() == product.tobytes()

    def test_w_rows_integrate_to_one(self):
        rng = np.random.default_rng(42)
        base = random_base(rng, k=3, k_y=3, k_x=2)
        params = small_params(base, eta_w=0.03, gamma=0.4)
        s = base.support
        for m in range(s.k_x):
            kernel = np.outer(np.ones(3), base.pi_w_given_x[m]) + 0.03 * np.eye(3)
            for l in range(3):
                total = (kernel[l] * s.mu_w).sum() / (1.0 + 0.03 * s.mu_w[l])
                assert total == pytest.approx(1.0, abs=1e-12)
        law = perturb_kernels(base, params)
        assert abs(law.mass.sum() - 1.0) < 1e-12

    def test_kernel_round_trip(self):
        rng = np.random.default_rng(43)
        base = random_base(rng, k=3, k_y=2, k_x=2)
        eta = 0.04
        params = small_params(base, eta_w=eta, gamma=0.3)
        law = perturb_kernels(base, params)
        # the W | Z, X density: each operator entry divided by its W cell measure
        s = base.support
        kernel = cond_mean_operator(law) / s.mu_w
        for m in range(2):
            expect = (
                np.outer(np.ones(3), base.pi_w_given_x[m]) + eta * np.eye(3)
            ) / (1.0 + eta * s.mu_w)[:, None]
            np.testing.assert_allclose(kernel[m], expect, atol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 4), k_y=st.integers(2, 4), k_x=st.integers(1, 3),
        gamma=st.floats(-3.0, 3.0),
        scale=st.floats(0.01, 1.0),
    )
    def test_zx_marginal_preserved_exactly(self, seed, k, k_y, k_x, gamma, scale):
        """On random bases at admissible (eta_w, gamma): the (Z, X) marginal
        is the base's, every W and Y kernel row integrates to one, and the TV
        distance to the base is at most the sum over (Z, X) cells of the W
        bump eta_w * mu_w and half the L1 mass of the Y tilt."""
        base = random_base(np.random.default_rng(seed), k=k, k_y=k_y, k_x=k_x)
        s = base.support
        # eta_w up to one, or up to where pi_y + eta_w * gamma * M turns negative
        ratio = -gamma * base.M / base.pi_y_given_x[:, None, :]
        params = default_params(base, scale / max(1.0, float(ratio.max())), gamma)
        assume(check_params(base, params))
        law = perturb_kernels(base, params)
        np.testing.assert_allclose(marginal(law, ("Z", "X")), base.f_zx,
                                   rtol=0.0, atol=1e-14)
        zx = law.mass.sum(axis=(0, 2))                          # (k_z, k_x)
        w_rows = law.mass.sum(axis=0) / zx[:, None, :]          # (k_z, k_w, k_x)
        y_rows = law.mass.sum(axis=2) / zx                      # (k_y, k_z, k_x)
        np.testing.assert_allclose(w_rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(y_rows.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
        y_tilt = 0.5 * abs(params.eta_y) * (np.abs(base.M) @ s.mu_y)    # (k_x, k_z)
        tv_bound = np.sum(base.f_zx * (params.eta_w * s.mu_w[:, None] + y_tilt.T))
        assert tv_distance(law, base.product_law()) <= tv_bound * (1 + 1e-12)

    def test_invalid_perturbation_rejected(self):
        base = acceptance_base()
        # eta large enough to break Y-kernel positivity at this gamma
        params = default_params(base, eta_w=0.3, gamma=3.0)
        assert not check_params(base, params)
        for refused in (perturb_kernels, closed_form_phi):
            with pytest.raises(InvalidPerturbation,
                               match="^perturbation constraint violated: y_kernel_positive$"):
                refused(base, params)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), k_y=st.integers(2, 4),
           k_x=st.integers(1, 4), tame=st.booleans(),
           eta_w=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
           gamma=st.floats(-50.0, 50.0))
    def test_only_the_y_tilt_can_break_positivity(self, seed, k, k_y, k_x, tame,
                                                  eta_w, gamma):
        """At any scale >= 0 the raw W kernels, their normalizers and the
        rank-one update factor stay above POSITIVITY_SLACK, because the
        base's kernel entries do: the Y tilt is the one constraint a
        perturbation can violate, and check_params tests it alone."""
        base = random_base(np.random.default_rng(seed), k=k, k_y=k_y, k_x=k_x, tame=tame)
        kernels, norm = adversarial._w_kernels(base, eta_w)
        update = eta_w + base.pi_w_given_x.sum(axis=1)
        assert min(kernels.min(), norm.min(), update.min()) > adversarial.POSITIVITY_SLACK
        params = PerturbationParams(eta_w, gamma)
        y_kernels = base.pi_y_given_x[:, None, :] + params.eta_y * base.M
        assert check_params(base, params) is bool(
            y_kernels.min() > adversarial.POSITIVITY_SLACK)

    @pytest.mark.parametrize("eta_w, gamma", [
        (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (-0.01, 0.0), (-1e-300, 0.5),
        (0.01, np.nan), (0.01, np.inf), (0.0, np.inf), (1e200, 1e200),
    ])
    def test_scale_refusals(self, eta_w, gamma):
        """A negative or non-finite scale and a non-finite gamma or eta_y
        are refused where they are given, not assembled into NaN masses."""
        with pytest.raises(ValueError, match="must be finite"):
            PerturbationParams(eta_w, gamma)


class TestShermanMorrison:
    def test_inverts_the_kernel(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            k = rng.integers(2, 6)
            pi = rng.uniform(0.1, 1.0, size=k)
            eta = rng.uniform(-0.05, 0.05) or 0.01
            inv = sherman_morrison_inverse(pi, eta)
            kernel = np.outer(np.ones(k), pi) + eta * np.eye(k)
            np.testing.assert_allclose(inv @ kernel, np.eye(k), atol=1e-12)

    def test_scalar_case(self):
        inv = sherman_morrison_inverse(np.array([0.7]), 0.2)
        assert inv[0, 0] == pytest.approx(1.0 / 0.9, rel=1e-14)

    def test_agrees_with_generic_inverse(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            pi = rng.uniform(0.1, 1.0, size=4)
            eta = rng.uniform(0.001, 0.1)
            kernel = np.outer(np.ones(4), pi) + eta * np.eye(4)
            np.testing.assert_allclose(
                sherman_morrison_inverse(pi, eta), np.linalg.inv(kernel),
                atol=1e-10 / eta,
            )

    def test_singular_update_rejected(self):
        with pytest.raises(SingularPerturbation):
            sherman_morrison_inverse(np.array([0.5, 0.5]), 0.0)
        with pytest.raises(SingularPerturbation):
            sherman_morrison_inverse(np.array([0.5, 0.5]), -1.0)


class TestClosedFormPhi:
    def test_agrees_with_solver_on_random_params(self):
        rng = np.random.default_rng(47)
        for i in range(25):
            k = int(rng.integers(2, 5))
            k_y = int(rng.integers(2, 5))
            k_x = int(rng.integers(1, 4))
            base = random_base(rng, k=k, k_y=k_y, k_x=k_x)
            eta = float(rng.uniform(0.005, 0.05))
            gamma = float(rng.uniform(-1.5, 1.5))
            params = default_params(base, eta, gamma)
            if not check_params(base, params):
                continue
            law = perturb_kernels(base, params)
            phi_solver = evaluate_phi(law, base.functional)
            assert closed_form_phi(base, params) == pytest.approx(
                phi_solver, abs=1e-8
            )

    def test_zero_representer_gives_zero(self):
        rng = np.random.default_rng(48)
        base = random_base(rng, k=3, k_y=3, k_x=1)
        zero_base = BaseLawSpec(
            support=base.support, f_zx=base.f_zx,
            pi_w_given_x=base.pi_w_given_x, pi_y_given_x=base.pi_y_given_x,
            functional=FunctionalSpec.generic(
                np.concatenate([np.ones((1, 1)), np.zeros((2, 1))])
            ),
        )
        # replace the injected representer with all zeros after construction
        # is impossible (the base rejects constant representers), so check the
        # inner product directly: a zero representer kills every term
        params = small_params(base, 0.02, 0.7)
        law = perturb_kernels(base, params)
        g = solve_g(law)
        mass_wx = marginal(law, ("W", "X"))
        assert float(np.sum(np.zeros_like(g) * g * mass_wx)) == 0.0
        assert zero_base.alpha_tilde[0, 0] == 1.0

    def test_late_base_matches_wald_ratio(self):
        base = acceptance_base()
        params = default_params(base, 0.05, 1.25)
        law = perturb_kernels(base, params)
        assert closed_form_phi(base, params) == pytest.approx(
            wald_ratio(law), abs=1e-10
        )


class TestLimitPhi:
    def test_gamma_zero_gives_intercept(self):
        rng = np.random.default_rng(49)
        base = random_base(rng, k=3, k_y=3, k_x=2)
        from weakdep.adversarial import limit_phi_coefficients

        slope, intercept = limit_phi_coefficients(base)
        assert limit_phi(base, 0.0) == pytest.approx(intercept, abs=1e-14)
        assert slope > 0.0

    def test_closed_form_converges_to_limit(self):
        rng = np.random.default_rng(50)
        for _ in range(10):
            base = random_base(
                rng, k=int(rng.integers(2, 4)), k_y=int(rng.integers(2, 4)),
                k_x=int(rng.integers(1, 3)),
            )
            gamma = float(rng.uniform(-1.0, 1.0))
            target = limit_phi(base, gamma)
            gaps = []
            for k in (3, 4, 5, 6):
                params = default_params(base, 10.0**-k, gamma)
                assert check_params(base, params)
                gaps.append(abs(closed_form_phi(base, params) - target))
            assert gaps[0] > gaps[1] > gaps[2]
            assert gaps[2] <= 1e-4


class TestGammaForTarget:
    def test_intercept_target_gives_zero(self):
        rng = np.random.default_rng(51)
        base = random_base(rng, k=3, k_y=2, k_x=1)
        intercept = limit_phi(base, 0.0)
        assert gamma_for_target(base, intercept) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(52)
        base = random_base(rng, k=2, k_y=3, k_x=2)
        for zeta in (-10.0, 0.0, 3.7):
            gamma = gamma_for_target(base, zeta)
            assert limit_phi(base, gamma) == pytest.approx(zeta, abs=1e-12)

    def test_monotone_in_zeta(self):
        base = acceptance_base()
        gammas = [gamma_for_target(base, z) for z in (-3.0, -1.0, 0.0, 2.0, 5.0)]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))


class TestGenerateSequence:
    def test_intercept_target_keeps_gamma_small(self):
        base = acceptance_base()
        zeta = limit_phi(base, 0.0)
        seq = generate_sequence(base, zeta, (0.05, 0.01))
        for step in seq.steps:
            assert abs(step.gamma) < 0.05

    def test_acceptance_base_certified(self):
        base = acceptance_base()
        seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
        base_law = base.product_law()
        prev = float("inf")
        for step in seq.steps:
            assert abs(step.phi_verified - 5.0) <= 1e-8
            assert abs(step.phi_closed - 5.0) <= 1e-8
            assert step.tv_to_base < prev
            prev = step.tv_to_base
            assert tv_distance(step.law, base_law) == step.tv_to_base
            report = check_model_membership(step.law, base.functional)
            assert report.in_model
        assert [s.tv_to_base for s in seq.steps] <= [0.05, 0.01, 0.002]

    def test_sigma_min_tracks_eta_w(self):
        # the certificates' eta_w really makes every stratum nearly singular:
        # the smallest singular value of each conditional mean operator lies
        # in [eta_w / 2, eta_w] (it is eta_w / (1 + eta_w) on the ratio base),
        # and the certificate reports the smallest of them and the largest
        # condition number
        bases = (acceptance_base(),
                 random_base(np.random.default_rng(0), k=2, k_y=3, k_x=16, tame=True))
        for base in bases:
            seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
            for step in seq.steps:
                report = check_model_membership(step.law, base.functional)
                sigma = np.array(report.sigma_min)
                assert sigma.shape == (base.support.k_x,)
                assert np.all(sigma >= 0.5 * step.eta_w)
                assert np.all(sigma <= step.eta_w)
                certificate = step.certificate()
                assert 0.5 * step.eta_w <= certificate["sigma_min"] <= step.eta_w
                assert certificate["sigma_min"] == sigma.min()
                assert certificate["cond"] == max(
                    np.array(report.sigma_max) / sigma)
                assert certificate["cond"] >= 1.0 / step.eta_w

    @pytest.mark.parametrize("zeta, targets", [
        (np.nan, (0.05,)), (-np.inf, (0.05,)), (5.0, (np.nan,)),
        (5.0, (np.inf, 0.05)), (5.0, (0.01, 0.05)), (5.0, (0.0,)), (5.0, ()),
    ])
    def test_malformed_arguments_rejected(self, zeta, targets):
        with pytest.raises(ValueError):
            generate_sequence(acceptance_base(), zeta, targets)

    def test_unattainable_tv_target_fails_loudly(self):
        base = acceptance_base()
        with pytest.raises(BracketingFailure):
            generate_sequence(base, 5.0, (0.05, 1e-12))

    @pytest.mark.parametrize("targets", [(1e-300,), (0.05, 1e-300)])
    def test_bracketing_failure_names_the_smallest_tv_reached(self, targets):
        """The failure names the smallest TV that an admissible scale of
        the failing target's search reached, walked here by hand: neither
        the previous step's TV nor inf at step 0."""
        base, zeta = acceptance_base(), 5.0
        with pytest.raises(BracketingFailure) as exc:
            generate_sequence(base, zeta, targets)
        step = len(targets) - 1
        assert exc.value.step == step
        below = (generate_sequence(base, zeta, targets[:step]).steps[-1].eta_w
                 if step else np.inf)
        eta_max = adversarial._max_eta(base, gamma_for_target(base, zeta))
        tvs = []
        for k in range(64):
            eta = eta_max * 0.5**k
            if not adversarial.ETA_FLOOR <= eta < below:
                continue
            w_side = adversarial._w_side(base, eta)
            gamma = adversarial._exact_gamma(base, w_side, eta, zeta)
            if check_params(base, default_params(base, eta, gamma)):
                law = perturb_kernels(base, default_params(base, eta, gamma))
                tvs.append(tv_distance(law, base.product_law()))
        assert tvs and f"(smallest tv reached {min(tvs):g})" in str(exc.value)
        assert "inf" not in str(exc.value)

    def test_bracketing_failure_without_an_admissible_scale(self, monkeypatch):
        """When no scale of the search is admissible, the failure says so."""
        def refuse(base, params):
            raise InvalidPerturbation("perturbation constraint violated: y_kernel_positive")
        monkeypatch.setattr(adversarial, "perturb_kernels", refuse)
        with pytest.raises(BracketingFailure, match=r"\(no scale was admissible\)$"):
            generate_sequence(acceptance_base(), 5.0, (0.05,))

    def test_alpha_converges_to_base_representer(self):
        # asymmetric base: the perturbation genuinely moves the W marginal
        base = BaseLawSpec(
            support=acceptance_base().support,
            f_zx=[[0.4], [0.6]],
            pi_w_given_x=[[0.3, 0.7]],
            pi_y_given_x=[[0.5, 0.5]],
            functional=FunctionalSpec.late(),
        )
        gamma = gamma_for_target(base, 5.0)
        gaps = []
        for eta in (1e-2, 1e-3, 1e-4):
            params = default_params(base, eta, gamma)
            law = perturb_kernels(base, params)
            alpha = riesz_alpha(law, base.functional)
            gaps.append(float(np.abs(alpha - base.alpha_tilde).max()))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 1e-3

    def test_each_scale_builds_its_w_side_once(self, monkeypatch):
        """The closed form at gamma 0, at gamma 1 and at the chosen gamma
        shares one rank-one inverse and one representer per candidate scale;
        perturb_kernels builds the W kernels a second time for an admissible
        scale, whose law is then measured by tv_distance."""
        base = acceptance_base()
        calls = dict.fromkeys(["sherman_morrison_inverse", "alpha_from_wx_mass",
                               "default_params", "perturb_kernels", "_w_kernels",
                               "tv_distance"], 0)
        for name in calls:
            def counted(*args, _call=getattr(adversarial, name), _name=name):
                calls[_name] += 1
                return _call(*args)
            monkeypatch.setattr(adversarial, name, counted)
        seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
        candidates = calls["default_params"]
        assert candidates > len(seq.steps) == 3         # some scales are rejected
        assert calls["perturb_kernels"] == calls["sherman_morrison_inverse"] \
            == calls["alpha_from_wx_mass"] == candidates
        assert calls["_w_kernels"] == candidates + calls["tv_distance"]

    def test_rejected_scales_are_halved_away(self, monkeypatch):
        """A start scale eight times the admissible bound on the ratio base
        is halved through three scales whose Y kernels go negative; the
        search then emits the unpatched search's steps bit for bit."""
        base = acceptance_base()
        expected = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
        max_eta, perturb = adversarial._max_eta, adversarial.perturb_kernels
        rejected = []

        def recorded(base, params):
            try:
                return perturb(base, params)
            except InvalidPerturbation as exc:
                rejected.append((params.eta_w, str(exc)))
                raise

        monkeypatch.setattr(adversarial, "_max_eta", lambda *args: 8.0 * max_eta(*args))
        monkeypatch.setattr(adversarial, "perturb_kernels", recorded)
        seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
        start = max_eta(base, gamma_for_target(base, 5.0))
        assert [eta for eta, _ in rejected] == [8.0 * start, 4.0 * start, 2.0 * start]
        assert {message for _, message in rejected} == {
            "perturbation constraint violated: y_kernel_positive"}
        assert len(seq.steps) == len(expected.steps) == 3
        for got, want in zip(seq.steps, expected.steps):
            assert got.certificate() == want.certificate()      # eta_w and gamma too
            assert got.law.mass.tobytes() == want.law.mass.tobytes()

    def test_roots_stay_clear_of_constraint_boundaries(self):
        base = acceptance_base()
        seq = generate_sequence(base, 5.0, (0.05, 0.01))
        s = base.support
        for step in seq.steps:
            params = default_params(base, step.eta_w, step.gamma)
            y_kernels = np.stack([
                np.outer(np.ones(2), base.pi_y_given_x[m])
                + params.eta_y * base.M[m]
                for m in range(s.k_x)
            ])
            assert y_kernels.min() > 1e-12
            assert (1.0 + step.eta_w * s.mu_w).min() > 1e-12

    @pytest.mark.parametrize("name, cell, value, message", [
        ("f_zx", (0, 0), -0.1, "strictly positive masses"),
        ("pi_w_given_x", (0, 1), 0.0, "strictly positive"),
        ("pi_y_given_x", (0, 0), 0.6, "integrate to 1"),
        ("f_zx", (1, 0), np.nan, "f_zx must be finite"),
        ("pi_w_given_x", (0, 0), np.nan, "pi_w_given_x must be finite"),
        ("pi_y_given_x", (0, 1), np.nan, "pi_y_given_x must be finite"),
        ("pi_y_given_x", (0, 1), np.inf, "pi_y_given_x must be finite"),
        ("pi_w_given_x", (0, 1), 1e-13, "pi_w_given_x densities .* above 1e-12"),
        ("pi_y_given_x", (0, 0), 1e-12, "pi_y_given_x densities .* above 1e-12"),
    ])
    def test_bad_base_inputs_rejected(self, name, cell, value, message):
        # NaN passes every "<= 0" and "|sum - 1| > tol" check, so it is caught
        # first and named, not reported as a constant representer; a kernel
        # entry at or below POSITIVITY_SLACK is refused before any perturbation
        fields = {"f_zx": [[0.4], [0.6]], "pi_w_given_x": [[0.3, 0.7]],
                  "pi_y_given_x": [[0.5, 0.5]]}
        bad = np.array(fields[name])
        bad[cell] = value
        fields[name] = bad
        with pytest.raises(ValueError, match=message):
            BaseLawSpec(support=acceptance_base().support,
                        functional=FunctionalSpec.late(), **fields)

    def test_base_keeps_copies_of_its_arrays(self):
        """The base's arrays are read-only copies: a later write to the
        caller's array cannot put a negative mass past the positivity check,
        and the representer and tilt it derives cannot be written at all."""
        fields = {"f_zx": np.array([[0.4], [0.6]]), "pi_w_given_x": np.array([[0.3, 0.7]]),
                  "pi_y_given_x": np.array([[0.5, 0.5]])}
        base = BaseLawSpec(support=acceptance_base().support,
                           functional=FunctionalSpec.late(), **fields)
        for name, array in fields.items():
            array[0, 0] = -1.0
            assert getattr(base, name)[0, 0] > 0.0
            assert not getattr(base, name).flags.writeable
        for name in ("alpha_tilde", "M"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(base, name)[0, 0] = 0.0

    def test_degenerate_base_rejected(self):
        # constant representer: uniform W with a generic constant alpha
        with pytest.raises(DegenerateBase):
            BaseLawSpec(
                support=acceptance_base().support,
                f_zx=[[0.5], [0.5]],
                pi_w_given_x=[[0.5, 0.5]],
                pi_y_given_x=[[0.5, 0.5]],
                functional=FunctionalSpec.generic(np.full((2, 1), 3.0)),
            )


class TestDegenerateLimit:
    def test_unsolvable_at_the_independence_boundary(self):
        # keep the Y tilt but remove the W perturbation: the operator is
        # rank one while the response still varies with Z, so no g exists
        base = acceptance_base()
        s = base.support
        M = build_M(base.alpha_tilde[:, 0], s.iota_y, s.mu_y)
        y_kernel = np.outer(np.ones(2), base.pi_y_given_x[0]) + 0.05 * M
        assert y_kernel.min() > 0.0
        mass = np.einsum(
            "lh,h,j,j,l->hlj",
            y_kernel, s.mu_y, base.pi_w_given_x[0], s.mu_w, base.f_zx[:, 0],
        )[..., None]
        law = perturb_kernels(
            base, PerturbationParams(eta_w=0.0, gamma=0.0)
        )
        from weakdep import DiscreteLaw

        tilted = DiscreteLaw(s, mass)
        T = cond_mean_operator(tilted)[0]
        assert np.linalg.matrix_rank(T, tol=1e-10) == 1
        with pytest.raises(NoSolution):
            solve_g(tilted)
        assert law.mass.shape == tilted.mass.shape
