"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a pass/fail line (collected into acceptance_report.txt
at session end) so the run doubles as the artifact's scorecard.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from weakdep import (
    FunctionalSpec,
    check_model_membership,
    closed_form_phi,
    cond_mean_operator,
    default_params,
    evaluate_phi,
    gamma_for_target,
    generate_sequence,
    perturb_kernels,
    response_vector,
    sample,
    sherman_morrison_inverse,
    solve_g,
    tv_distance,
)
from weakdep.adversarial import check_params
from weakdep.confsets import (
    Interval,
    binary_union_estimand,
    binary_union_set,
    score_invert_late,
    wald_ci,
)
from weakdep.simulate import wilson_interval
from weakdep import cli

from helpers import (
    acceptance_base,
    binary_x_law,
    divide_boxes,
    late_law,
    limit_phi,
    random_base,
    random_law,
    random_support,
    spec_for_support,
    wald_ratio,
)

_LINES = []


def record(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    _LINES.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="session", autouse=True)
def write_report():
    yield
    report = Path(__file__).resolve().parent.parent / "acceptance_report.txt"
    if _LINES:
        report.write_text("\n".join(_LINES) + "\n", encoding="utf-8")


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    accepted = 0
    attempts = 0
    late_checked = 0
    worst_residual = 0.0
    worst_wald_gap = 0.0
    while accepted < 200:
        attempts += 1
        assert attempts < 400, "random laws kept failing membership"
        if accepted % 4 == 0:
            support = random_support(rng, 2, 2, 2, 1, unit_zw=True)
        else:
            k = int(rng.integers(2, 5))
            support = random_support(
                rng, int(rng.integers(2, 5)), k, k, int(rng.integers(1, 4)),
                unit_zw=(k == 2),
            )
        law = random_law(rng, support=support)
        spec = spec_for_support(rng, support)
        report = check_model_membership(law, spec)
        if not report.in_model:
            continue
        accepted += 1
        g = solve_g(law)
        for m in range(support.k_x):
            res = float(np.linalg.norm(
                cond_mean_operator(law)[m] @ g[:, m] - response_vector(law)[m]
            ))
            worst_residual = max(worst_residual, res)
        if spec.kind == "late":
            late_checked += 1
            phi = evaluate_phi(law, spec)
            worst_wald_gap = max(worst_wald_gap, abs(phi - wald_ratio(law)))
    elapsed = time.perf_counter() - started
    record(
        "criterion 1 (solver oracle equivalence)",
        worst_residual <= 1e-8 and worst_wald_gap <= 1e-10
        and late_checked >= 40 and elapsed < 5.0,
        f"200 laws, max residual {worst_residual:.2e}, "
        f"{late_checked} ratio targets with max gap to the moment ratio "
        f"{worst_wald_gap:.2e}, {elapsed:.2f} s",
    )


def test_criterion_2_construction_certificates():
    base = acceptance_base()
    targets = (0.05, 0.01, 0.002)
    started = time.perf_counter()
    worst_phi_gap = 0.0
    worst_res = 0.0
    ok = True
    for zeta in (-10.0, 0.0, 3.7, 5.0):
        seq = generate_sequence(base, zeta, targets)
        prev_tv = float("inf")
        base_law = base.product_law()
        for step, target in zip(seq.steps, targets):
            worst_phi_gap = max(
                worst_phi_gap,
                abs(step.phi_verified - zeta), abs(step.phi_closed - zeta),
            )
            report = check_model_membership(step.law, base.functional)
            ok = ok and report.in_model
            worst_res = max(worst_res, report.g_residual, report.q_residual)
            tv = tv_distance(step.law, base_law)
            ok = ok and tv <= target and tv < prev_tv
            prev_tv = tv
    elapsed = time.perf_counter() - started
    record(
        "criterion 2 (construction certificates)",
        ok and worst_phi_gap <= 1e-8 and worst_res <= 1e-8 and elapsed < 30.0,
        f"4 targets x 3 steps, max |phi - zeta| {worst_phi_gap:.2e}, "
        f"max equation residual {worst_res:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_closed_form_agreement():
    rng = np.random.default_rng(103)
    checked = 0
    attempts = 0
    worst_gap = 0.0
    worst_inverse = 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 500
        base = random_base(
            rng, k=int(rng.integers(2, 5)), k_y=int(rng.integers(2, 5)),
            k_x=int(rng.integers(1, 4)),
        )
        eta = float(rng.uniform(0.003, 0.08))
        gamma = float(rng.uniform(-2.0, 2.0))
        params = default_params(base, eta, gamma)
        if not check_params(base, params):
            continue
        checked += 1
        law = perturb_kernels(base, params)
        phi_solver = evaluate_phi(law, base.functional)
        worst_gap = max(
            worst_gap, abs(closed_form_phi(base, params) - phi_solver)
        )
        for m in range(base.support.k_x):
            pi = base.pi_w_given_x[m]
            k = pi.size
            kernel = np.outer(np.ones(k), pi) + eta * np.eye(k)
            gap = np.abs(
                sherman_morrison_inverse(pi, eta) @ kernel - np.eye(k)
            ).max()
            worst_inverse = max(worst_inverse, gap)
    record(
        "criterion 3 (closed-form agreement)",
        worst_gap <= 1e-8 and worst_inverse <= 1e-10,
        f"100 perturbations, max |closed - solver| {worst_gap:.2e}, "
        f"max inverse defect {worst_inverse:.2e}",
    )


def test_criterion_4_limit_law():
    # Monotone decrease is asserted above a noise floor: when the Y tilt
    # vanishes (gamma = 0), several targets make the closed form equal its
    # limit for every scale (the response is constant, so the solution is
    # constant and the representer integrates the tilt away), leaving only
    # rounding noise, which grows like eps / eta and cannot decrease. The
    # floor sits above that amplified rounding (~1e-11 at scale 1e-5) and
    # five orders below the smallest genuine gap.
    noise_floor = 1e-10
    rng = np.random.default_rng(104)
    ok = True
    worst_at_k5 = 0.0
    worst_round_trip = 0.0

    def desk_scale_base():
        # cap the representer magnitude: the first-order sensitivity of the
        # functional to the scale grows with |alpha|^2, and the 1e-4 bound
        # at scale 1e-5 presumes desk-scale targets
        while True:
            candidate = random_base(
                rng, k=int(rng.integers(2, 4)), k_y=int(rng.integers(2, 4)),
                k_x=int(rng.integers(1, 3)), tame=True,
            )
            if np.abs(candidate.alpha_tilde).max() <= 2.5:
                return candidate

    for _ in range(20):
        base = desk_scale_base()
        for gamma in (-2.0, 0.0, 1.0):
            target = limit_phi(base, gamma)
            gaps = []
            for k in (3, 4, 5):
                params = default_params(base, 10.0**-k, gamma)
                assert check_params(base, params)
                gaps.append(abs(closed_form_phi(base, params) - target))
            for a, b in zip(gaps, gaps[1:]):
                ok = ok and (a > b or b <= noise_floor)
            worst_at_k5 = max(worst_at_k5, gaps[2])
        for zeta in (-10.0, 0.0, 3.7):
            gamma = gamma_for_target(base, zeta)
            worst_round_trip = max(
                worst_round_trip, abs(limit_phi(base, gamma) - zeta)
            )
    record(
        "criterion 4 (limit law)",
        ok and worst_at_k5 <= 1e-4 and worst_round_trip <= 1e-12,
        f"20 bases x 3 tilts monotone above noise floor, max gap at scale "
        f"1e-5 {worst_at_k5:.2e}, max targeting round trip {worst_round_trip:.2e}",
    )


def _draw(law, n, entropy, keys):
    """One sample of n draws per spawn key, each from its own seed sequence,
    as a stack of counts."""
    return np.concatenate([
        sample(law, n, np.random.SeedSequence(entropy=entropy, spawn_key=key))
        for key in keys
    ])


def test_criterion_5_strong_instrument_calibration():
    law = late_law(p_z1=0.5, p_w=(0.2, 0.8))
    phi = wald_ratio(law)
    spec = FunctionalSpec.late()
    s = Interval(-2.0, 2.0)
    reps = 1000
    n = 5000
    started = time.perf_counter()
    counts = _draw(law, n, 105, [(0, r) for r in range(reps)])
    wald_cov = int(wald_ci(counts, spec, law.support, 0.05, s=s).contains(phi).sum())
    score_cov = int(score_invert_late(counts, law.support, 0.05, s).contains(phi).sum())
    elapsed = time.perf_counter() - started
    ok = True
    details = []
    for name, cov in (("wald", wald_cov), ("score", score_cov)):
        rate = cov / reps
        lo, hi = wilson_interval(cov, reps)
        ok = ok and 0.93 <= rate <= 0.97 and lo <= 0.96 and hi >= 0.94
        details.append(f"{name} {rate:.3f} (wilson {lo:.3f}-{hi:.3f})")
    ok = ok and elapsed < 60.0
    record(
        "criterion 5 (strong-instrument calibration)",
        ok, ", ".join(details) + f", {elapsed:.1f} s",
    )


def test_criterion_6_wald_non_uniformity():
    base = acceptance_base()
    seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
    spec = FunctionalSpec.late()
    s = Interval(-20.0, 20.0)
    reps = 1000
    n = 2000
    coverages = []
    for t, step in enumerate(seq.steps):
        counts = _draw(step.law, n, 106, [(t, r) for r in range(reps)])
        cov = int(wald_ci(counts, spec, base.support, 0.05, s=s).contains(5.0).sum())
        coverages.append(cov / reps)
    record(
        "criterion 6 (wald non-uniformity signature)",
        coverages[-1] < 0.90 and coverages[-1] < coverages[0],
        "coverage along the sequence "
        + " -> ".join(f"{c:.3f}" for c in coverages)
        + f" (weakest step {coverages[-1]:.3f} < 0.90 threshold)",
    )


def test_criterion_7_union_bound_conservative():
    s = Interval(-5.0, 5.0)
    reps = 1000
    n = 2000
    ok = True
    worst = None
    for i, dep in enumerate((0.2, 0.5, 0.8)):
        for j, py in enumerate((0.3, 0.5, 0.7)):
            law = binary_x_law(dep, py)
            phi = binary_union_estimand(law)
            counts = _draw(law, n, 107, [(3 * i + j, r) for r in range(reps)])
            region = binary_union_set(counts, law.support, 0.05, s)
            cov = int(region.contains(phi).sum())
            rate = cov / reps
            lo, hi = wilson_interval(cov, reps)
            half = (hi - lo) / 2.0
            ok = ok and rate >= 0.95 - 2.0 * half
            if worst is None or rate < worst:
                worst = rate
    base = acceptance_base()
    seq = generate_sequence(base, 5.0, (0.05, 0.01, 0.002))
    weakest = seq.steps[-1].law
    su = Interval(-20.0, 20.0)
    counts = _draw(weakest, n, 108, [(9, r) for r in range(reps)])
    res = binary_union_set(counts, weakest.support, 0.05, su)
    full = int(res.is_full().sum())
    cov = int(res.contains(5.0).sum())
    record(
        "criterion 7 (union-bound conservativeness)",
        ok and full / reps >= 0.9,
        f"3x3 grid min coverage {worst:.3f}, weakest-step full-range "
        f"fraction {full / reps:.3f} (coverage there {cov / reps:.3f})",
    )


def test_criterion_8_interval_division_exactness():
    rng = np.random.default_rng(109)
    worst_endpoint = 0.0
    unbounded_ok = True
    membership_ok = True

    def draw():
        vals = rng.uniform(-3.0, 3.0, size=2)
        if rng.random() < 0.3:
            vals[rng.integers(2)] = 0.0
        return Interval(float(min(vals)), float(max(vals)))

    boxes = [(draw(), draw()) for _ in range(500)]
    for (num, den), pieces in zip(boxes, divide_boxes(boxes)):
        s_vals = np.linspace(num.lo, num.hi, 1000)
        t_parts = []
        if den.lo < 0.0:
            t_parts.append(np.linspace(den.lo, min(den.hi, -1e-13), 500))
        if den.hi > 0.0:
            t_parts.append(np.linspace(max(den.lo, 1e-13), den.hi, 500))
        if not t_parts:
            assert pieces == ()
            continue
        ratios = np.concatenate([
            (s_vals[:, None] / t[None, :]).ravel() for t in t_parts
        ])
        inside = np.zeros(ratios.size, dtype=bool)
        scale = np.maximum(1.0, np.abs(ratios))
        for iv in pieces:
            inside |= (ratios >= iv.lo - 1e-9 * scale) & (
                ratios <= iv.hi + 1e-9 * scale
            )
        membership_ok = membership_ok and bool(inside.all())
        for iv in pieces:
            for endpoint in (iv.lo, iv.hi):
                if math.isfinite(endpoint):
                    gap = float(np.min(np.abs(ratios - endpoint)))
                    worst_endpoint = max(
                        worst_endpoint, gap / max(1.0, abs(endpoint))
                    )
                else:
                    sign = -1.0 if endpoint < 0 else 1.0
                    unbounded_ok = unbounded_ok and bool(
                        np.any(sign * ratios >= 1e10)
                    )
    record(
        "criterion 8 (interval-division exactness)",
        membership_ok and unbounded_ok and worst_endpoint <= 1e-9,
        f"500 boxes vs 1e6-point oracle, max endpoint gap {worst_endpoint:.2e}, "
        f"all samples contained: {membership_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    from importlib import resources

    text = resources.files("weakdep").joinpath("data/demo_plan.json").read_text()
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli.main(["coverage", str(plan), "--out", str(out_a), "--seed", "99"])
    code_b = cli.main(["coverage", str(plan), "--out", str(out_b), "--seed", "99"])
    identical = out_a.read_bytes() == out_b.read_bytes()
    record(
        "criterion 9 (coverage determinism)",
        code_a == 0 and code_b == 0 and identical,
        f"two runs, identical bytes: {identical} "
        f"({len(out_a.read_bytes())} bytes)",
    )
