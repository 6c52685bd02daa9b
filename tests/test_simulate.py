"""The Monte Carlo harness: tallies, determinism, seeds, plan handling."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdep import DiscreteLaw, FunctionalSpec, SupportSpec, simulate
from weakdep.adversarial import generate_sequence
from weakdep.confsets import (
    REASONS,
    Interval,
    binary_union_set,
    score_invert_late,
    wald_ci,
)
from weakdep.simulate import (
    ExperimentPlan,
    LawCase,
    MethodConfig,
    plan_from_dict,
    run,
    wilson_interval,
)

from helpers import (
    _SerialTally,
    acceptance_base,
    compositions,
    late_law,
    late_support,
    multinomial_pmf,
    plan_to_dict,
    serial_run,
    serial_wilson_interval,
    wald_ratio,
)


def small_plan(methods, reps=20, n=200, seed=5):
    law = late_law()
    return ExperimentPlan(
        laws=(LawCase("late_strong", law, wald_ratio(law)),),
        methods=tuple(methods),
        n=n, reps=reps, level=0.95, seed=seed, s=Interval(-20.0, 20.0),
    )


class TestTrivialMethods:
    def test_fullrange_covers_everything(self):
        plan = small_plan([MethodConfig("fullrange")])
        report = run(plan)
        cell = report.cell("late_strong", "fullrange")
        assert cell.coverage == 1.0
        assert all(d == 40.0 for d in cell.diameters)
        assert cell.frac_fullrange == 1.0
        assert cell.frac_diam_ge_s == 1.0

    def test_empty_never_covers(self):
        plan = small_plan([MethodConfig("empty")])
        cell = run(plan).cell("late_strong", "empty")
        assert cell.coverage == 0.0
        assert all(d == 0.0 for d in cell.diameters)

    def test_oracle_interval_always_covers(self):
        plan = small_plan([MethodConfig("oracle", {"epsilon": 0.01})])
        cell = run(plan).cell("late_strong", "oracle")
        assert cell.coverage == 1.0
        assert max(cell.diameters) == pytest.approx(0.02)


class TestRuntime:
    def test_per_method_runtime_within_wall_time(self):
        """Each method's seconds are its own constructor time: positive, and
        summed over the methods no more than the wall time of the run."""
        law = late_law()
        plan = ExperimentPlan(
            laws=(LawCase("a", law, wald_ratio(law)), LawCase("b", law, 0.0)),
            methods=(MethodConfig("wald", {"functional": {"kind": "late"}}),
                     MethodConfig("score"), MethodConfig("union"),
                     MethodConfig("fullrange")),
            n=200, reps=15, level=0.95, seed=3, s=Interval(-20.0, 20.0),
        )
        started = time.perf_counter()
        report = run(plan)
        wall = time.perf_counter() - started
        assert len(report.cells) == 8
        assert len(report.method_seconds) == len(plan.methods)
        assert report.to_dict()["method_seconds"] == list(report.method_seconds)
        assert all(seconds > 0.0 for seconds in report.method_seconds)
        assert sum(report.method_seconds) <= wall


class TestTallies:
    def test_counting_identity(self):
        plan = small_plan(
            [MethodConfig("wald", {"functional": {"kind": "late"}}),
             MethodConfig("score"), MethodConfig("union")],
            reps=40, n=100,
        )
        report = run(plan)
        for cell in report.cells:
            assert cell.covered + cell.missed + cell.errors == cell.reps
            assert cell.coverage == (cell.covered + cell.errors) / cell.reps

    def test_wilson_interval_attached(self):
        plan = small_plan([MethodConfig("fullrange")])
        cell = run(plan).cell("late_strong", "fullrange")
        lo, hi = wilson_interval(cell.covered + cell.errors, cell.reps)
        assert (cell.wilson_lo, cell.wilson_hi) == (lo, hi)
        assert 0.0 <= cell.wilson_lo <= cell.coverage <= cell.wilson_hi <= 1.0

    def test_wilson_bounds_have_the_scalar_bits(self):
        # every tally up to 300 trials, one call per trial count: the
        # elementwise bounds, clamps and signed zeros included, are the
        # Python-float formula's, and so is a scalar call
        for trials in range(1, 301):
            ref = np.array([serial_wilson_interval(s, trials) for s in range(trials + 1)])
            got = np.array(wilson_interval(np.arange(trials + 1), trials)).T
            assert got.tobytes() == ref.tobytes(), trials
            for s in (0, trials // 2, trials):
                assert np.array(wilson_interval(s, trials)).tobytes() == ref[s].tobytes()
            assert all(type(v) is float for v in wilson_interval(trials, trials))


class TestDeterminism:
    def test_identical_plans_identical_reports(self):
        methods = [
            MethodConfig("wald", {"functional": {"kind": "late"}}),
            MethodConfig("score"),
        ]
        a = run(small_plan(methods))
        b = run(small_plan(methods))
        assert a.to_csv() == b.to_csv()
        assert [c.diameters for c in a.cells] == [c.diameters for c in b.cells]

    def test_seed_changes_results(self):
        methods = [MethodConfig("wald", {"functional": {"kind": "late"}})]
        a = run(small_plan(methods, seed=5))
        b = run(small_plan(methods, seed=6))
        assert [c.diameters for c in a.cells] != [c.diameters for c in b.cells]

    def test_each_law_draws_its_own_prefix_stable_stream(self):
        """A law listed twice gets different draws; a law's cell does not
        change when a law listed after it is dropped; and the first R'
        replications of a plan are the plan with reps = R'."""
        law = late_law()
        phi = wald_ratio(law)
        cases = (LawCase("a", law, phi), LawCase("b", law, phi),
                 LawCase("c", late_law(p_z1=0.3), 0.0))

        def cells(laws, reps):
            report = run(ExperimentPlan(laws=laws, methods=(WALD,), n=60, reps=reps,
                                        level=0.95, seed=9, s=S))
            return {c.label: (c.diameters, c.outcomes) for c in report.cells}

        full = cells(cases, 30)
        assert full["a"][0] != full["b"][0]
        assert cells(cases[:1], 30)["a"] == full["a"]
        assert cells(cases[:2], 30)["b"] == full["b"]
        short = cells(cases, 11)
        for label, (diameters, outcomes) in full.items():
            assert short[label] == (diameters[:11], outcomes[:11])


class TestReportFormats:
    def test_csv_header_exact(self):
        plan = small_plan([MethodConfig("fullrange")], reps=2)
        header = run(plan).to_csv().splitlines()[0]
        assert header == ("label,method,n,reps,coverage,wilson_lo,wilson_hi,"
                          "diam_mean,diam_p50,diam_p90,frac_fullrange,frac_error,"
                          "frac_diam_ge_s")

    def test_json_carries_per_rep_diameters(self):
        plan = small_plan([MethodConfig("fullrange")], reps=3)
        d = run(plan).to_dict()
        assert len(d["cells"][0]["diameters"]) == 3
        assert d["cells"][0]["outcomes"] == ["cover"] * 3


class TestPlanSerialization:
    def test_round_trip(self):
        plan = small_plan(
            [MethodConfig("wald", {"functional": {"kind": "late"}}),
             MethodConfig("wald", {"functional": {"kind": "late"}, "cross_fit": True})],
        )
        back = plan_from_dict(plan_to_dict(plan))
        assert back.n == plan.n and back.seed == plan.seed
        assert [m.name for m in back.methods] == ["wald", "wald"]
        assert back.methods[1].options == {"functional": {"kind": "late"},
                                           "cross_fit": True}
        assert run(back).to_csv() == run(plan).to_csv()

    def test_unknown_plan_keys_rejected(self):
        d = plan_to_dict(small_plan([MethodConfig("fullrange")]))
        d["typo"] = 1
        with pytest.raises(ValueError):
            plan_from_dict(d)

    def test_unknown_method_options_rejected(self):
        with pytest.raises(ValueError):
            small_plan([MethodConfig("score", {"bogus": 1})])

    def test_methods_bound_when_parsed(self):
        for method in ({"name": "score", "points": 4001}, {"name": "wald"},
                       {"name": "wald", "functional": {"kind": "ate_iv"},
                        "bogus": 1}):
            d = plan_to_dict(small_plan([MethodConfig("fullrange")]))
            d["methods"] = [method]
            with pytest.raises(ValueError):
                plan_from_dict(d)

    def test_unknown_method_name_rejected(self):
        with pytest.raises(ValueError):
            MethodConfig("bogus")

    def test_plans_refuse_what_they_cannot_report(self):
        """No law, no method, two laws with one label, or a true value outside
        s: nothing to report, cells that cannot be told apart, or a coverage
        of a value the range leaves out."""
        plan = small_plan([MethodConfig("fullrange")])
        case = plan.laws[0]
        for change, match in (({"laws": ()}, "at least one law"),
                              ({"methods": ()}, "at least one method"),
                              ({"laws": (case, case)}, "distinct"),
                              ({"s": Interval(case.true_phi + 1.0, 20.0)}, "outside s")):
            with pytest.raises(ValueError, match=match):
                replace(plan, **change)
        for ends in ((case.true_phi, 20.0), (-20.0, case.true_phi)):   # s is closed
            replace(plan, s=Interval(*ends))

    @pytest.mark.parametrize("make", [
        lambda plan, case: replace(plan, level="0.95"),
        lambda plan, case: replace(plan, level=True),
        lambda plan, case: replace(plan, s=(0.0, 1.0)),
        lambda plan, case: replace(case, true_phi="0.4"),
        lambda plan, case: replace(case, true_phi=True),
        lambda plan, case: replace(case, label=None),
        lambda plan, case: replace(case, label=5),
        lambda plan, case: MethodConfig("score", {"bogus": 1}),
    ], ids=["level_str", "level_bool", "s_tuple", "true_phi_str", "true_phi_bool",
            "label_none", "label_int", "method_option"])
    def test_api_refuses_what_the_cli_refuses(self, make):
        """Each value the CLI exits 2 on raises ValueError through the API
        too, when the plan, law case or method config is made."""
        plan = small_plan([MethodConfig("fullrange")])
        with pytest.raises(ValueError):
            make(plan, plan.laws[0])

    @pytest.mark.parametrize("key, value", [
        ("n", 100.5), ("n", 100.0), ("n", True), ("reps", 2.5), ("reps", True),
        ("seed", 1.5), ("seed", False), ("seed", "5"),
    ])
    def test_plan_integers_are_not_repaired(self, key, value):
        """n, reps and seed are integers, not bools or floats (integer-valued
        ones included): the plan refuses them rather than draw a rounded n
        or fail inside run."""
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            replace(small_plan([MethodConfig("fullrange")]), **{key: value})
        replace(small_plan([MethodConfig("fullrange")]), **{key: np.int64(3)})

    def test_level_whose_narrowest_quantile_rounds_to_one(self):
        """The union set on binary X takes the quantile of 1 - (1 - level)/6;
        a level that rounds it to 1 is refused, and the next level down runs
        every method."""
        plan = small_plan([MethodConfig("union")])
        for level in (0.9999999999999999, 1.0 - 3 * 2.0**-53):
            with pytest.raises(ValueError, match="level must leave"):
                replace(plan, level=level)
        report = run(replace(plan, level=1.0 - 2.0**-51, methods=(
            MethodConfig("wald", {"functional": {"kind": "late"}}),
            MethodConfig("score"), MethodConfig("union"))))
        assert [cell.coverage for cell in report.cells] == [1.0] * 3


class TestSweep:
    def test_sweep_structure_and_wald_decay(self):
        sequence = generate_sequence(acceptance_base(), 5.0, (0.05, 0.005))
        cases = tuple(
            LawCase(f"step{t + 1}_tv{step.tv_to_base:.3g}", step.law, 5.0)
            for t, step in enumerate(sequence.steps)
        )
        report = run(ExperimentPlan(
            laws=cases,
            methods=(MethodConfig("wald", {"functional": {"kind": "late"}}),
                     MethodConfig("union")),
            n=800, reps=60, level=0.95, seed=3, s=Interval(-20.0, 20.0),
        ))
        assert len(sequence.steps) == 2
        assert len(report.cells) == 4
        wald_cells = [c for c in report.cells if c.method == "wald"]
        union_cells = [c for c in report.cells if c.method == "union"]
        assert all(c.label.startswith("step") for c in report.cells)
        # weaker dependence can only hurt plug-in coverage
        assert wald_cells[1].coverage <= wald_cells[0].coverage
        # the union bound stays conservative at every step
        for cell in union_cells:
            half = (cell.wilson_hi - cell.wilson_lo) / 2.0
            assert cell.coverage >= 0.95 - 2.0 * half


WALD = MethodConfig("wald", {"functional": {"kind": "late"}})
WALD_CF = MethodConfig("wald", {"functional": {"kind": "late"}, "cross_fit": True})
S = Interval(-20.0, 20.0)


class TestBlocks:
    def test_report_independent_of_block_budget(self, monkeypatch):
        """One replication per block, five, or all of them: the same report."""
        law = late_law()
        plan = ExperimentPlan(
            laws=(LawCase("a", law, wald_ratio(law)), LawCase("b", law, 0.0)),
            methods=(WALD, WALD_CF, MethodConfig("score"), MethodConfig("union"),
                     MethodConfig("fullrange")),
            n=12, reps=23, level=0.95, seed=4, s=S,
        )
        per_rep = 16 * law.support.n_cells
        seen = []
        for budget in (1, 5 * per_rep, simulate.BLOCK_BYTES):
            monkeypatch.setattr(simulate, "BLOCK_BYTES", budget)
            report = run(plan)
            payload = report.to_dict()
            payload.pop("method_seconds")           # timings
            seen.append((report.to_csv(), payload))
        assert seen[0] == seen[1] == seen[2]
        # n = 12 on this law degenerates some replications
        assert sum(cell["errors"] for cell in seen[0][1]["cells"]) > 0


def _binary_law(cells):
    """Law on the ratio support with the given mass per (y, z, w) cell."""
    mass = np.zeros(late_support().shape)
    for (h, l, j), m in cells.items():
        mass[h, l, j, 0] = m
    return DiscreteLaw(late_support(), mass)


class TestErrorsByKind:
    def test_degenerate_replications_tallied_by_reason(self):
        cases = (
            # Z = 1 never drawn
            LawCase("z1_unobserved", _binary_law(
                {(0, 0, 0): 0.3, (1, 0, 1): 0.3, (0, 0, 1): 0.2, (1, 0, 0): 0.2}), 0.0),
            # W constant while Y moves with Z: the g equation is inconsistent
            LawCase("w_constant", _binary_law(
                {(0, 0, 0): 0.45, (1, 0, 0): 0.05, (0, 1, 0): 0.05, (1, 1, 0): 0.45}), 0.0),
            # W = 1 never drawn and Y constant: g solves, its representer does not
            LawCase("w1_unobserved", _binary_law({(0, 0, 0): 0.5, (0, 1, 0): 0.5}), 0.0),
        )
        plan = ExperimentPlan(
            laws=cases,
            methods=(WALD, WALD_CF, MethodConfig("score"), MethodConfig("union")),
            n=40, reps=5, level=0.95, seed=2, s=S,
        )
        report = run(plan)
        expected = {
            "z1_unobserved": ("ZeroConditioningMass", "ZeroConditioningMass",
                              "DegenerateSample", "ZeroConditioningMass"),
            "w_constant": ("DegenerateSample", "DegenerateSample", None,
                           "DegenerateSample"),
            "w1_unobserved": ("PositivityViolation", "PositivityViolation", None,
                              "DegenerateSample"),
        }
        for label, reasons in expected.items():
            cells = [c for c in report.cells if c.label == label]
            for cell, reason in zip(cells, reasons):
                want = {reason: 5} if reason else {}
                assert cell.errors_by_kind == want, (label, cell.method)
                assert cell.to_dict()["errors_by_kind"] == want
                assert cell.errors == sum(want.values())

    def test_empty_fold_tallied(self):
        law = late_law()
        plan = ExperimentPlan(laws=(LawCase("a", law, 0.0),), methods=(WALD_CF,),
                              n=1, reps=7, level=0.95, seed=1, s=S)
        cell = run(plan).cell("a", "wald")
        assert cell.errors_by_kind == {"empty_fold": 7}
        assert cell.coverage == 1.0


class TestExactCoverage:
    """Exact coverage on late_law() at n = N: every sample of the 8 cells,
    enumerated once, through each stacked constructor, weighted by its
    multinomial probability, with degenerate samples counted as covered, as
    run counts them.  run's Monte Carlo coverage at a fixed seed must lie
    inside its Wilson interval around it."""

    N = 20      # the largest n whose 888,030 samples the stacked Wald runs in about 5 s

    @pytest.fixture(scope="class")
    def exact(self):
        law = late_law()
        phi = wald_ratio(law)
        support = law.support
        comps = compositions(self.N, support.n_cells)
        pmf = multinomial_pmf(comps, law.mass.ravel())
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        constructors = {
            "wald": lambda counts: wald_ci(counts, FunctionalSpec.late(), support,
                                           0.05, S),
            "score": lambda counts: score_invert_late(counts, support, 0.05, S),
            "union": lambda counts: binary_union_set(counts, support, 0.05, S),
        }
        exact = dict.fromkeys(constructors, 0.0)
        for start in range(0, len(comps), 100_000):
            part = comps[start:start + 100_000]
            counts = np.zeros((len(part), 2, support.n_cells), dtype=np.int64)
            counts[:, 1] = part
            counts = counts.reshape((len(part), 2) + support.shape)
            for name, construct in constructors.items():
                stack = construct(counts)
                covers = (stack.reason > 0) | stack.contains(phi)
                exact[name] += float(pmf[start:start + 100_000][covers].sum())

        plan = ExperimentPlan(laws=(LawCase("late", law, phi),),
                              methods=(WALD, MethodConfig("score"), MethodConfig("union")),
                              n=self.N, reps=4000, level=0.95, seed=17, s=S)
        return exact, run(plan)

    def _check(self, exact, method):
        coverage, report = exact
        cell = report.cell("late", method)
        lo, hi = wilson_interval(cell.covered + cell.errors, cell.reps, 1.0 - 1e-6)
        assert lo <= coverage[method] <= hi, (coverage[method], cell.coverage)

    def test_monte_carlo_inside_wilson_of_exact_coverage(self, exact):
        """Plain Wald."""
        self._check(exact, "wald")

    def test_score_monte_carlo_inside_wilson_of_exact_coverage(self, exact):
        self._check(exact, "score")

    def test_union_monte_carlo_inside_wilson_of_exact_coverage(self, exact):
        self._check(exact, "union")


def _y_scaled(law):
    """The same masses on a support whose Y cells have other means."""
    support = SupportSpec(mu_y=[1.0, 2.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
                          mu_x=[1.0], iota_y=[0.0, 3.0])
    return DiscreteLaw(support, law.mass)


def _y_inexact(law):
    """The same masses on a support whose Y cell means, 0.1 and 1.3, make
    inexact sums of counts times means."""
    support = SupportSpec(mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
                          mu_x=[1.0], iota_y=[0.1, 1.3])
    return DiscreteLaw(support, law.mass)


def _signed_zero(law):
    """The same law on a support whose first Y integral is -0.0."""
    support = SupportSpec(mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0],
                          mu_x=[1.0], iota_y=[-0.0, 1.0])
    return DiscreteLaw(support, law.mass)


ALL_METHODS = (WALD, WALD_CF, MethodConfig("score"), MethodConfig("union"),
               MethodConfig("fullrange"), MethodConfig("empty"),
               MethodConfig("oracle", {"epsilon": 0.25}))


class TestSupportGroups:
    def test_grouped_by_support_bits_in_order_of_first_appearance(self):
        law = late_law()
        cases = (LawCase("a", law, 0.0), LawCase("b", _signed_zero(law), 0.0),
                 LawCase("c", late_law(p_z1=0.3), 0.0), LawCase("d", _y_scaled(law), 0.0),
                 LawCase("e", _signed_zero(law), 0.0))
        # equal as values, but -0.0 in iota_y keeps b and e apart from a and c
        assert cases[0].law.support == cases[1].law.support
        assert simulate._support_groups(cases) == [[0, 2], [1, 4], [3]]

    def test_parsed_plan_grouped_by_value(self):
        """A parsed plan gives every law its own support object."""
        law = late_law()
        plan = ExperimentPlan(
            laws=(LawCase("a", law, 0.0), LawCase("b", late_law(p_z1=0.3), 0.0),
                  LawCase("c", _y_scaled(law), 0.0), LawCase("d", law, 0.0)),
            methods=(WALD,), n=50, reps=3, level=0.95, seed=1, s=S,
        )
        back = plan_from_dict(plan_to_dict(plan))
        assert back.laws[0].law.support is not back.laws[3].law.support
        assert simulate._support_groups(back.laws) == [[0, 1, 3], [2]]
        assert run(back).to_csv() == run(plan).to_csv()


_B_SUPPORT = {"signed_zero": _signed_zero, "y_scaled": _y_scaled,
              "y_inexact": _y_inexact}


class TestAgainstSerialRun:
    """run evaluates every law of a support in one call per method and
    block; the law-by-law reference gives the same bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        laws=st.lists(
            st.tuples(st.sampled_from([None, *_B_SUPPORT]),
                      st.sampled_from([0.5, 0.3, 0.03, 1.0]),
                      st.sampled_from([(0.2, 0.8), (0.5, 0.55), (0.4, 0.4)]),
                      st.floats(0.0, 1.0)),       # where true_phi lies in s
            min_size=1, max_size=4),
        interleave=st.booleans(),
        inexact=st.booleans(),
        n=st.sampled_from([1, 2, 5, 12, 300]),
        reps=st.integers(1, 9),
        seed=st.integers(0, 2**32),
        budget=st.sampled_from([1, 16 * 8 * 3, 16 * 8 * 5, simulate.BLOCK_BYTES]),
        s=st.sampled_from([S, Interval(-1.0, 0.5)]),
    )
    def test_run_matches_serial_run_bit_for_bit(self, laws, interleave, inexact, n,
                                                 reps, seed, budget, s):
        cases = []
        for t, (variant, p_z1, p_w, place) in enumerate(laws):
            law = late_law(p_z1=p_z1, p_w=p_w)
            cases.append(LawCase(f"law{t}", _B_SUPPORT[variant](law) if variant else law,
                                 s.lo + place * (s.hi - s.lo)))
        if interleave:      # supports A, B, A
            law = late_law()
            cases += [LawCase("A1", law, 0.1), LawCase("B", _signed_zero(law), 0.1),
                      LawCase("A2", late_law(p_z1=0.2), -0.4)]
        if inexact:         # two laws that share one stack of inexact Y sums
            cases += [LawCase("C1", _y_inexact(late_law()), 0.1),
                      LawCase("C2", _y_inexact(late_law(p_z1=0.3)), 0.2)]
        plan = ExperimentPlan(laws=tuple(cases), methods=ALL_METHODS, n=n, reps=reps,
                              level=0.95, seed=seed, s=s)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "BLOCK_BYTES", budget)
            got, want = run(plan), serial_run(plan)
        assert got.to_csv() == want.to_csv()
        assert len(got.cells) == len(want.cells)
        for a, b in zip(got.cells, want.cells):
            assert (a.label, a.method) == (b.label, b.method)
            assert np.array(a.diameters).tobytes() == np.array(b.diameters).tobytes()
            assert a.outcomes == b.outcomes
            assert a.errors_by_kind == b.errors_by_kind


class TestColumnarSummary:
    """One support group's cells summarised together give the report of
    serial_run's tally, fed the same tables block by block, every float the
    same."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_methods=st.integers(1, 3),
        n_laws=st.integers(1, 4),
        reps=st.sampled_from([1, 2, 3, 9, 128, 129, 1001]),
        blocks=st.integers(1, 4),
        width=st.sampled_from([1.5, 40.0, math.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_tally(self, n_methods, n_laws, reps, blocks, width,
                                     seed):
        rng = np.random.default_rng(seed)
        shape = (n_methods, n_laws, reps)
        # diameters with ties, zeros of both signs, the width of s, infinities
        # and NaN, each often enough to land on a quantile's order statistics
        diam = rng.choice([0.0, -0.0, 0.25, 1.5, width, math.inf, math.nan,
                           rng.exponential()], size=shape,
                          p=[0.1, 0.05, 0.15, 0.1, 0.1, 0.1, 0.05, 0.35])
        diam = np.where(rng.random(shape) < 0.5, rng.exponential(2.0, shape), diam)
        reason = np.where(rng.random(shape) < 0.2,
                          rng.integers(1, len(REASONS), shape), 0).astype(np.int8)
        code = np.where(reason > 0, simulate._ERROR,
                        rng.integers(0, 2, shape)).astype(np.int8)
        full = (reason > 0) | (rng.random(shape) < 0.1)
        plan = replace(small_plan([MethodConfig("fullrange")], reps=reps),
                       s=Interval(-width / 2, width / 2))
        labels = [f"law{j}" for j in range(n_laws)]
        methods = [f"method{m}" for m in range(n_methods)]
        got = simulate._cell_reports(code, diam, full, reason, labels, methods, plan)
        cuts = np.sort(rng.integers(0, reps + 1, blocks - 1)).tolist()
        for m in range(n_methods):
            for j in range(n_laws):
                tally = _SerialTally(true_phi=0.0)
                for lo, hi in zip([0] + cuts, cuts + [reps]):
                    tally.add([simulate._OUTCOMES[c] for c in code[m, j, lo:hi]],
                              diam[m, j, lo:hi], full[m, j, lo:hi], reason[m, j, lo:hi])
                want = tally.report(labels[j], methods[m], plan)
                # repr tells signed zeros apart and shows NaN
                assert repr(got[m * n_laws + j]) == repr(want)
