"""Seeded Monte Carlo harness for confidence-set coverage experiments.

A plan pairs laws (each carrying its certified functional value) with
region constructors; the harness samples, applies every constructor to the
same draw, and tallies coverage, diameters, full-range fractions and
degenerate-sample errors (also by reason).  Each replication's seed derives
from the master seed and the (law, replication) indices through a
counter-based seed sequence, so replications are independent and
reproducible.  Replications run serially in blocks, in replication order:
a block's samples are drawn one by one, each from its own seed, and every
method then evaluates the stack of the block's counts in one call, giving
one :class:`~weakdep.confsets.RegionArrays` per block.  A block holds at
most :data:`BLOCK_BYTES` of float cell counts, so memory does not grow with
the number of replications, and the report does not depend on the block
size.
Coverage along a weak-dependence sequence is a plan with one
:class:`LawCase` per step of :func:`~weakdep.adversarial.generate_sequence`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .confsets import (
    FULL_LINE,
    REASONS,
    Interval,
    RegionArrays,
    binary_union_set,
    fixed_arrays,
    normal_quantile,
    require_binary_support,
    score_invert_late,
    wald_ci,
)
from .functionals import FunctionalSpec
from .laws import _MAX_N, DiscreteLaw, law_from_dict, law_to_dict, sample

CSV_COLUMNS = (
    "label", "method", "n", "reps", "coverage", "wilson_lo", "wilson_hi",
    "diam_mean", "diam_p50", "diam_p90", "frac_fullrange", "frac_error",
    "frac_diam_ge_s",
)

# Bytes of one float copy of a block's per-fold cell counts; the block
# size follows from it and the support, and results do not depend on it.
BLOCK_BYTES = 1 << 20


def _quantile(values: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile that tolerates infinite order statistics."""
    ordered = np.sort(values)
    pos = q / 100.0 * (ordered.size - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def wilson_interval(successes: int, trials: int, level: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = normal_quantile(0.5 + level / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class LawCase:
    """A law under test together with its certified functional value."""

    label: str
    law: DiscreteLaw
    true_phi: float

    def __post_init__(self):
        if not math.isfinite(self.true_phi):
            raise ValueError(f"true_phi must be finite; got {self.true_phi}")


@dataclass(frozen=True)
class MethodConfig:
    """Named constructor plus its options (flat key/value pairs)."""

    name: str
    options: dict = field(default_factory=dict)

    KNOWN = ("wald", "score", "union", "fullrange", "empty", "oracle")

    def __post_init__(self):
        if self.name not in self.KNOWN:
            raise ValueError(f"unknown method {self.name!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    laws: tuple
    methods: tuple
    n: int
    reps: int
    level: float
    seed: int
    s: Interval

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 1 <= self.n <= _MAX_N:
            raise ValueError(f"n must lie in [1, 2**53]; got {self.n}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0; got {self.seed}")


def _bind_method(cfg: MethodConfig, plan: ExperimentPlan, case: LawCase):
    """Turn a method config into a constructor that maps a block's counts,
    shape (R, 2, k_y, k_z, k_w, k_x), to RegionArrays."""
    alpha = 1.0 - plan.level
    support = case.law.support
    opts = dict(cfg.options)
    if cfg.name == "wald":
        if "functional" not in opts:
            raise ValueError("method 'wald' needs a 'functional' option")
        func = opts.pop("functional")
        if not isinstance(func, FunctionalSpec):
            func = FunctionalSpec.from_dict(func)
        cross_fit = opts.pop("cross_fit", False)
        if not isinstance(cross_fit, bool):
            raise ValueError(f"method 'wald': cross_fit must be true or false; "
                             f"got {cross_fit!r}")
        tol = _number(opts.pop("tol", 1e-8), "method 'wald': tol")
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"method 'wald': tol must be a finite number >= 0; "
                             f"got {tol}")
        _reject_extra(cfg, opts)
        func.validate_against(support)
        return lambda counts: wald_ci(
            counts, func, support, alpha, s=plan.s, cross_fit=cross_fit, tol=tol
        )
    if cfg.name == "score":
        _reject_extra(cfg, opts)
        require_binary_support(support, 1, "method 'score'")
        return lambda counts: score_invert_late(counts, support, alpha, s=plan.s)
    if cfg.name == "union":
        _reject_extra(cfg, opts)
        require_binary_support(support, 2, "method 'union'")
        return lambda counts: binary_union_set(counts, support, alpha, plan.s)
    if cfg.name == "fullrange":
        intervals = [FULL_LINE]
    elif cfg.name == "empty":
        intervals = []
    else:
        eps = _number(opts.pop("epsilon", 0.0), "method 'oracle': epsilon")
        intervals = [Interval(case.true_phi - eps, case.true_phi + eps)]
    _reject_extra(cfg, opts)
    return lambda counts: fixed_arrays(intervals, plan.s, len(counts))


def _number(value, what, integer=False):
    """A number given as such: bools and strings are refused, and with
    ``integer`` so is a number with a fractional part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number; got {value!r}")
    if not integer:
        return float(value)
    if not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{what} must be an integer; got {value!r}")
    return int(value)


def _reject_extra(cfg, leftover):
    if leftover:
        raise ValueError(f"method {cfg.name!r}: unknown options {sorted(leftover)}")


@dataclass(frozen=True)
class CellReport:
    """Tallies for one (law, method) pair."""

    label: str
    method: str
    n: int
    reps: int
    covered: int            # clean covers, errors excluded
    missed: int
    errors: int
    coverage: float         # (covered + errors) / reps; errors give the full range
    wilson_lo: float
    wilson_hi: float
    diam_mean: float
    diam_p50: float
    diam_p90: float
    frac_fullrange: float
    frac_error: float
    frac_diam_ge_s: float
    runtime: float          # seconds spent in this method's constructor calls
    diameters: tuple
    outcomes: tuple
    errors_by_kind: dict    # reason -> count of degenerate replications

    def csv_row(self):
        def fmt(v):
            if isinstance(v, float):
                return "inf" if math.isinf(v) else repr(v)
            return str(v)

        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]

    def to_dict(self):
        def clean(v):
            if isinstance(v, float) and math.isinf(v):
                return "inf"
            return v

        d = {c: clean(getattr(self, c)) for c in CSV_COLUMNS}
        d.update(
            covered=self.covered, missed=self.missed, errors=self.errors,
            runtime=self.runtime,
            diameters=[clean(v) for v in self.diameters],
            outcomes=list(self.outcomes),
            errors_by_kind=dict(self.errors_by_kind),
        )
        return d


@dataclass(frozen=True)
class CoverageReport:
    cells: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in self.cells:
            writer.writerow(cell.csv_row())
        return buf.getvalue()

    def to_dict(self):
        return {"cells": [cell.to_dict() for cell in self.cells]}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def cell(self, label, method) -> CellReport:
        for c in self.cells:
            if c.label == label and c.method == method:
                return c
        raise KeyError((label, method))


class _Tally:
    """Per-replication outcomes of one (law, method) pair, in replication order."""

    def __init__(self, true_phi: float):
        self.true_phi = true_phi
        self.outcomes = []
        self.diameters = []
        self.fulls = []
        self.errors_by_kind = Counter()
        self.seconds = 0.0

    def add_stack(self, arrays: RegionArrays):
        degenerate = arrays.reason > 0
        covered = arrays.contains(self.true_phi)
        self.outcomes += np.where(
            degenerate, "error", np.where(covered, "cover", "miss")
        ).tolist()
        self.diameters += arrays.diameters().tolist()
        self.fulls += arrays.is_full().tolist()
        self.errors_by_kind.update(REASONS[code] for code in arrays.reason[degenerate])

    def report(self, label: str, method: str, plan: ExperimentPlan) -> CellReport:
        outcomes = tuple(self.outcomes)
        covered = outcomes.count("cover")
        errors = outcomes.count("error")
        missed = plan.reps - covered - errors
        wl, wh = wilson_interval(covered + errors, plan.reps)
        diam_arr = np.array(self.diameters)
        return CellReport(
            label=label,
            method=method,
            n=plan.n,
            reps=plan.reps,
            covered=covered,
            missed=missed,
            errors=errors,
            coverage=(covered + errors) / plan.reps,
            wilson_lo=wl,
            wilson_hi=wh,
            diam_mean=float(diam_arr.mean()),
            diam_p50=_quantile(diam_arr, 50),
            diam_p90=_quantile(diam_arr, 90),
            frac_fullrange=sum(self.fulls) / plan.reps,
            frac_error=errors / plan.reps,
            frac_diam_ge_s=float(np.mean(diam_arr >= plan.s.hi - plan.s.lo)),
            runtime=self.seconds,
            diameters=tuple(self.diameters),
            outcomes=outcomes,
            errors_by_kind=dict(sorted(self.errors_by_kind.items())),
        )


def run(plan: ExperimentPlan) -> CoverageReport:
    """Execute the plan; deterministic given the master seed."""
    cells = []
    for law_idx, case in enumerate(plan.laws):
        methods = [_bind_method(m, plan, case) for m in plan.methods]
        tallies = [_Tally(case.true_phi) for _ in plan.methods]
        block_reps = max(1, BLOCK_BYTES // (16 * case.law.support.n_cells))
        for start in range(0, plan.reps, block_reps):
            counts = np.stack([
                sample(case.law, plan.n, np.random.SeedSequence(
                    entropy=plan.seed, spawn_key=(law_idx, rep_idx))).counts
                for rep_idx in range(start, min(start + block_reps, plan.reps))
            ])
            for construct, tally in zip(methods, tallies):
                # only the constructor call is timed
                started = time.perf_counter()
                arrays = construct(counts)
                tally.seconds += time.perf_counter() - started
                tally.add_stack(arrays)
        cells.extend(tally.report(case.label, method.name, plan)
                     for method, tally in zip(plan.methods, tallies))
    return CoverageReport(cells=tuple(cells))


# ---------------------------------------------------------------------------
# plan (de)serialization for the CLI

_PLAN_KEYS = {"laws", "methods", "n", "reps", "level", "seed", "s"}
_LAW_KEYS = {"label", "law", "true_phi"}


def plan_from_dict(d) -> ExperimentPlan:
    """Parse a plan and bind every method to every law, so that unknown or
    missing method options fail here rather than midway through run."""
    unknown = set(d) - _PLAN_KEYS
    if unknown:
        raise ValueError(f"unknown plan keys {sorted(unknown)}")
    missing = _PLAN_KEYS - set(d)
    if missing:
        raise ValueError(f"missing plan keys {sorted(missing)}")
    laws = []
    for entry in d["laws"]:
        unknown = set(entry) - _LAW_KEYS
        if unknown:
            raise ValueError(f"unknown law keys {sorted(unknown)}")
        laws.append(LawCase(
            label=str(entry["label"]),
            law=law_from_dict(entry["law"]),
            true_phi=_number(entry["true_phi"], "true_phi"),
        ))
    if not d["methods"]:
        raise ValueError("a plan needs at least one method")
    methods = []
    for entry in d["methods"]:
        entry = dict(entry)
        name = entry.pop("name")
        methods.append(MethodConfig(name=name, options=entry))
    lo, hi = d["s"]
    plan = ExperimentPlan(
        laws=tuple(laws),
        methods=tuple(methods),
        n=_number(d["n"], "n", integer=True),
        reps=_number(d["reps"], "reps", integer=True),
        level=_number(d["level"], "level"),
        seed=_number(d["seed"], "seed", integer=True),
        s=Interval(_number(lo, "s"), _number(hi, "s")),
    )
    for case in plan.laws:
        for method in plan.methods:
            _bind_method(method, plan, case)
    return plan


def plan_to_dict(plan: ExperimentPlan):
    return {
        "laws": [
            {
                "label": case.label,
                "law": law_to_dict(case.law),
                "true_phi": case.true_phi,
            }
            for case in plan.laws
        ],
        "methods": [
            {"name": m.name, **m.options} for m in plan.methods
        ],
        "n": plan.n,
        "reps": plan.reps,
        "level": plan.level,
        "seed": plan.seed,
        "s": [plan.s.lo, plan.s.hi],
    }
