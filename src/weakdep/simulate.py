"""Seeded Monte Carlo harness for confidence-set coverage experiments.

A plan pairs laws (each carrying its certified functional value, which must
lie in the parameter range s, and a label no other law has) with region
constructors; the harness samples, applies every constructor to the same
draw, and tallies coverage, diameters, full-range fractions and
degenerate-sample errors (also by reason), and times each method's
constructor calls (per method, since the laws on one support share each
call).  The plan's dataclasses check every value when they are made,
through the API as through ``plan_from_dict``, and the plan then binds each
method once per support group, so a method that cannot run on a law fails
before any sampling and ``run`` binds nothing.  Each law draws from its own
random stream, seeded by the master seed and the law's index in the plan
through a counter-based seed sequence, so laws draw independently, a law's
draws do not depend on the laws listed after it, and every run is
reproducible.  Laws whose supports are equal bit for bit are evaluated
together, as every step of a weak-dependence sequence is.  Replications run
serially in blocks, in replication order: a block holds the same window of
replications of every law on one support, each law's part from one
:func:`~weakdep.laws.sample` call on its own stream, and every method
evaluates the block's stacked counts in one call, giving one
:class:`~weakdep.confsets.RegionArrays`.  Its rows are written by slice
into the support's tables, one per field of shape (method, law,
replication): int8 outcome code, float64 diameter, bool full-range flag and
int8 reason.  Once every block is in, all cells of the support are
summarised in one vectorised pass over the tables (one ``bincount`` for the
outcomes and one for the reasons, one row-wise sort for the quantiles,
row-wise means and fractions, and the Wilson bounds of every cell at once),
with the arithmetic of a cell summarised alone.  A block holds at most
:data:`BLOCK_BYTES` of float cell counts over all its laws, so a block's
memory does not grow with the number of replications; the tables hold 11
bytes per replication, method and law.  The report keeps the code and
diameter tables, 9 bytes per replication, method and law: each cell's
``diameters`` and ``outcomes`` are read-only rows of them, and the
full-range and reason tables are dropped once summarised.  A stream yields
the same samples however it is split into blocks, and every constructor
gives a sample the same bits in any stack, on every support, so the report
does not depend on the block size or on which laws share a block, and the
first R' replications of a plan are those of the same plan with
``reps=R'``.
Coverage along a weak-dependence sequence is a plan with one
:class:`LawCase` per step of :func:`~weakdep.adversarial.generate_sequence`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .confsets import (
    REASONS,
    Interval,
    binary_union_set,
    interval_arrays,
    normal_quantile,
    require_binary_support,
    score_invert_late,
    wald_ci,
)
from .functionals import FunctionalSpec
from .laws import _MAX_N, DiscreteLaw, _json, _number, _require_integer, law_from_dict, sample

CSV_COLUMNS = (
    "label", "method", "n", "reps", "coverage", "wilson_lo", "wilson_hi",
    "diam_mean", "diam_p50", "diam_p90", "frac_fullrange", "frac_error",
    "frac_diam_ge_s",
)

# Bytes of one float copy of a block's per-fold cell counts, over every law
# in the block; the block size follows from it, the support and the number
# of laws on it, and results do not depend on it.
BLOCK_BYTES = 1 << 20


def wilson_interval(successes, trials: int, level: float = 0.95):
    """Wilson score interval for a binomial proportion, as two floats; for
    an array of successes, as two lists, one bound per entry.

    The bounds are clamped into [0, 1] as ``max(0.0, lo)`` and
    ``min(1.0, hi)`` clamp them: a tie or a NaN gives 0.0 or 1.0 itself.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = normal_quantile(0.5 + level / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials**2)) / denom
    lo, hi = center - half, center + half
    return np.where(lo > 0.0, lo, 0.0).tolist(), np.where(hi < 1.0, hi, 1.0).tolist()


@dataclass(frozen=True)
class LawCase:
    """A law under test together with its certified functional value."""

    label: str
    law: DiscreteLaw
    true_phi: float

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string; got {self.label!r}")
        object.__setattr__(self, "true_phi", _number(self.true_phi, "true_phi"))
        if not math.isfinite(self.true_phi):
            raise ValueError(f"true_phi must be finite; got {self.true_phi}")


# each method's options; wald's functional is required, the rest optional
METHOD_OPTIONS = {"wald": ("functional", "cross_fit"), "score": (), "union": (),
                  "fullrange": (), "empty": (), "oracle": ("epsilon",)}


@dataclass(frozen=True)
class MethodConfig:
    """Named constructor plus its options (flat key/value pairs)."""

    name: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.name, str) or self.name not in METHOD_OPTIONS:
            raise ValueError(f"unknown method {self.name!r}")
        unknown = set(self.options) - set(METHOD_OPTIONS[self.name])
        if unknown:
            raise ValueError(f"method {self.name!r}: unknown options {sorted(unknown)}")


@dataclass(frozen=True)
class ExperimentPlan:
    """A checked plan.  Its methods are bound once per support group when
    the plan is made (and again by ``dataclasses.replace``), so a method
    that cannot run on a law fails here rather than midway through run."""

    laws: tuple
    methods: tuple
    n: int
    reps: int
    level: float
    seed: int
    s: Interval
    # per support group: the plan indices of its laws, their cases and one
    # constructor per method
    groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n", "reps", "seed"):
            _require_integer(getattr(self, name), name)
        _number(self.level, "level")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 1 <= self.n <= _MAX_N:
            raise ValueError(f"n must lie in [1, 2**53]; got {self.n}")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        # the narrowest split, the binary-X union set's alpha/3 per
        # component, two-sided, needs the quantile of 1 - (1 - level)/6
        if 1.0 - (1.0 - self.level) / 6.0 == 1.0:
            raise ValueError(f"level must leave 1 - (1 - level)/6 below 1; "
                             f"got {self.level!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0; got {self.seed}")
        if not isinstance(self.s, Interval):
            raise ValueError(f"s must be an Interval; got {self.s!r}")
        if self.s.lo == math.inf or self.s.hi == -math.inf:
            raise ValueError(f"s must contain a finite value; got "
                             f"[{self.s.lo}, {self.s.hi}]")
        if not self.laws:
            raise ValueError("a plan needs at least one law")
        if not self.methods:
            raise ValueError("a plan needs at least one method")
        labels = [case.label for case in self.laws]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"law labels must be distinct; repeated {repeated}")
        for case in self.laws:
            if not self.s.lo <= case.true_phi <= self.s.hi:
                raise ValueError(f"law {case.label!r}: true_phi {case.true_phi} lies "
                                 f"outside s = [{self.s.lo}, {self.s.hi}]")
        groups = []
        for members in _support_groups(self.laws):
            cases = [self.laws[i] for i in members]
            groups.append((members, cases, [_bind_method(m, 1.0 - self.level, self.s, cases)
                                            for m in self.methods]))
        object.__setattr__(self, "groups", tuple(groups))


def _bind_method(cfg: MethodConfig, alpha: float, s: Interval, cases):
    """Turn a method config into a constructor for laws on one support: it
    maps a block's counts, shape (R, 2, k_y, k_z, k_w, k_x), and each row's
    true functional value, shape (R,), to RegionArrays."""
    support = cases[0].law.support
    if cfg.name == "wald":
        if "functional" not in cfg.options:
            raise ValueError("method 'wald' needs a 'functional' option")
        func = FunctionalSpec.from_dict(cfg.options["functional"])
        cross_fit = cfg.options.get("cross_fit", False)
        if not isinstance(cross_fit, bool):
            raise ValueError(f"method 'wald': cross_fit must be true or false; "
                             f"got {cross_fit!r}")
        func.validate_against(support)
        return lambda counts, phi: wald_ci(counts, func, support, alpha, s, cross_fit)
    if cfg.name == "score":
        require_binary_support(support, 1, "method 'score'")
        return lambda counts, phi: score_invert_late(counts, support, alpha, s=s)
    if cfg.name == "union":
        require_binary_support(support, 2, "method 'union'")
        return lambda counts, phi: binary_union_set(counts, support, alpha, s)
    # the controls: the interval of half-width half about the true value
    if cfg.name == "oracle":
        half = _number(cfg.options.get("epsilon", 0.0), "method 'oracle': epsilon")
        if not half >= 0.0:
            raise ValueError(f"method 'oracle': epsilon must be at least 0; got {half}")
    else:
        half = math.inf if cfg.name == "fullrange" else math.nan
    return lambda counts, phi: interval_arrays(phi - half, phi + half, s)


# a replication's outcome, by code
OUTCOMES = ("cover", "miss", "error")
_COVER, _MISS, _ERROR = range(3)


def _inf_as_text(v):
    """A value as the reports write it: an infinity as ``"inf"``."""
    return "inf" if isinstance(v, float) and math.isinf(v) else v


@dataclass(frozen=True, eq=False)
class CellReport:
    """Tallies for one (law, method) pair.  ``diameters`` and ``outcomes``
    are read-only rows of the run's tables, one entry per replication: the
    float64 diameter and the int8 outcome code, an index into
    :data:`OUTCOMES`."""

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
    diameters: np.ndarray
    outcomes: np.ndarray
    errors_by_kind: dict    # reason -> count of degenerate replications

    def csv_row(self):
        # str of a float is its repr
        return [str(_inf_as_text(getattr(self, c))) for c in CSV_COLUMNS]

    def to_dict(self):
        d = {c: _inf_as_text(getattr(self, c)) for c in CSV_COLUMNS}
        d.update(
            covered=self.covered, missed=self.missed, errors=self.errors,
            diameters=[_inf_as_text(v) for v in self.diameters.tolist()],
            outcomes=[OUTCOMES[c] for c in self.outcomes.tolist()],
            errors_by_kind=dict(self.errors_by_kind),
        )
        return d


@dataclass(frozen=True)
class CoverageReport:
    cells: tuple
    method_seconds: tuple   # per plan method, in plan order: its constructor calls' seconds

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in self.cells:
            writer.writerow(cell.csv_row())
        return buf.getvalue()

    def to_dict(self):
        return {"cells": [cell.to_dict() for cell in self.cells],
                "method_seconds": list(self.method_seconds)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def cell(self, label, method) -> CellReport:
        for c in self.cells:
            if c.label == label and c.method == method:
                return c
        raise KeyError((label, method))


def _quantiles(ordered: np.ndarray, q: float) -> np.ndarray:
    """Linear-interpolation quantile of every row of sorted values; equal
    order statistics, infinite ones included, give their value."""
    pos = q / 100.0 * (ordered.shape[-1] - 1)
    lo, hi = ordered[..., math.floor(pos)], ordered[..., math.ceil(pos)]
    with np.errstate(invalid="ignore"):                 # inf - inf where lo == hi
        return np.where(lo == hi, lo, lo + (hi - lo) * (pos - math.floor(pos)))


def _cell_reports(code, diam, full, reason, labels, methods, plan):
    """The report of every cell of one support group, from its tables of
    shape (methods, laws, reps): outcome code, diameter, full-range flag and
    reason per replication.  Returns the reports in (method, law) order;
    their diameters and outcomes are rows of diam and code, which it makes
    read-only."""
    n_methods, n_laws, reps = code.shape
    code.flags.writeable = diam.flags.writeable = False
    cell = np.arange(n_methods * n_laws).reshape(n_methods, n_laws, 1)
    tallies = np.bincount((cell * len(OUTCOMES) + code).ravel(),
                          minlength=cell.size * len(OUTCOMES)).reshape(-1, len(OUTCOMES))
    kinds = np.bincount((cell * len(REASONS) + reason).ravel(),
                        minlength=cell.size * len(REASONS))
    ordered = np.sort(diam, axis=-1)
    summaries = zip(
        np.ndindex(n_methods, n_laws),
        tallies.tolist(),
        kinds.reshape(-1, len(REASONS)).tolist(),
        *wilson_interval(tallies[:, _COVER] + tallies[:, _ERROR], reps),
        (np.add.reduce(diam, -1) / reps).ravel().tolist(),   # diam.mean's bits
        _quantiles(ordered, 50).ravel().tolist(),
        _quantiles(ordered, 90).ravel().tolist(),
        np.count_nonzero(full, axis=-1).ravel().tolist(),
        np.count_nonzero(diam >= plan.s.hi - plan.s.lo, axis=-1).ravel().tolist(),
    )
    reports = []
    for (m, j), outcomes, kind, wl, wh, mean, p50, p90, fulls, wide in summaries:
        covered, _, errors = outcomes
        reports.append(CellReport(
            label=labels[j],
            method=methods[m],
            n=plan.n,
            reps=reps,
            covered=covered,
            missed=reps - covered - errors,
            errors=errors,
            coverage=(covered + errors) / reps,
            wilson_lo=wl,
            wilson_hi=wh,
            diam_mean=mean,
            diam_p50=p50,
            diam_p90=p90,
            frac_fullrange=fulls / reps,
            frac_error=errors / reps,
            frac_diam_ge_s=wide / reps,
            diameters=diam[m, j],
            outcomes=code[m, j],
            errors_by_kind=dict(sorted(
                (REASONS[k], count) for k, count in enumerate(kind) if k and count)),
        ))
    return reports


def _support_groups(laws):
    """Plan indices of the laws, grouped by support (``SupportSpec.__eq__``,
    bit for bit) in order of first appearance; supports do not hash, so the
    few groups are scanned."""
    groups = []
    for i, case in enumerate(laws):
        for members in groups:
            if laws[members[0]].law.support == case.law.support:
                members.append(i)
                break
        else:
            groups.append([i])
    return groups


def run(plan: ExperimentPlan) -> CoverageReport:
    """Execute the plan with the constructors it was made with, one support
    group at a time; deterministic given the master seed."""
    names = [method.name for method in plan.methods]
    reports = [None] * len(plan.laws)
    method_seconds = [0.0] * len(plan.methods)
    for members, cases, methods in plan.groups:
        rngs = [np.random.default_rng(np.random.SeedSequence(entropy=plan.seed,
                                                             spawn_key=(i,)))
                for i in members]
        phis = np.array([case.true_phi for case in cases])
        n_cells = cases[0].law.support.n_cells
        block_reps = max(1, BLOCK_BYTES // (16 * n_cells * len(members)))
        # one table per field, (method, law, replication)
        shape = (len(methods), len(members), plan.reps)
        code, reason = np.empty(shape, np.int8), np.empty(shape, np.int8)
        diam, full = np.empty(shape), np.empty(shape, bool)
        for start in range(0, plan.reps, block_reps):
            reps = min(block_reps, plan.reps - start)
            # law j's replications are rows [j * reps, (j + 1) * reps)
            counts = np.concatenate([sample(case.law, plan.n, rng, reps=reps)
                                     for case, rng in zip(cases, rngs)])
            phi = np.repeat(phis, reps)
            stop = start + reps
            for m, construct in enumerate(methods):
                # only the constructor call is timed
                started = time.perf_counter()
                arrays = construct(counts, phi)
                method_seconds[m] += time.perf_counter() - started
                code[m, :, start:stop] = np.where(
                    arrays.reason > 0, _ERROR,
                    np.where(arrays.contains(phi), _COVER, _MISS)).reshape(-1, reps)
                diam[m, :, start:stop] = arrays.diameters().reshape(-1, reps)
                full[m, :, start:stop] = arrays.is_full().reshape(-1, reps)
                reason[m, :, start:stop] = arrays.reason.reshape(-1, reps)
        group = _cell_reports(code, diam, full, reason,
                              [case.label for case in cases], names, plan)
        for j, i in enumerate(members):
            reports[i] = group[j::len(members)]
    return CoverageReport(cells=tuple(cell for row in reports for cell in row),
                          method_seconds=tuple(method_seconds))


# ---------------------------------------------------------------------------
# plan parsing for the CLI

_PLAN_KEYS = {"laws", "methods", "n", "reps", "level", "seed", "s"}
_LAW_KEYS = {"label", "law", "true_phi"}


def plan_from_dict(d) -> ExperimentPlan:
    """Parse a plan from its JSON form.  The plan's dataclasses check every
    value as given; n, reps and seed may also be integer-valued floats.  The
    plan, each law and each method are JSON objects, ``laws`` and
    ``methods`` JSON arrays, and ``s`` a JSON array of two numbers."""
    unknown = set(_json(d, dict, "the plan")) - _PLAN_KEYS
    if unknown:
        raise ValueError(f"unknown plan keys {sorted(unknown)}")
    missing = _PLAN_KEYS - set(d)
    if missing:
        raise ValueError(f"missing plan keys {sorted(missing)}")
    laws = []
    for i, entry in enumerate(_json(d["laws"], list, "laws")):
        unknown = set(_json(entry, dict, f"laws[{i}]")) - _LAW_KEYS
        if unknown:
            raise ValueError(f"unknown law keys {sorted(unknown)}")
        laws.append(LawCase(
            label=entry["label"],
            law=law_from_dict(entry["law"]),
            true_phi=entry["true_phi"],
        ))
    methods = []
    for i, entry in enumerate(_json(d["methods"], list, "methods")):
        entry = dict(_json(entry, dict, f"methods[{i}]"))
        name = entry.pop("name")
        methods.append(MethodConfig(name=name, options=entry))
    if len(_json(d["s"], list, "s")) != 2:
        raise ValueError(f"s must be a JSON array of two numbers; got {d['s']!r}")
    lo, hi = d["s"]
    return ExperimentPlan(
        laws=tuple(laws),
        methods=tuple(methods),
        n=_number(d["n"], "n", integer=True),
        reps=_number(d["reps"], "reps", integer=True),
        level=d["level"],
        seed=_number(d["seed"], "seed", integer=True),
        s=Interval(_number(lo, "s"), _number(hi, "s")),
    )
