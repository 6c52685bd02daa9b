"""Shared law builders, generators, the scalar region model and the
references for the test suite.

Each layer of the package has one kind of reference per level of detail:
the row-level constructors (``row_*``) read raw rows, the serial ones
(``serial_*``) take one sample's counts at a time, and ``serial_run`` runs
a plan law by law and summarises each cell alone (``_SerialTally``, whose
per-replication lists ``serial_tallies`` returns).  Tests check the package
against them on the same inputs."""

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from weakdep import (
    BaseLawSpec,
    DiscreteLaw,
    FunctionalSpec,
    SupportSpec,
    estimate,
    simulate,
)
from weakdep.adversarial import limit_phi_coefficients
from weakdep.confsets import (
    FULL_LINE,
    REASONS,
    Interval,
    _divide,
    _merge_pieces,
    _region_arrays,
    binary_union_set,
    normal_quantile,
    require_binary_support,
    score_invert_late,
    wald_ci,
)
from weakdep.errors import (
    DegenerateSample,
    NoSolution,
    PositivityViolation,
    ZeroConditioningMass,
)
from weakdep.functionals import (
    _m_cells,
    _svd_solve,
    psi1_values,
    riesz_alpha,
    solve_g,
    solve_q,
)
from weakdep.laws import _number, law_to_dict, sample
from weakdep.simulate import (
    OUTCOMES,
    CellReport,
    CoverageReport,
)


# ---------------------------------------------------------------------------
# Scalar region model.  The serial reference constructors return their
# regions in it, and tests read the package's RegionArrays row by row into it
# (as_result) to compare the two.


@dataclass(frozen=True)
class ConfidenceRegion:
    """Full parameter range, a finite union of disjoint intervals, or empty."""

    kind: str                     # "full" | "union" | "empty"
    intervals: tuple = ()

    def __post_init__(self):
        if self.kind not in ("full", "union", "empty"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind == "union" and not self.intervals:
            raise ValueError("union region needs at least one interval")
        if self.kind != "union" and self.intervals:
            raise ValueError(f"{self.kind} region carries no intervals")

    def contains(self, value):
        if self.kind == "full":
            return True
        return any(iv.lo <= value <= iv.hi for iv in self.intervals)

    @property
    def is_full(self):
        return self.kind == "full"


FULL_REGION = ConfidenceRegion(kind="full")
EMPTY_REGION = ConfidenceRegion(kind="empty")


@dataclass(frozen=True)
class RegionResult:
    """Region of one sample plus the diagnostics the constructors give.

    A degenerate result carries the full range and, in ``reason``, why it
    degenerated: the name of the error class, or ``empty_fold`` for a
    cross-fitting fold without draws.
    """

    region: ConfidenceRegion
    estimate: float | None = None
    stderr: float | None = None
    components: dict = field(default_factory=dict)
    reason: str = ""

    @property
    def degenerate(self) -> bool:
        return bool(self.reason)


def _full_result(reason=DegenerateSample.__name__):
    return RegionResult(region=FULL_REGION, reason=reason)


def pieces(lo, hi):
    """The intervals of one entry's pieces arrays, absent (NaN) ones skipped."""
    return [Interval(float(a), float(b)) for a, b in zip(lo, hi) if not math.isnan(a)]


def as_result(arrays, r):
    """Replication r of a RegionArrays as a RegionResult."""
    if arrays.reason[r]:
        return _full_result(REASONS[arrays.reason[r]])
    intervals = tuple(pieces(arrays.lo[r], arrays.hi[r]))
    if not intervals:
        region = EMPTY_REGION
    elif intervals[0].lo <= arrays.s.lo and intervals[0].hi >= arrays.s.hi:
        region = FULL_REGION
    else:
        region = ConfidenceRegion("union", intervals)
    return RegionResult(
        region=region,
        estimate=None if arrays.estimate is None else float(arrays.estimate[r]),
        stderr=None if arrays.stderr is None else float(arrays.stderr[r]),
        components={name: Interval(float(lo[r]), float(hi[r]))
                    for name, (lo, hi) in arrays.components.items()},
    )


def fixed_arrays(intervals, s: Interval, reps: int):
    """The package's normal form of ``intervals``, one column each, for each
    of ``reps`` replications: the RegionArrays that _region_arrays makes."""
    pairs = [(iv.lo, iv.hi) for iv in intervals] or [(np.nan, np.nan)]
    lo, hi = (np.tile(ends, (reps, 1)) for ends in zip(*pairs))
    return _region_arrays(lo, hi, s, np.zeros(reps, dtype=np.int64))


def divide_boxes(boxes):
    """The package's division of every (num, den) pair of intervals, by one
    elementwise call, in normal form: the tuple of sorted, merged intervals
    of each pair."""
    ends = np.array([(num.lo, num.hi, den.lo, den.hi) for num, den in boxes])
    lo, hi = _merge_pieces(*_divide(*ends.T))
    return [tuple(pieces(a, b)) for a, b in zip(lo, hi)]


def intersect(a, b):
    """The intersection of two intervals, or None when they are disjoint."""
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return Interval(lo, hi) if lo <= hi else None


def _merge(intervals):
    """Sort and merge overlapping or touching intervals."""
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
    merged = []
    for iv in ivs:
        if merged and iv.lo <= merged[-1].hi:
            last = merged.pop()
            merged.append(Interval(last.lo, max(last.hi, iv.hi)))
        else:
            merged.append(iv)
    return merged


def region_from_intervals(intervals, s=FULL_LINE):
    """Normalize raw intervals into a region: merge, clip to s, classify."""
    clipped = []
    for iv in intervals:
        cut = intersect(iv, s)
        if cut is not None:
            clipped.append(cut)
    merged = _merge(clipped)
    if not merged:
        return EMPTY_REGION
    if len(merged) == 1 and merged[0].lo <= s.lo and merged[0].hi >= s.hi:
        return FULL_REGION
    return ConfidenceRegion(kind="union", intervals=tuple(merged))


def diameter(region, s):
    """sup minus inf of the region; the full range has the diameter of s."""
    if region.kind == "empty":
        return 0.0
    if region.kind == "full":
        return s.hi - s.lo
    return region.intervals[-1].hi - region.intervals[0].lo


def late_support():
    return SupportSpec(
        mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0], mu_x=[1.0],
        iota_y=[0.0, 1.0],
    )


def late_law(p_z1=0.5, p_w=(0.2, 0.8), y_base=0.3, y_gain=0.4):
    """Binary (Y,Z,W) law with P(W=1|Z=l) = p_w[l] and P(Y=1|W=j) = y_base + y_gain*j."""
    support = late_support()
    mass = np.zeros((2, 2, 2, 1))
    pz = (1.0 - p_z1, p_z1)
    for l in range(2):
        for j in range(2):
            pj = p_w[l] if j == 1 else 1.0 - p_w[l]
            py1 = y_base + y_gain * j
            for h in range(2):
                mass[h, l, j, 0] = pz[l] * pj * (py1 if h == 1 else 1.0 - py1)
    return DiscreteLaw(support, mass)


def wald_ratio(law):
    """(E[Y|Z=1] - E[Y|Z=0]) / (E[W|Z=1] - E[W|Z=0]) from exact law moments."""
    mass = law.mass
    ybar = law.support.y_cell_means
    ey = []
    ew = []
    for l in range(2):
        pz = mass[:, l, :, :].sum()
        ey.append(float(np.einsum("hjm,h->", mass[:, l, :, :], ybar)) / pz)
        ew.append(float(mass[:, l, 1, :].sum()) / pz)
    return (ey[1] - ey[0]) / (ew[1] - ew[0])


def binary_x_law(dep=0.5, py=0.5):
    """All-binary (Y,Z,W,X) law with W-Z dependence dep and outcome level py."""
    support = SupportSpec(
        mu_y=[1.0, 1.0], mu_z=[1.0, 1.0], mu_w=[1.0, 1.0], mu_x=[1.0, 1.0],
        iota_y=[0.0, 1.0],
    )
    mass = np.zeros((2, 2, 2, 2))
    for m in range(2):
        for l in range(2):
            pw1 = 0.5 + dep * (l - 0.5)
            for j in range(2):
                pj = pw1 if j == 1 else 1.0 - pw1
                py1 = py + 0.3 * (j - 0.5)
                for h in range(2):
                    mass[h, l, j, m] = 0.25 * pj * (py1 if h == 1 else 1.0 - py1)
    return DiscreteLaw(support, mass)


def random_support(rng, k_y, k_z, k_w, k_x, unit_zw=False):
    mu_y = rng.uniform(0.5, 2.0, size=k_y)
    if unit_zw:
        mu_z = np.ones(k_z)
        mu_w = np.ones(k_w)
    else:
        mu_z = rng.uniform(0.5, 2.0, size=k_z)
        mu_w = rng.uniform(0.5, 2.0, size=k_w)
    mu_x = rng.uniform(0.5, 2.0, size=k_x)
    # spread-out cell means keep iota_y away from collinearity with mu_y
    iota_y = mu_y * np.linspace(0.0, 1.0, k_y)
    return SupportSpec(mu_y=mu_y, mu_z=mu_z, mu_w=mu_w, mu_x=mu_x, iota_y=iota_y)


def random_law(rng, k_y=2, k_z=2, k_w=2, k_x=1, support=None, unit_zw=False):
    """Strictly positive random law on a random (or given) support."""
    if support is None:
        support = random_support(rng, k_y, k_z, k_w, k_x, unit_zw=unit_zw)
    raw = rng.gamma(2.0, size=support.shape) + 0.05
    return DiscreteLaw(support, raw / raw.sum())


def spec_for_support(rng, support):
    """A functional that structurally fits the support."""
    if support.k_w == 2 and support.k_z == 2 and support.k_x == 1 \
            and np.all(support.mu_w == 1.0) and np.all(support.mu_z == 1.0):
        return FunctionalSpec.late()
    if support.k_w == 2 and np.all(support.mu_w == 1.0):
        return FunctionalSpec.ate_iv()
    if support.k_x == 1:
        return FunctionalSpec.npiv(rng.uniform(-1.0, 1.0, size=support.k_w))
    return FunctionalSpec.generic(
        rng.uniform(-2.0, 2.0, size=(support.k_w, support.k_x))
    )


def kind_support(rng, kind, k, k_y, k_x):
    """A random support on which the functional kind is defined.

    Binary-W kinds get counting measures on Z and W; proximal_ate gets equal
    X measures on the two arms of each L cell.
    """
    unit = kind in ("late", "ate_iv")
    support = random_support(rng, k_y, k, k, k_x, unit_zw=unit)
    if kind == "proximal_ate":
        mu_x = np.repeat(support.mu_x[0::2], 2)
        support = SupportSpec(mu_y=support.mu_y, mu_z=support.mu_z,
                              mu_w=support.mu_w, mu_x=mu_x, iota_y=support.iota_y)
    return support


def kind_spec(rng, kind, support):
    if kind == "npiv":
        return FunctionalSpec.npiv(rng.uniform(-1.0, 1.0, size=support.k_w))
    if kind == "generic":
        return FunctionalSpec.generic(
            rng.uniform(-2.0, 2.0, size=(support.k_w, support.k_x))
        )
    return FunctionalSpec(kind=kind)


def compositions(n, k):
    """Every vector of k non-negative integers summing to n, one per row, in
    lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)
    for _ in range(k - 1):
        choices = n - used + 1
        parent = np.repeat(np.arange(len(rows)), choices)
        first = np.repeat(np.cumsum(choices) - choices, choices)
        value = np.arange(choices.sum()) - first
        rows = np.column_stack([rows[parent], value])
        used = used[parent] + value
    return np.column_stack([rows, n - used])


def multinomial_pmf(counts, p):
    """Multinomial probability of each row of counts under cell probabilities p."""
    n = int(counts[0].sum())
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    log_p = np.log(np.where(p > 0.0, p, 1.0))
    impossible = ((counts > 0) & (p <= 0.0)).any(axis=1)
    log_pmf = log_fact[n] - log_fact[counts].sum(axis=1) + counts @ log_p
    return np.where(impossible, 0.0, np.exp(log_pmf))


def serial_sample(law, n, seed):
    """One sample's counts, shape (2, k_y, k_z, k_w, k_x), drawn fold by
    fold, one multinomial call per fold (the reference for the single-sample
    stream of ``laws.sample``)."""
    rng = np.random.default_rng(seed)
    flat = law.mass.ravel()
    live = np.flatnonzero(flat)
    p = flat[live] / flat[live].sum()
    counts = np.zeros((2, flat.size), dtype=np.int64)
    for fold, size in enumerate((n // 2, n - n // 2)):
        counts[fold, live] = rng.multinomial(size, p)
    return counts.reshape((2,) + law.mass.shape)


def acceptance_base():
    """Binary ratio-target base: f_Z(1)=0.5, uniform W and Y, cell means (0, 1)."""
    return BaseLawSpec(
        support=late_support(),
        f_zx=[[0.5], [0.5]],
        pi_w_given_x=[[0.5, 0.5]],
        pi_y_given_x=[[0.5, 0.5]],
        functional=FunctionalSpec.late(),
    )


def random_base(rng, k=2, k_y=2, k_x=1, tame=False):
    """Random product base whose representer is non-constant somewhere.

    tame draws weights from a narrow band, keeping representer magnitudes
    (and hence the functional's sensitivity to the perturbation scale) at
    desk scale.
    """
    if tame:
        support = random_support(rng, k_y, k, k, k_x, unit_zw=(k == 2))
        draw = lambda size: rng.uniform(0.5, 1.5, size=size)
    else:
        support = random_support(rng, k_y, k, k, k_x, unit_zw=(k == 2))
        draw = lambda size: rng.gamma(2.0, size=size) + 0.1
    f_zx = draw((k, k_x))
    f_zx /= f_zx.sum()
    pi_w = draw((k_x, k))
    pi_w /= (pi_w * support.mu_w[None, :]).sum(axis=1, keepdims=True)
    pi_y = draw((k_x, k_y))
    pi_y /= (pi_y * support.mu_y[None, :]).sum(axis=1, keepdims=True)
    if k == 2 and np.all(support.mu_w == 1.0):
        functional = FunctionalSpec.ate_iv() if k_x > 1 else FunctionalSpec.late()
    elif k_x == 1:
        functional = FunctionalSpec.npiv(rng.uniform(0.2, 1.0, size=k))
    else:
        alpha = rng.uniform(-2.0, 2.0, size=(k, k_x))
        alpha[0, :] += 1.0   # keep some stratum non-constant
        functional = FunctionalSpec.generic(alpha)
    return BaseLawSpec(
        support=support, f_zx=f_zx, pi_w_given_x=pi_w, pi_y_given_x=pi_y,
        functional=functional,
    )


# ---------------------------------------------------------------------------
# Rows and their binning.  The package draws samples as cell counts; tests
# that write data out by hand give rows and bin them here.


@dataclass(frozen=True)
class Rows:
    """Sampled rows: real outcome y and 0-based cell indices z, w, x."""

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        for name, dtype in (("y", float), ("z", int), ("w", int), ("x", int)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if any(getattr(self, f).size != self.y.size for f in ("z", "w", "x")):
            raise ValueError("column lengths differ")

    def __len__(self):
        return self.y.size

    def subset(self, idx):
        return Rows(self.y[idx], self.z[idx], self.w[idx], self.x[idx])


def dataset_from_rows(y, z, w, x, support):
    """Bin rows into the count stack of one sample, shape
    (1, 2, k_y, k_z, k_w, k_x): the first n // 2 rows are fold 0, the rest
    fold 1.

    Each y must equal one of the support's Y cell means (to 1e-8 relative)
    and each index must lie inside the support.
    """
    rows = Rows(y, z, w, x)
    n = len(rows)
    ybar = support.y_cell_means
    diff = np.abs(rows.y[:, None] - ybar[None, :])
    h = diff.argmin(axis=1)
    worst = diff[np.arange(n), h]
    scale = np.maximum(1.0, np.abs(ybar[h]))
    if np.any(worst > 1e-8 * scale):
        bad = int(np.argmax(worst > 1e-8 * scale))
        raise ValueError(f"row {bad}: y={rows.y[bad]} matches no Y cell mean")
    for name, k in (("z", support.k_z), ("w", support.k_w), ("x", support.k_x)):
        col = getattr(rows, name)
        if n and (col.min() < 0 or col.max() >= k):
            raise ValueError(f"{name} index outside support")
    flat = np.ravel_multi_index((h, rows.z, rows.w, rows.x), support.shape)
    fold = (np.arange(n) >= n // 2).astype(np.int64)
    counts = np.bincount(fold * support.n_cells + flat, minlength=2 * support.n_cells)
    return counts.reshape((1, 2) + support.shape)


def empirical_law(counts, support):
    """The empirical law of one sample's counts: one fold's tensor, both
    folds' (2, k_y, k_z, k_w, k_x), or the stack of one; the leading axes
    are summed."""
    counts = np.asarray(counts).reshape((-1,) + support.shape).sum(axis=0)
    return DiscreteLaw(support, estimate(counts, support))


class EmptySample(ValueError):
    """A reference constructor was given a sample without draws."""


# ---------------------------------------------------------------------------
# Reference stratum solver.  This is the package's _solve_strata as it was
# before 2x2 systems got closed-form rotations: one batched SVD for every
# shape (the package keeps that path for k >= 3, where TestBatchedSolver
# checks it against lstsq).  Tests check the rotation path against it, and
# patch it into the package to compare whole Wald runs on the same counts.


def svd_solve_strata(lhs, rhs, tol):
    """Minimum-norm solve of a stack of systems by one batched SVD, with the
    returns of ``functionals._solve_strata``: solutions, residual norms, the
    consistency mask (residual <= tol * max(1, |rhs|)) and the singular
    values, largest first."""
    sol, residuals, rhs_norm, sigma = _svd_solve(lhs, rhs)
    return sol, residuals, residuals <= tol * np.maximum(1.0, rhs_norm), sigma


# ---------------------------------------------------------------------------
# Serial reference Wald.  This is the package's wald_ci as it was before it
# evaluated stacks of replications: one replication at a time, with the
# nuisances solved through the law-level solve_g, riesz_alpha and solve_q and
# every degenerate sample caught as an exception.  Tests check the stacked
# path against it on the same counts.


def _nuisances(law, spec):
    try:
        g = solve_g(law)
        q = solve_q(law, riesz_alpha(law, spec))
    except NoSolution as exc:
        raise DegenerateSample(str(exc)) from exc
    return g, q


def serial_wald_ci(counts, spec, support, alpha, s=FULL_LINE, cross_fit=False):
    """Wald interval of one sample's counts, shape (2, k_y, k_z, k_w, k_x),
    solved fold by fold (the reference)."""
    n = int(counts.sum())
    if n == 0:
        raise EmptySample("cannot build an interval from an empty sample")
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        if cross_fit:
            n_a, n_b = int(counts[0].sum()), int(counts[1].sum())
            if n_a == 0 or n_b == 0:
                return _full_result("empty_fold")
            fold_a = empirical_law(counts[0], support)
            fold_b = empirical_law(counts[1], support)
            folds = ((fold_a, fold_b, n_b / n),
                     (fold_b, fold_a, n_a / n))
        else:
            law = empirical_law(counts, support)
            folds = ((law, law, 1.0),)
        parts = []
        for fit, held_out, share in folds:
            g, q = _nuisances(fit, spec)
            parts.append((held_out.mass * share, psi1_values(support, spec, g, q)))
    except (DegenerateSample, ZeroConditioningMass, PositivityViolation) as exc:
        return _full_result(type(exc).__name__)
    phi_hat = float(sum((weight * values).sum() for weight, values in parts))
    if n > 1:
        ss = sum((weight * (values - phi_hat) ** 2).sum() for weight, values in parts)
        sd = math.sqrt(float(ss) * n / (n - 1))
    else:
        sd = 0.0
    half_width = z * sd / math.sqrt(n)
    region = region_from_intervals(
        [Interval(phi_hat - half_width, phi_hat + half_width)], s
    )
    return RegionResult(region=region, estimate=phi_hat, stderr=sd / math.sqrt(n))


# ---------------------------------------------------------------------------
# Row-level reference constructors.  These evaluate the three confidence sets
# row by row, with n-row masks and per-row influence arrays, exactly as the
# package did before its constructors moved to cell counts; tests check the
# cell path against them on the same rows.


class EmptyStratum(DegenerateSample):
    """A conditioning stratum is unobserved in the rows."""


def _check_binary(values, name):
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{name} must be binary 0/1")


def row_psi1_values(rows, support, spec, g, q):
    """Per-row values of the estimating function m(O,g) + q(Z,X){Y - g(W,X)}."""
    mcell = _m_cells(spec, g, support)
    mvals = mcell[rows.w, rows.x]
    return mvals + q[rows.z, rows.x] * (rows.y - g[rows.w, rows.x])


def _row_law(rows, support):
    return empirical_law(dataset_from_rows(rows.y, rows.z, rows.w, rows.x, support),
                         support)


def row_wald_ci(rows, spec, support, alpha, s=FULL_LINE, cross_fit=False):
    """Row-level Wald interval: mean and ddof=1 deviation of the per-row values."""
    n = len(rows)
    if n == 0:
        raise EmptySample("wald_ci needs at least one row")
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        if cross_fit:
            half = n // 2
            idx_a = np.arange(half)
            idx_b = np.arange(half, n)
            values = np.empty(n)
            for fit_idx, eval_idx in ((idx_a, idx_b), (idx_b, idx_a)):
                law = _row_law(rows.subset(fit_idx), support)
                g, q = _nuisances(law, spec)
                values[eval_idx] = row_psi1_values(
                    rows.subset(eval_idx), support, spec, g, q
                )
        else:
            law = _row_law(rows, support)
            g, q = _nuisances(law, spec)
            values = row_psi1_values(rows, support, spec, g, q)
    except (DegenerateSample, ZeroConditioningMass, PositivityViolation) as exc:
        return _full_result(type(exc).__name__)
    phi_hat = float(values.mean())
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    half_width = z * sd / math.sqrt(n)
    region = region_from_intervals(
        [Interval(phi_hat - half_width, phi_hat + half_width)], s
    )
    return RegionResult(region=region, estimate=phi_hat, stderr=sd / math.sqrt(n))


def row_score_invert_late(rows, alpha, s=FULL_LINE):
    """Row-level score inversion, centring Y and W by their Z=1 means."""
    n = len(rows)
    if n == 0:
        raise EmptySample("score inversion needs at least one row")
    _check_binary(rows.z, "z")
    _check_binary(rows.w, "w")
    if np.any(rows.x != rows.x[0]):
        raise ValueError("the ratio target admits no X stratification")
    n1 = int(rows.z.sum())
    if n1 == 0 or n1 == n:
        return _full_result()

    f_z1 = n1 / n
    c = np.where(rows.z == 1, 1.0 / f_z1, -1.0 / (1.0 - f_z1))
    a_dev = rows.y - rows.y[rows.z == 1].mean()
    b_dev = rows.w - rows.w[rows.z == 1].mean()
    ca = c * a_dev
    cb = c * b_dev
    mean_a = ca.mean()
    mean_b = cb.mean()

    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    q_aa = float(n * mean_a * mean_a - z2 * (ca * ca).mean())
    q_ab = float(n * mean_a * mean_b - z2 * (ca * cb).mean())
    q_bb = float(n * mean_b * mean_b - z2 * (cb * cb).mean())
    pieces = serial_quadratic_sublevel(q_bb, -2.0 * q_ab, q_aa)
    return RegionResult(region=region_from_intervals(pieces, s))


def _mean_with_influence(values):
    est = float(values.mean())
    return est, values - est


def _cond_mean_with_influence(values, mask):
    count = int(mask.sum())
    if count == 0:
        raise EmptyStratum("conditioning stratum unobserved in sample")
    p_hat = count / mask.size
    est = float(values[mask].mean())
    infl = np.where(mask, values - est, 0.0) / p_hat
    return est, infl


def _cond_pair_contrast(values, z, stratum_mask):
    est1, infl1 = _cond_mean_with_influence(values, (z == 1) & stratum_mask)
    est0, infl0 = _cond_mean_with_influence(values, (z == 0) & stratum_mask)
    return est1 - est0, infl1 - infl0


def _row_wald_component(est, infl, alpha):
    n = infl.size
    z = normal_quantile(1.0 - alpha / 2.0)
    se = math.sqrt(float((infl * infl).mean()) / max(n - 1, 1))
    return Interval(est - z * se, est + z * se)


def row_binary_union_set(rows, alpha, s):
    """Row-level union-bound set (the paper's grouping); the X form is used
    only when the sample holds more than one X value."""
    n = len(rows)
    if n == 0:
        raise EmptySample("union set needs at least one row")
    _check_binary(rows.z, "z")
    _check_binary(rows.w, "w")
    y = rows.y
    w = rows.w.astype(float)
    z = rows.z

    has_x = bool(np.any(rows.x != rows.x[0]))
    try:
        if not has_x:
            level = alpha / 2.0
            de_est, de_infl = _cond_pair_contrast(w, z, np.ones(n, dtype=bool))
            nu_est, nu_infl = _cond_pair_contrast(y, z, np.ones(n, dtype=bool))
            b_de = _row_wald_component(de_est, de_infl, level)
            b_num = _row_wald_component(nu_est, nu_infl, level)
            offset = Interval(0.0, 0.0)
            components = {"de": b_de, "num": b_num}
        else:
            _check_binary(rows.x, "x")
            x1 = rows.x == 1
            de_est, de_infl = _cond_pair_contrast(w, z, x1)
            nu_est, nu_infl = _cond_pair_contrast(y, z, x1)
            ew_est, ew_infl = _mean_with_influence(w)
            w11_est, w11_infl = _cond_mean_with_influence(w, (z == 1) & x1)
            y11_est, y11_infl = _cond_mean_with_influence(y, (z == 1) & x1)
            diff_est = ew_est - w11_est
            diff_infl = ew_infl - w11_infl
            level = alpha / 3.0
            gw_est = nu_est * diff_est
            gw_infl = diff_est * nu_infl + nu_est * diff_infl
            b_de = _row_wald_component(de_est, de_infl, level)
            b_num = _row_wald_component(gw_est, gw_infl, level)
            offset = _row_wald_component(y11_est, y11_infl, level)
            components = {"de": b_de, "num": b_num, "offset": offset}
    except EmptyStratum:
        return _full_result()

    if b_de.lo < 0.0 < b_de.hi and not (b_num.lo == 0.0 == b_num.hi):
        return RegionResult(region=FULL_REGION, components=components)
    pieces = serial_interval_div(b_num, b_de)
    if not pieces:
        return _full_result()
    region = region_from_intervals(interval_add(pieces, offset), s)
    return RegionResult(region=region, components=components)


# ---------------------------------------------------------------------------
# Reference interval division: the sign-by-sign case analysis the package
# used before it divided by the limits at the endpoints of the denominator.


def case_interval_div(num, den):
    """Image of {s / t : s in num, t in den, t != 0}, case by case."""
    inf = float("inf")
    if den.lo == 0.0 and den.hi == 0.0:
        return ()
    if den.lo > 0.0 or den.hi < 0.0:
        ratios = (num.lo / den.lo, num.lo / den.hi, num.hi / den.lo, num.hi / den.hi)
        return (Interval(min(ratios), max(ratios)),)
    if num.lo == 0.0 and num.hi == 0.0:
        return (Interval(0.0, 0.0),)

    if den.lo == 0.0:                      # t ranges over (0, den.hi]
        if num.lo > 0.0:
            return (Interval(num.lo / den.hi, inf),)
        if num.hi < 0.0:
            return (Interval(-inf, num.hi / den.hi),)
        if num.lo == 0.0:
            return (Interval(0.0, inf),)
        if num.hi == 0.0:
            return (Interval(-inf, 0.0),)
        return (FULL_LINE,)
    if den.hi == 0.0:                      # t ranges over [den.lo, 0)
        if num.lo > 0.0:
            return (Interval(-inf, num.lo / den.lo),)
        if num.hi < 0.0:
            return (Interval(num.hi / den.lo, inf),)
        if num.lo == 0.0:
            return (Interval(-inf, 0.0),)
        if num.hi == 0.0:
            return (Interval(0.0, inf),)
        return (FULL_LINE,)

    # zero strictly interior to the denominator
    if num.lo > 0.0:
        return (Interval(-inf, num.lo / den.lo), Interval(num.lo / den.hi, inf))
    if num.hi < 0.0:
        return (Interval(-inf, num.hi / den.hi), Interval(num.hi / den.lo, inf))
    return (FULL_LINE,)


# ---------------------------------------------------------------------------
# Serial reference score and union sets.  These are the package's
# score_invert_late and binary_union_set as they were before they evaluated
# stacks of replications: one sample at a time, in scalar arithmetic, with
# an empty conditioning cell caught as an exception.  Tests check the
# stacked path against them on the same counts.

INF = float("inf")


def interval_add(pieces, offset):
    """Minkowski sum of each piece with a finite interval."""
    return tuple(Interval(iv.lo + offset.lo, iv.hi + offset.hi) for iv in pieces)


def serial_interval_div(num, den):
    """Image of {s / t : s in num, t in den, t != 0}: each signed part of the
    denominator maps onto the hull of its four endpoint quotients.  An
    infinite s over an infinite t has no value: the zero that the finite s
    next to it give stands in for it, and without such s it is left out."""
    parts = []
    if den.lo < 0.0:
        parts.append((den.lo, den.hi if den.hi < 0.0 else -0.0))
    if den.hi > 0.0:
        parts.append((den.lo if den.lo > 0.0 else 0.0, den.hi))
    pieces = []
    for a, b in parts:
        quotients = [_serial_quotient(s, t, num.lo < num.hi)
                     for s in (num.lo, num.hi) for t in (a, b)]
        quotients = [q for q in quotients if q is not None]
        if quotients:
            pieces.append(Interval(min(quotients), max(quotients)))
    return tuple(_merge(pieces))


def _serial_quotient(s, t, spread):
    if math.isinf(s) and math.isinf(t):
        return math.copysign(0.0, s) * math.copysign(1.0, t) if spread else None
    if t != 0.0:
        return s / t
    return 0.0 if s == 0.0 else math.copysign(INF, s) * math.copysign(1.0, t)


def serial_quadratic_sublevel(quad, lin, const):
    """{theta : quad theta^2 + lin theta + const <= 0} as closed intervals."""
    if quad == 0.0:
        if lin == 0.0:
            return [FULL_LINE] if const <= 0.0 else []
        root = -const / lin
        return [Interval(-INF, root)] if lin > 0.0 else [Interval(root, INF)]
    disc = lin * lin - 4.0 * quad * const
    if disc < 0.0:
        return [] if quad > 0.0 else [FULL_LINE]
    q = -0.5 * (lin + math.copysign(math.sqrt(disc), lin))
    lo, hi = sorted((q / quad, const / q)) if q != 0.0 else (0.0, 0.0)
    if quad > 0.0:
        return [Interval(lo, hi)]
    return [Interval(-INF, lo), Interval(hi, INF)]


def serial_score_invert_late(counts, support, alpha, s=FULL_LINE):
    """Score inversion of one sample's counts, shape (2, k_y, k_z, k_w, k_x),
    from its integer count moments."""
    require_binary_support(support, 1, "score inversion")
    if counts.shape[1:] != support.shape:
        raise ValueError(
            f"counts shape {counts.shape[1:]} does not match "
            f"support shape {support.shape}"
        )
    counts = counts.sum(axis=0)[..., 0]                 # (k_y, 2, 2) integers
    if not counts.any():
        raise EmptySample("cannot invert the score test on an empty sample")
    n0, n1 = counts.sum(axis=(0, 2))
    if n1 == 0 or n0 == 0:
        return _full_result()
    y = support.y_cell_means
    w = np.arange(2.0)
    a = n1 * y - (counts[:, 1].sum(axis=1) * y).sum()
    b = n1 * w - counts[:, 1].sum(axis=0) @ w
    c = np.array([-n1, n0])
    ca = c[None, :, None] * a[:, None, None]
    cb = c[None, :, None] * b[None, None, :]
    sum_a = float((counts * ca).sum())
    sum_b = float((counts * cb).sum())
    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    q_aa = sum_a * sum_a - z2 * float((counts * ca * ca).sum())
    q_ab = sum_a * sum_b - z2 * float((counts * ca * cb).sum())
    q_bb = sum_b * sum_b - z2 * float((counts * cb * cb).sum())
    pieces = serial_quadratic_sublevel(q_bb, -2.0 * q_ab, q_aa)
    return RegionResult(region=region_from_intervals(pieces, s))


def _serial_cond_mean(mass, values, event):
    p = float((mass * event).sum())
    if p <= 0.0:
        _, l, _, m = np.argwhere(event)[0]
        raise ZeroConditioningMass((int(l), int(m)))
    est = float((mass * event * values).sum()) / p
    return est, np.where(event, values - est, 0.0) / p


def serial_union_components(mass, support):
    """Union-bound components (estimate, influence values per cell) of one law."""
    y = support.y_cell_means.reshape(-1, 1, 1, 1)
    w = np.arange(support.k_w, dtype=float).reshape(1, 1, -1, 1)
    z = np.arange(support.k_z).reshape(1, -1, 1, 1)
    arm = np.arange(support.k_x).reshape(1, 1, 1, -1) == support.k_x - 1

    def contrast(values):
        est1, infl1 = _serial_cond_mean(mass, values, (z == 1) & arm)
        est0, infl0 = _serial_cond_mean(mass, values, (z == 0) & arm)
        return est1 - est0, infl1 - infl0

    de = contrast(w)
    nu_est, nu_infl = contrast(y)
    if support.k_x == 1:
        return {"de": de, "num": (nu_est, nu_infl)}
    ew_est = float((mass * w).sum())
    w11_est, w11_infl = _serial_cond_mean(mass, w, (z == 1) & arm)
    diff_est = ew_est - w11_est
    diff_infl = (w - ew_est) - w11_infl
    return {
        "de": de,
        "num": (nu_est * diff_est, diff_est * nu_infl + nu_est * diff_infl),
        "offset": _serial_cond_mean(mass, y, (z == 1) & arm),
    }


def _serial_wald_component(est, infl, mass, n, alpha):
    z = normal_quantile(1.0 - alpha / 2.0)
    se = math.sqrt(float((mass * infl * infl).sum()) / max(n - 1, 1))
    return Interval(est - z * se, est + z * se)


def serial_binary_union_set(counts, support, alpha, s):
    """Union-bound set of one sample's counts, shape (2, k_y, k_z, k_w, k_x),
    component by component."""
    require_binary_support(support, 2, "the union set")
    n = int(counts.sum())
    if n == 0:
        raise EmptySample("cannot build the union set from an empty sample")
    law = empirical_law(counts, support)
    try:
        parts = serial_union_components(law.mass, support)
    except ZeroConditioningMass as exc:
        return _full_result(type(exc).__name__)
    level = alpha / len(parts)
    components = {
        name: _serial_wald_component(est, infl, law.mass, n, level)
        for name, (est, infl) in parts.items()
    }
    b_de, b_num = components["de"], components["num"]
    offset = components.get("offset", Interval(0.0, 0.0))
    if b_de.lo < 0.0 < b_de.hi and not (b_num.lo == 0.0 == b_num.hi):
        return RegionResult(region=FULL_REGION, components=components)
    pieces = serial_interval_div(b_num, b_de)
    if not pieces:
        return _full_result()
    region = region_from_intervals(interval_add(pieces, offset), s)
    return RegionResult(region=region, components=components)


# ---------------------------------------------------------------------------
# Reference Monte Carlo run.  This is simulate.run as it was before laws on
# one support were evaluated together: every law alone, one constructor call
# per law, method and block, and the per-replication tallies kept as Python
# lists, each cell summarised alone by _SerialTally (with _quantile for its
# diameter quantiles).  Tests check the package's run against it bit for
# bit, and the package's columnar summary against _SerialTally fed the same
# tables block by block.


def serial_wilson_interval(successes: int, trials: int, level: float = 0.95):
    """Wilson score interval of one proportion, in Python floats."""
    z = normal_quantile(0.5 + level / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _quantile(values: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile that tolerates infinite order statistics."""
    ordered = np.sort(values)
    pos = q / 100.0 * (ordered.size - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if ordered[lo] == ordered[hi]:
        return float(ordered[lo])
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def _serial_bind_method(cfg, plan, case):
    """Turn a method config into a constructor that maps a block's counts,
    shape (R, 2, k_y, k_z, k_w, k_x), to RegionArrays.  The plan has checked
    every method against every law's support when it was made."""
    alpha = 1.0 - plan.level
    support = case.law.support
    if cfg.name == "wald":
        func = FunctionalSpec.from_dict(cfg.options["functional"])
        cross_fit = cfg.options.get("cross_fit", False)
        return lambda counts: wald_ci(counts, func, support, alpha, plan.s, cross_fit)
    if cfg.name == "score":
        return lambda counts: score_invert_late(counts, support, alpha, s=plan.s)
    if cfg.name == "union":
        return lambda counts: binary_union_set(counts, support, alpha, plan.s)
    if cfg.name == "fullrange":
        intervals = [FULL_LINE]
    elif cfg.name == "empty":
        intervals = []
    else:
        eps = _number(cfg.options.get("epsilon", 0.0), "method 'oracle': epsilon")
        intervals = [Interval(case.true_phi - eps, case.true_phi + eps)]
    return lambda counts: fixed_arrays(intervals, plan.s, len(counts))


class _SerialTally:
    """Per-replication outcomes of one (law, method) pair, in replication order."""

    def __init__(self, true_phi: float):
        self.true_phi = true_phi
        self.outcomes = []
        self.diameters = []
        self.fulls = []
        self.errors_by_kind = Counter()

    def add_stack(self, arrays):
        """Tally one block's RegionArrays."""
        covered = arrays.contains(self.true_phi)
        outcomes = np.where(arrays.reason > 0, "error", np.where(covered, "cover", "miss"))
        self.add(outcomes.tolist(), arrays.diameters(), arrays.is_full(), arrays.reason)

    def add(self, outcomes, diameters, fulls, reasons):
        """Tally one block's outcome names and its arrays of diameters,
        full-range flags and reasons, in replication order."""
        self.outcomes += outcomes
        self.diameters += diameters.tolist()
        self.fulls += fulls.tolist()
        self.errors_by_kind.update(REASONS[code] for code in reasons[reasons > 0])

    def report(self, label, method, plan):
        outcomes = tuple(self.outcomes)
        covered = outcomes.count("cover")
        errors = outcomes.count("error")
        missed = plan.reps - covered - errors
        wl, wh = serial_wilson_interval(covered + errors, plan.reps)
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
            diameters=diam_arr,
            outcomes=np.array([OUTCOMES.index(name) for name in outcomes], np.int8),
            errors_by_kind=dict(sorted(self.errors_by_kind.items())),
        )


def serial_tallies(plan):
    """Execute the plan law by law; deterministic given the master seed.
    Returns each cell's tally, in (law, method) order, and each method's
    seconds, summed over every law."""
    cells = []
    seconds = [0.0] * len(plan.methods)
    for law_idx, case in enumerate(plan.laws):
        methods = [_serial_bind_method(m, plan, case) for m in plan.methods]
        tallies = [_SerialTally(case.true_phi) for _ in plan.methods]
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=plan.seed, spawn_key=(law_idx,)))
        block_reps = max(1, simulate.BLOCK_BYTES // (16 * case.law.support.n_cells))
        for start in range(0, plan.reps, block_reps):
            counts = sample(case.law, plan.n, rng,
                            reps=min(block_reps, plan.reps - start))
            for m, (construct, tally) in enumerate(zip(methods, tallies)):
                # only the constructor call is timed
                started = time.perf_counter()
                arrays = construct(counts)
                seconds[m] += time.perf_counter() - started
                tally.add_stack(arrays)
        cells.extend(tallies)
    return cells, seconds


def serial_run(plan):
    """The report of :func:`serial_tallies`, each cell summarised alone."""
    tallies, seconds = serial_tallies(plan)
    names = [(case.label, method.name) for case in plan.laws for method in plan.methods]
    cells = [tally.report(label, method, plan)
             for (label, method), tally in zip(names, tallies)]
    return CoverageReport(cells=tuple(cells), method_seconds=tuple(seconds))


# ---------------------------------------------------------------------------
# Law-level references that the package itself no longer calls.


def plan_to_dict(plan):
    """The JSON form of a plan that ``simulate.plan_from_dict`` reads."""
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


def limit_phi(base, gamma):
    """Limit of the functional as eta_w -> 0 with eta_y = gamma * eta_w.

    Affine in gamma: the slope aggregates per-stratum weighted variances of
    the base representer, the intercept aggregates base moments.
    """
    slope, intercept = limit_phi_coefficients(base)
    return gamma * slope + intercept
