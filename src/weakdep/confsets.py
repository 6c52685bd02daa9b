"""Confidence-set constructions and the interval arithmetic they need.

Three constructors:

* :func:`wald_ci` -- plug-in estimate from the estimating function
  m(O,g) + q(Z,X){Y - g(W,X)}, plus/minus a normal quantile times the
  influence standard error;
* :func:`score_invert_late` -- exact inversion of the score test for the
  binary-instrument ratio target (the solution set of a quadratic
  inequality), robust to arbitrarily weak dependence because the
  covariance factor cancels between numerator and variance;
* :func:`binary_union_set` -- component Wald intervals at split levels
  combined with exact interval arithmetic (ratio plus offset), valid by
  the union bound for binary Z, W, X.

Regions are finite unions of closed intervals, the full parameter range,
or empty.  Degenerate-sample failures conservatively return the full range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyDataset,
    EmptyStratum,
    PositivityViolation,
    ZeroConditioningMass,
)
from .functionals import (
    FunctionalSpec,
    NoSolution,
    psi1_values,
    riesz_alpha,
    solve_g,
    solve_q,
)
from .laws import Dataset, DiscreteLaw, SupportSpec, estimate, marginal

INF = float("inf")


# ---------------------------------------------------------------------------
# normal quantile
#
# Rational approximation of Wichura's algorithm AS 241 (PPND16); absolute
# error below 1e-15 on (0, 1), far inside the 1e-9 contract.

_A = (3.3871328727963666080e0, 1.3314166789178437745e2,
      1.9715909503065514427e3, 1.3731693765509461125e4,
      4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2,
      5.3941960214247511077e3, 2.1213794301586595867e4,
      3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0,
      5.76949722146069140550e0, 3.64784832476320460504e0,
      1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0,
      6.89767334985100004550e-1, 1.48103976427480074590e-1,
      1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0,
      1.78482653991729133580e0, 2.96560571828504891230e-1,
      2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1,
      1.48753612908506148525e-2, 7.86869131145613259100e-4,
      1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _ratpoly(num, den, r):
    n = 0.0
    d = 0.0
    for c in reversed(num):
        n = n * r + c
    for c in reversed(den):
        d = d * r + c
    return n / d


def normal_quantile(p: float) -> float:
    """Standard normal quantile function on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1); got {p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _ratpoly(_A, _B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        value = _ratpoly(_C, _D, r - 1.6)
    else:
        value = _ratpoly(_E, _F, r - 5.0)
    return -value if q < 0.0 else value


# ---------------------------------------------------------------------------
# intervals and regions


@dataclass(frozen=True)
class Interval:
    """Closed interval, endpoints possibly infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    def contains(self, value):
        return self.lo <= value <= self.hi

    @property
    def length(self):
        return self.hi - self.lo

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None


FULL_LINE = Interval(-INF, INF)


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
        return any(iv.contains(value) for iv in self.intervals)

    @property
    def is_full(self):
        return self.kind == "full"

    def to_dict(self, s: Interval | None = None):
        d = {
            "kind": self.kind,
            "intervals": [[iv.lo, iv.hi] for iv in self.intervals],
        }
        if s is not None:
            diam = diameter(self, s)
            d["diameter"] = "inf" if math.isinf(diam) else diam
        return d


FULL_REGION = ConfidenceRegion(kind="full")
EMPTY_REGION = ConfidenceRegion(kind="empty")


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


def region_from_intervals(intervals, s: Interval = FULL_LINE) -> ConfidenceRegion:
    """Normalize raw intervals into a region: merge, clip to s, classify."""
    clipped = []
    for iv in intervals:
        cut = iv.intersect(s)
        if cut is not None:
            clipped.append(cut)
    merged = _merge(clipped)
    if not merged:
        return EMPTY_REGION
    if len(merged) == 1 and merged[0].lo <= s.lo and merged[0].hi >= s.hi:
        return FULL_REGION
    return ConfidenceRegion(kind="union", intervals=tuple(merged))


def diameter(region: ConfidenceRegion, s: Interval) -> float:
    """sup minus inf of the region; the full range has the diameter of s."""
    if region.kind == "empty":
        return 0.0
    if region.kind == "full":
        return s.hi - s.lo
    return region.intervals[-1].hi - region.intervals[0].lo


# ---------------------------------------------------------------------------
# exact interval arithmetic


def interval_add(pieces, offset: Interval):
    """Minkowski sum of each piece with a finite interval."""
    return tuple(Interval(iv.lo + offset.lo, iv.hi + offset.hi) for iv in pieces)


def interval_mul(a: Interval, b: Interval) -> Interval:
    """Exact product image of two finite intervals."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def interval_div(num: Interval, den: Interval):
    """Exact image of {s / t : s in num, t in den, t != 0} as disjoint intervals.

    The image is a single interval when the denominator has constant sign,
    empty when the denominator is the single point 0, and otherwise one or
    two unbounded pieces (the whole line when the numerator reaches through
    zero).
    """
    if den.lo == 0.0 and den.hi == 0.0:
        return ()
    if den.lo > 0.0 or den.hi < 0.0:
        ratios = (num.lo / den.lo, num.lo / den.hi, num.hi / den.lo, num.hi / den.hi)
        return (Interval(min(ratios), max(ratios)),)
    if num.lo == 0.0 and num.hi == 0.0:
        return (Interval(0.0, 0.0),)

    if den.lo == 0.0:                      # t ranges over (0, den.hi]
        if num.lo > 0.0:
            return (Interval(num.lo / den.hi, INF),)
        if num.hi < 0.0:
            return (Interval(-INF, num.hi / den.hi),)
        if num.lo == 0.0:
            return (Interval(0.0, INF),)
        if num.hi == 0.0:
            return (Interval(-INF, 0.0),)
        return (FULL_LINE,)
    if den.hi == 0.0:                      # t ranges over [den.lo, 0)
        if num.lo > 0.0:
            return (Interval(-INF, num.lo / den.lo),)
        if num.hi < 0.0:
            return (Interval(num.hi / den.lo, INF),)
        if num.lo == 0.0:
            return (Interval(-INF, 0.0),)
        if num.hi == 0.0:
            return (Interval(0.0, INF),)
        return (FULL_LINE,)

    # zero strictly interior to the denominator
    if num.lo > 0.0:
        return (Interval(-INF, num.lo / den.lo), Interval(num.lo / den.hi, INF))
    if num.hi < 0.0:
        return (Interval(-INF, num.hi / den.hi), Interval(num.hi / den.lo, INF))
    return (FULL_LINE,)


# ---------------------------------------------------------------------------
# constructors


@dataclass(frozen=True)
class RegionResult:
    """Region plus diagnostics common to all three constructors."""

    region: ConfidenceRegion
    estimate: float | None = None
    stderr: float | None = None
    degenerate: bool = False
    message: str = ""
    components: dict = field(default_factory=dict)


def _full_result(message):
    return RegionResult(region=FULL_REGION, degenerate=True, message=message)


def _nuisances(law: DiscreteLaw, spec: FunctionalSpec, tol: float):
    g = solve_g(law, tol)
    if isinstance(g, NoSolution):
        raise DegenerateSample(
            f"equation for g inconsistent on stratum {g.stratum} "
            f"(residual {g.residual:.3g})"
        )
    alpha = riesz_alpha(law, spec)
    q = solve_q(law, alpha, tol)
    if isinstance(q, NoSolution):
        raise DegenerateSample(
            f"adjoint equation inconsistent on stratum {q.stratum} "
            f"(residual {q.residual:.3g})"
        )
    return g, q


def wald_ci(
    dataset: Dataset,
    spec: FunctionalSpec,
    support: SupportSpec,
    alpha: float,
    s: Interval = FULL_LINE,
    cross_fit: bool = False,
    tol: float = 1e-8,
) -> RegionResult:
    """Plug-in estimate with a normal-quantile interval, clipped to s.

    The estimate is the sample mean of m(O, g) + q(Z,X){Y - g(W,X)} with
    nuisances solved on the empirical law (or on the opposite fold when
    cross_fit is set); the standard error is the sample standard deviation
    of those values over sqrt(n).  Degenerate samples (empty conditioning
    cells, inconsistent empirical systems) return the full range.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("wald_ci needs at least one row")
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        if cross_fit:
            half = n // 2
            idx_a = np.arange(half)
            idx_b = np.arange(half, n)
            values = np.empty(n)
            for fit_idx, eval_idx in ((idx_a, idx_b), (idx_b, idx_a)):
                law = estimate(dataset.subset(fit_idx), support)
                g, q = _nuisances(law, spec, tol)
                values[eval_idx] = psi1_values(
                    dataset.subset(eval_idx), support, spec, g, q, 0.0
                )
        else:
            law = estimate(dataset, support)
            g, q = _nuisances(law, spec, tol)
            values = psi1_values(dataset, support, spec, g, q, 0.0)
    except (DegenerateSample, ZeroConditioningMass, PositivityViolation) as exc:
        return _full_result(str(exc))
    phi_hat = float(values.mean())
    sd = float(values.std(ddof=1)) if n > 1 else 0.0
    half_width = z * sd / math.sqrt(n)
    region = region_from_intervals(
        [Interval(phi_hat - half_width, phi_hat + half_width)], s
    )
    return RegionResult(region=region, estimate=phi_hat, stderr=sd / math.sqrt(n))


def _check_binary(values, name):
    if not np.isin(values, (0, 1)).all():
        raise ValueError(f"{name} must be binary 0/1")


def score_invert_late(
    dataset: Dataset,
    alpha: float,
    s: Interval = FULL_LINE,
) -> RegionResult:
    """Invert the score test for the binary-instrument ratio target.

    The statistic is sqrt(n) times the mean of the estimating function over
    its second-moment norm; the dependence (covariance) factor cancels
    between the two, so the statistic stays well defined at arbitrarily weak
    empirical dependence.  The acceptance region is the solution set of a
    quadratic inequality in theta (the Fieller / Anderson-Rubin form): an
    interval, two rays, the whole line or empty, clipped to s.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("score inversion needs at least one row")
    _check_binary(dataset.z, "z")
    _check_binary(dataset.w, "w")
    if np.any(dataset.x != dataset.x[0]):
        raise ValueError("the ratio target admits no X stratification")
    n1 = int(dataset.z.sum())
    if n1 == 0 or n1 == n:
        return _full_result(f"instrument arm z={int(n1 == 0)} unobserved")

    f_z1 = n1 / n
    c = np.where(dataset.z == 1, 1.0 / f_z1, -1.0 / (1.0 - f_z1))
    a_dev = dataset.y - dataset.y[dataset.z == 1].mean()
    b_dev = dataset.w - dataset.w[dataset.z == 1].mean()
    ca = c * a_dev
    cb = c * b_dev
    mean_a = ca.mean()
    mean_b = cb.mean()

    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    # |T(theta)| <= z  <=>  n (mean_a - theta mean_b)^2 <= z^2 E_n[(c(A - theta B))^2]
    #                  <=>  q_bb theta^2 - 2 q_ab theta + q_aa <= 0.
    # The three coefficients are formed alike: when cA = cB row by row
    # (Y = W) the discriminant is then exactly zero, not a rounding error
    # below it that would lose the accepted point theta = 1.
    q_aa = float(n * mean_a * mean_a - z2 * (ca * ca).mean())
    q_ab = float(n * mean_a * mean_b - z2 * (ca * cb).mean())
    q_bb = float(n * mean_b * mean_b - z2 * (cb * cb).mean())
    pieces = _quadratic_sublevel(q_bb, -2.0 * q_ab, q_aa)
    return RegionResult(region=region_from_intervals(pieces, s))


def _quadratic_sublevel(quad, lin, const):
    """{theta : quad theta^2 + lin theta + const <= 0} as closed intervals."""
    if quad == 0.0:
        if lin == 0.0:
            return [FULL_LINE] if const <= 0.0 else []
        root = -const / lin
        return [Interval(-INF, root)] if lin > 0.0 else [Interval(root, INF)]
    disc = lin * lin - 4.0 * quad * const
    if disc < 0.0:
        return [] if quad > 0.0 else [FULL_LINE]
    # roots as q/quad and const/q: neither subtracts nearly equal numbers
    q = -0.5 * (lin + math.copysign(math.sqrt(disc), lin))
    lo, hi = sorted((q / quad, const / q)) if q != 0.0 else (0.0, 0.0)
    if quad > 0.0:
        return [Interval(lo, hi)]
    return [Interval(-INF, lo), Interval(hi, INF)]


def _mean_with_influence(values):
    est = float(values.mean())
    return est, values - est


def _cond_mean_with_influence(values, mask):
    """Conditional sample mean and its per-row influence values.

    Raises EmptyStratum when the conditioning event is unobserved.
    """
    count = int(mask.sum())
    if count == 0:
        raise EmptyStratum("conditioning stratum unobserved in sample")
    p_hat = count / mask.size
    est = float(values[mask].mean())
    infl = np.where(mask, values - est, 0.0) / p_hat
    return est, infl


def _wald_component(est, infl, alpha):
    n = infl.size
    z = normal_quantile(1.0 - alpha / 2.0)
    se = math.sqrt(float((infl * infl).mean()) / max(n - 1, 1))
    return Interval(est - z * se, est + z * se)


def binary_union_estimand(law: DiscreteLaw) -> float:
    """Exact value of the target the union-bound set covers, from law moments.

    With binary X the target is the counterfactual mean contrast written as
    ratio-times-offset plus a conditional mean; without X it reduces to the
    plain ratio of conditional-mean differences.
    """
    support = law.support
    mass = law.mass
    ybar = support.y_cell_means

    def cond_mean(values_by_h, z_cell, x_cells):
        sub = mass[:, z_cell, :, :][:, :, x_cells].sum(axis=(1, 2))
        total = sub.sum()
        if total <= 0:
            raise ZeroConditioningMass((z_cell, tuple(x_cells)))
        return float(values_by_h @ sub / total)

    def cond_mean_w(z_cell, x_cells):
        sub = mass[:, z_cell, :, :][:, :, x_cells].sum(axis=(0, 2))
        total = sub.sum()
        if total <= 0:
            raise ZeroConditioningMass((z_cell, tuple(x_cells)))
        w_values = np.arange(support.k_w, dtype=float)
        return float(w_values @ sub / total)

    if support.k_x == 1:
        x_cells = [0]
        nu = cond_mean(ybar, 1, x_cells) - cond_mean(ybar, 0, x_cells)
        de = cond_mean_w(1, x_cells) - cond_mean_w(0, x_cells)
        return nu / de

    x_cells = [1]
    nu = cond_mean(ybar, 1, x_cells) - cond_mean(ybar, 0, x_cells)
    de = cond_mean_w(1, x_cells) - cond_mean_w(0, x_cells)
    mass_w = marginal(law, ("W",))
    e_w = float(np.arange(support.k_w) @ mass_w)
    return nu / de * (e_w - cond_mean_w(1, x_cells)) + cond_mean(ybar, 1, x_cells)


def binary_union_set(
    dataset: Dataset,
    alpha: float,
    s: Interval,
    variant: str = "paper",
) -> RegionResult:
    """Union-bound set: component Wald intervals combined by interval arithmetic.

    With binary X (the counterfactual-mean target) the components are the
    denominator contrast, the numerator-times-weight product, and the offset
    conditional mean, each at level 1 - alpha/3; variant "split_w" instead
    builds four components at 1 - alpha/4, keeping the numerator contrast
    and the weight separate.  Without X the target is the plain ratio and
    the two components get alpha/2 each.  When the denominator interval
    straddles zero strictly and the numerator is not identically zero the
    set is the whole range.
    """
    if variant not in ("paper", "split_w"):
        raise ValueError(f"unknown grouping variant {variant!r}")
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("union set needs at least one row")
    _check_binary(dataset.z, "z")
    _check_binary(dataset.w, "w")
    y = dataset.y
    w = dataset.w.astype(float)
    z = dataset.z

    has_x = bool(np.any(dataset.x != dataset.x[0]))
    try:
        if not has_x:
            level = alpha / 2.0
            de_est, de_infl = _cond_pair_contrast(w, z, np.ones(n, dtype=bool))
            nu_est, nu_infl = _cond_pair_contrast(y, z, np.ones(n, dtype=bool))
            b_de = _wald_component(de_est, de_infl, level)
            b_num = _wald_component(nu_est, nu_infl, level)
            offset = Interval(0.0, 0.0)
            components = {"de": b_de, "num": b_num}
        else:
            _check_binary(dataset.x, "x")
            x1 = dataset.x == 1
            de_est, de_infl = _cond_pair_contrast(w, z, x1)
            nu_est, nu_infl = _cond_pair_contrast(y, z, x1)
            ew_est, ew_infl = _mean_with_influence(w)
            w11_est, w11_infl = _cond_mean_with_influence(w, (z == 1) & x1)
            y11_est, y11_infl = _cond_mean_with_influence(y, (z == 1) & x1)
            diff_est = ew_est - w11_est
            diff_infl = ew_infl - w11_infl
            if variant == "paper":
                level = alpha / 3.0
                gw_est = nu_est * diff_est
                gw_infl = diff_est * nu_infl + nu_est * diff_infl
                b_de = _wald_component(de_est, de_infl, level)
                b_num = _wald_component(gw_est, gw_infl, level)
                offset = _wald_component(y11_est, y11_infl, level)
                components = {"de": b_de, "num": b_num, "offset": offset}
            else:
                level = alpha / 4.0
                b_de = _wald_component(de_est, de_infl, level)
                b_nu = _wald_component(nu_est, nu_infl, level)
                b_diff = _wald_component(diff_est, diff_infl, level)
                offset = _wald_component(y11_est, y11_infl, level)
                b_num = interval_mul(b_nu, b_diff)
                components = {
                    "de": b_de, "nu": b_nu, "diff": b_diff, "offset": offset,
                }
    except EmptyStratum as exc:
        return _full_result(str(exc))

    if b_de.lo < 0.0 < b_de.hi and not (b_num.lo == 0.0 == b_num.hi):
        return RegionResult(
            region=FULL_REGION, components=components,
            message="denominator interval straddles zero",
        )
    pieces = interval_div(b_num, b_de)
    if not pieces:
        return _full_result("denominator interval degenerate at zero")
    region = region_from_intervals(interval_add(pieces, offset), s)
    return RegionResult(region=region, components=components)


def _cond_pair_contrast(values, z, stratum_mask):
    """Estimate and influence of E(V | Z=1, stratum) - E(V | Z=0, stratum)."""
    est1, infl1 = _cond_mean_with_influence(values, (z == 1) & stratum_mask)
    est0, infl0 = _cond_mean_with_influence(values, (z == 0) & stratum_mask)
    return est1 - est0, infl1 - infl0
