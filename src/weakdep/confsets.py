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

Each constructor reads a sample, which is its per-fold cell counts, only
through its empirical law: :func:`~weakdep.laws.estimate` divides the
counts by n once (per cross-fit fold), and everything after that is a
mass-weighted sum over the (Y, Z, W, X) cells.  The score set needs
binary Z and W and no X (k_x = 1); the union set needs binary Z and W
and takes its target from k_x: the ratio when k_x = 1, the X = 1 arm
when k_x = 2.

Regions are finite unions of closed intervals, the full parameter range,
or empty.  Degenerate-sample failures conservatively return the full range.
The one special function all three need, the normal quantile, is the
standard library's.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyDataset,
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
from .laws import Dataset, DiscreteLaw, SupportSpec, estimate

INF = float("inf")


# ---------------------------------------------------------------------------
# normal quantile

_STANDARD_NORMAL = statistics.NormalDist()


def normal_quantile(p: float) -> float:
    """Standard normal quantile function on (0, 1).

    The standard library's :class:`statistics.NormalDist` (Wichura's AS 241)
    does the work; the guard also rejects NaN, which ``inv_cdf`` would pass
    through.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1); got {p}")
    return _STANDARD_NORMAL.inv_cdf(p)


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


def require_binary_support(support: SupportSpec, max_k_x: int, what: str):
    """Raise ValueError unless Z and W are binary and X has at most max_k_x cells."""
    if support.k_z != 2 or support.k_x > max_k_x:
        x_need = "k_x = 1" if max_k_x == 1 else f"k_x <= {max_k_x}"
        raise ValueError(
            f"{what} needs k_z = k_w = 2 and {x_need}; got k_z = k_w = "
            f"{support.k_z}, k_x = {support.k_x}"
        )


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
    nuisances solved on the empirical law (or, when cross_fit is set, on the
    empirical law of the opposite fold of the sample); the standard error is
    the sample standard deviation of those values over sqrt(n).  Both are
    mass-weighted sums over the cells.  Degenerate samples (empty
    conditioning cells, inconsistent empirical systems, an empty
    cross-fitting fold) return the full range; an empty sample raises
    EmptyDataset.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot build an interval from an empty sample")
    z = normal_quantile(1.0 - alpha / 2.0)
    try:
        if cross_fit:
            part_a, part_b = dataset.fold(0), dataset.fold(1)
            if len(part_a) == 0 or len(part_b) == 0:
                return _full_result("a cross-fitting fold is empty")
            fold_a = estimate(part_a, support)
            fold_b = estimate(part_b, support)
            folds = ((fold_a, fold_b, len(part_b) / n),
                     (fold_b, fold_a, len(part_a) / n))
        else:
            law = estimate(dataset, support)
            folds = ((law, law, 1.0),)
        parts = []
        for fit, held_out, share in folds:
            g, q = _nuisances(fit, spec, tol)
            parts.append((held_out.mass * share, psi1_values(support, spec, g, q)))
    except (DegenerateSample, ZeroConditioningMass, PositivityViolation) as exc:
        return _full_result(str(exc))
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


def score_invert_late(
    dataset: Dataset,
    support: SupportSpec,
    alpha: float,
    s: Interval = FULL_LINE,
) -> RegionResult:
    """Invert the score test for the binary-instrument ratio target.

    The statistic is sqrt(n) times the mean of the estimating function over
    its second-moment norm; the dependence (covariance) factor cancels
    between the two, so the statistic stays well defined at arbitrarily weak
    empirical dependence.  The acceptance region is the solution set of a
    quadratic inequality in theta (the Fieller / Anderson-Rubin form): an
    interval, two rays, the whole line or empty, clipped to s.  Its
    coefficients are moments of the cell counts.
    """
    require_binary_support(support, 1, "score inversion")
    # cell counts (k_y, 2, 2), as exact integers
    counts = np.rint(estimate(dataset, support).mass[..., 0] * len(dataset))
    n0, n1 = counts.sum(axis=(0, 2))
    if n1 == 0 or n0 == 0:
        return _full_result(f"instrument arm z={int(n1 == 0)} unobserved")

    # Per row, the estimating function is c(Z) (A - theta B) with A and B
    # centred by their Z=1 means.  Scaled by a positive constant, c is
    # (-n1, n0) and A, B are centred on the n1 scale: n1 Y - sum_{Z=1} Y.
    # With integer cell values these are exact integers, so data with
    # Y = W or Y = 1 - W give cA = +-cB exactly and a discriminant of
    # exactly zero, keeping the single accepted point.
    y = support.y_cell_means
    w = np.arange(2.0)
    a = n1 * y - counts[:, 1].sum(axis=1) @ y
    b = n1 * w - counts[:, 1].sum(axis=0) @ w
    c = np.array([-n1, n0])
    ca = c[None, :, None] * a[:, None, None]
    cb = c[None, :, None] * b[None, None, :]
    sum_a = float((counts * ca).sum())
    sum_b = float((counts * cb).sum())

    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    # |T(theta)| <= z  <=>  (sum cA - theta sum cB)^2 <= z^2 sum (c(A - theta B))^2
    #                  <=>  q_bb theta^2 - 2 q_ab theta + q_aa <= 0.
    q_aa = sum_a * sum_a - z2 * float((counts * ca * ca).sum())
    q_ab = sum_a * sum_b - z2 * float((counts * ca * cb).sum())
    q_bb = sum_b * sum_b - z2 * float((counts * cb * cb).sum())
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


def _cond_mean(mass, values, event):
    """E[V | event] and its influence values per cell.

    ``event`` is a boolean mask over the cells; raises ZeroConditioningMass
    naming its (Z, X) cell when the event has no mass.
    """
    p = float((mass * event).sum())
    if p <= 0.0:
        _, l, _, m = np.argwhere(event)[0]
        raise ZeroConditioningMass((int(l), int(m)))
    est = float((mass * event * values).sum()) / p
    return est, np.where(event, values - est, 0.0) / p


def _union_components(mass: np.ndarray, support: SupportSpec) -> dict:
    """Estimates of the union-bound components with their influence values.

    Maps each component name to (estimate, influence values per cell) under
    the cell mass ``mass``.  Without X ("de", "num") are the Z contrasts of
    the conditional means of W and Y.  With binary X these contrasts are
    taken on X = 1, "num" becomes the Y contrast times E[W] - E[W|Z=1,X=1],
    and "offset" is E[Y|Z=1,X=1].
    """
    y = support.y_cell_means.reshape(-1, 1, 1, 1)
    w = np.arange(support.k_w, dtype=float).reshape(1, 1, -1, 1)
    z = np.arange(support.k_z).reshape(1, -1, 1, 1)
    arm = np.arange(support.k_x).reshape(1, 1, 1, -1) == support.k_x - 1

    def contrast(values):
        est1, infl1 = _cond_mean(mass, values, (z == 1) & arm)
        est0, infl0 = _cond_mean(mass, values, (z == 0) & arm)
        return est1 - est0, infl1 - infl0

    de = contrast(w)
    nu_est, nu_infl = contrast(y)
    if support.k_x == 1:
        return {"de": de, "num": (nu_est, nu_infl)}
    ew_est = float((mass * w).sum())
    w11_est, w11_infl = _cond_mean(mass, w, (z == 1) & arm)
    diff_est = ew_est - w11_est
    diff_infl = (w - ew_est) - w11_infl
    return {
        "de": de,
        "num": (nu_est * diff_est, diff_est * nu_infl + nu_est * diff_infl),
        "offset": _cond_mean(mass, y, (z == 1) & arm),
    }


def _wald_component(est, infl, mass, n, alpha):
    z = normal_quantile(1.0 - alpha / 2.0)
    se = math.sqrt(float((mass * infl * infl).sum()) / max(n - 1, 1))
    return Interval(est - z * se, est + z * se)


def binary_union_estimand(law: DiscreteLaw) -> float:
    """Exact value of the target the union-bound set covers, from law moments.

    With binary X the target is the counterfactual mean contrast written as
    ratio-times-offset plus a conditional mean; without X it reduces to the
    plain ratio of conditional-mean differences.
    """
    require_binary_support(law.support, 2, "the union target")
    parts = _union_components(law.mass, law.support)
    offset = parts["offset"][0] if "offset" in parts else 0.0
    return parts["num"][0] / parts["de"][0] + offset


def binary_union_set(
    dataset: Dataset,
    support: SupportSpec,
    alpha: float,
    s: Interval,
) -> RegionResult:
    """Union-bound set: component Wald intervals combined by interval arithmetic.

    The support decides the target.  Without X (k_x = 1) it is the plain
    ratio and the denominator and numerator components get alpha/2 each.
    With binary X (k_x = 2) it is the counterfactual mean of the X = 1 arm:
    the denominator contrast, the numerator-times-weight product and the
    offset conditional mean each get alpha/3.  When the denominator
    interval straddles zero strictly and the numerator is not identically
    zero the set is the whole range.
    """
    require_binary_support(support, 2, "the union set")
    n = len(dataset)
    law = estimate(dataset, support)
    try:
        parts = _union_components(law.mass, support)
    except ZeroConditioningMass as exc:
        return _full_result(str(exc))
    level = alpha / len(parts)
    components = {
        name: _wald_component(est, infl, law.mass, n, level)
        for name, (est, infl) in parts.items()
    }
    b_de, b_num = components["de"], components["num"]
    offset = components.get("offset", Interval(0.0, 0.0))

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
