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
through its empirical law: the counts divided by n once (per cross-fit
fold), after which everything is a mass-weighted sum over the (Y, Z, W, X)
cells; the score set works on the integer counts themselves.  Wald also
takes the counts of a stack of R samples, (R, 2, k_y, k_z, k_w, k_x), and
evaluates them with leading batch axes throughout (one batched SVD per
equation for the whole stack); one sample is the R = 1 case.  The score
set needs binary Z and W and no X (k_x = 1); the union set needs binary Z
and W and takes its target from k_x: the ratio when k_x = 1, the X = 1 arm
when k_x = 2.

Regions are finite unions of closed intervals, the full parameter range,
or empty.  Degenerate-sample failures conservatively return the full range
and say why in ``reason``.
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
    _adjoint_rows,
    _cond_mean_rows,
    _representer,
    _response_rows,
    _solve_strata,
    psi1_values,
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

    The denominator splits into its negative part [lo, -0] and its positive
    part [+0, hi]; t has constant sign on each, so each maps onto the hull of
    its four endpoint quotients, where s / ±0 is ±inf (0 when s is 0).  The
    image is empty when the denominator is the single point 0.
    """
    parts = []
    if den.lo < 0.0:
        parts.append((den.lo, den.hi if den.hi < 0.0 else -0.0))
    if den.hi > 0.0:
        parts.append((den.lo if den.lo > 0.0 else 0.0, den.hi))
    pieces = []
    for a, b in parts:
        quotients = [_quotient(s, t) for s in (num.lo, num.hi) for t in (a, b)]
        pieces.append(Interval(min(quotients), max(quotients)))
    return tuple(_merge(pieces))


def _quotient(s, t):
    if t != 0.0:
        return s / t
    return 0.0 if s == 0.0 else math.copysign(INF, s) * math.copysign(1.0, t)


# ---------------------------------------------------------------------------
# constructors


@dataclass(frozen=True)
class RegionResult:
    """Region plus diagnostics common to all three constructors.

    A degenerate result carries the full range and, in ``reason``, why it
    degenerated: the name of the error class, or ``empty_fold`` for a
    cross-fitting fold without draws.
    """

    region: ConfidenceRegion
    estimate: float | None = None
    stderr: float | None = None
    message: str = ""
    components: dict = field(default_factory=dict)
    reason: str = ""

    @property
    def degenerate(self) -> bool:
        return bool(self.reason)


def _full_result(message, reason=DegenerateSample.__name__):
    return RegionResult(region=FULL_REGION, message=message, reason=reason)


def require_binary_support(support: SupportSpec, max_k_x: int, what: str):
    """Raise ValueError unless Z and W are binary and X has at most max_k_x cells."""
    if support.k_z != 2 or support.k_x > max_k_x:
        x_need = "k_x = 1" if max_k_x == 1 else f"k_x <= {max_k_x}"
        raise ValueError(
            f"{what} needs k_z = k_w = 2 and {x_need}; got k_z = k_w = "
            f"{support.k_z}, k_x = {support.k_x}"
        )


# Why a Wald replication degenerated, by index; 0 is a regular replication.
WALD_REASONS = ("", "empty_fold", ZeroConditioningMass.__name__,
                PositivityViolation.__name__, DegenerateSample.__name__)
_EMPTY_FOLD, _ZERO_MASS, _POSITIVITY, _INCONSISTENT = 1, 2, 3, 4
_WALD_MESSAGES = (
    "",
    "a cross-fitting fold is empty",
    "zero probability on a conditioning cell of the fitted law",
    "zero density in a representer denominator of the fitted law",
    "an empirical equation is inconsistent on some stratum",
)

# region kinds of WaldArrays, by index
_EMPTY, _UNION, _FULL = 0, 1, 2


@dataclass(frozen=True)
class WaldArrays:
    """Wald regions of a stack of replications, entry r for replication r.

    ``kind`` is 0 for an empty region, 1 for the one interval [lo, hi]
    (already clipped to ``s``) and 2 for the full range; ``reason`` indexes
    :data:`WALD_REASONS`, and a degenerate entry (reason nonzero) has the
    full range and NaN in every float array.
    """

    s: Interval
    estimate: np.ndarray
    stderr: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    kind: np.ndarray
    reason: np.ndarray

    @property
    def degenerate(self) -> bool:
        """Whether some replication of the stack degenerated."""
        return bool(self.reason.any())

    def is_full(self) -> np.ndarray:
        return self.kind == _FULL

    def contains(self, value: float) -> np.ndarray:
        inside = (self.lo <= value) & (value <= self.hi)
        return (self.kind == _FULL) | ((self.kind == _UNION) & inside)

    def diameters(self) -> np.ndarray:
        """:func:`diameter` of every region."""
        return np.where(self.kind == _FULL, self.s.hi - self.s.lo,
                        np.where(self.kind == _UNION, self.hi - self.lo, 0.0))

    def result(self, r: int) -> RegionResult:
        """The RegionResult of replication r."""
        if self.reason[r]:
            return _full_result(_WALD_MESSAGES[self.reason[r]],
                                WALD_REASONS[self.reason[r]])
        if self.kind[r] == _EMPTY:
            region = EMPTY_REGION
        else:
            region = region_from_intervals(
                [Interval(float(self.lo[r]), float(self.hi[r]))], self.s
            )
        return RegionResult(region=region, estimate=float(self.estimate[r]),
                            stderr=float(self.stderr[r]))


def wald_ci(
    dataset: Dataset | np.ndarray,
    spec: FunctionalSpec,
    support: SupportSpec,
    alpha: float,
    s: Interval = FULL_LINE,
    cross_fit: bool = False,
    tol: float = 1e-8,
) -> RegionResult | WaldArrays:
    """Plug-in estimate with a normal-quantile interval, clipped to s.

    The estimate is the sample mean of m(O, g) + q(Z,X){Y - g(W,X)} with
    nuisances solved on the empirical law (or, when cross_fit is set, on the
    empirical law of the opposite fold of the sample); the standard error is
    the sample standard deviation of those values over sqrt(n).  Both are
    mass-weighted sums over the cells.

    ``dataset`` is one sample (a :class:`~weakdep.laws.Dataset`), for which
    the result is a RegionResult, or the counts of a stack of R samples,
    shape (R, 2, k_y, k_z, k_w, k_x), for which it is a :class:`WaldArrays`.
    Both go through the same arithmetic: every stratum system of every
    replication and fold is solved by one batched SVD for g and one for q.
    Degenerate samples (empty conditioning cells, inconsistent empirical
    systems, vanishing representer densities, an empty cross-fitting fold)
    get the full range and a reason, never an exception; an empty single
    sample raises EmptyDataset.
    """
    if isinstance(dataset, Dataset):
        if len(dataset) == 0:
            raise EmptyDataset("cannot build an interval from an empty sample")
        return _wald_arrays(dataset.counts[None], spec, support, alpha, s,
                            cross_fit, tol).result(0)
    return _wald_arrays(np.asarray(dataset), spec, support, alpha, s,
                        cross_fit, tol)


def _wald_arrays(counts, spec, support, alpha, s, cross_fit, tol) -> WaldArrays:
    spec.validate_against(support)
    if counts.ndim != 6 or counts.shape[1:] != (2,) + support.shape:
        raise ValueError(
            f"counts must have shape (R, 2) + {support.shape}, got {counts.shape}"
        )
    z = normal_quantile(1.0 - alpha / 2.0)
    cells = (None,) * 4                                 # broadcast over the cells
    fold_n = counts.sum(axis=(-4, -3, -2, -1))          # (R, 2)
    n = fold_n.sum(axis=-1)                             # (R,)
    if cross_fit:
        # fold f fits the nuisances and fold 1 - f weighs their values
        fits = counts / np.maximum(fold_n, 1)[(...,) + cells]
        share = fold_n[:, [1, 0]] / np.maximum(n, 1)[:, None]
        weights = fits[:, [1, 0]] * share[(...,) + cells]
        empty_fold = (fold_n == 0).any(axis=-1)
    else:
        fits = (counts.sum(axis=1) / np.maximum(n, 1)[(...,) + cells])[:, None]
        weights = fits
        empty_fold = np.zeros(n.shape, dtype=bool)

    lhs, empty_g = _cond_mean_rows(fits)
    rhs, _ = _response_rows(fits, support.y_cell_means)   # same (Z, X) rows
    g, _, g_ok, _ = _solve_strata(lhs, rhs, tol)
    alpha_wx, positivity = _representer(spec, support, fits.sum(axis=(-4, -3)))
    adj, empty_q = _adjoint_rows(fits)
    q, _, q_ok, _ = _solve_strata(adj, alpha_wx.swapaxes(-1, -2), tol)

    # first failure of each (replication, fold), in the order a serial
    # solve meets them: g's conditioning cells, g's consistency, the
    # representer, q's conditioning cells, q's consistency
    failure = np.select(
        [empty_g.any(axis=(-2, -1)), ~g_ok.all(axis=-1),
         positivity.any(axis=(-2, -1)), empty_q.any(axis=(-2, -1)),
         ~q_ok.all(axis=-1)],
        [_ZERO_MASS, _INCONSISTENT, _POSITIVITY, _ZERO_MASS, _INCONSISTENT],
        default=0,
    )
    reason = np.where(failure[:, 0] > 0, failure[:, 0], failure[:, -1])
    reason = np.where(empty_fold, _EMPTY_FOLD, reason)

    def total(terms):
        # each fold's cells summed as one contiguous run, the order in which
        # numpy sums one replication's cell array, then the folds
        return terms.reshape(terms.shape[:2] + (-1,)).sum(axis=-1).sum(axis=-1)

    values = psi1_values(support, spec, g.swapaxes(-1, -2), q.swapaxes(-1, -2))
    phi_hat = total(weights * values)
    ss = total(weights * (values - phi_hat[(..., None) + cells]) ** 2)
    sd = np.sqrt(np.divide(ss * n, n - 1, out=np.zeros_like(ss), where=n > 1))
    root_n = np.sqrt(np.maximum(n, 1))
    half_width = z * sd / root_n
    bad = reason > 0
    lo = np.where(bad, np.nan, np.maximum(phi_hat - half_width, s.lo))
    hi = np.where(bad, np.nan, np.minimum(phi_hat + half_width, s.hi))
    full = bad | ((lo <= s.lo) & (hi >= s.hi))
    return WaldArrays(
        s=s,
        estimate=np.where(bad, np.nan, phi_hat),
        stderr=np.where(bad, np.nan, sd / root_n),
        lo=lo,
        hi=hi,
        kind=np.where(full, _FULL, np.where(lo > hi, _EMPTY, _UNION)),
        reason=reason,
    )


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
    if dataset.counts.shape[1:] != support.shape:
        raise ValueError(
            f"counts shape {dataset.counts.shape[1:]} does not match "
            f"support shape {support.shape}"
        )
    counts = dataset.counts.sum(axis=0)[..., 0]         # (k_y, 2, 2) integers
    if not counts.any():
        raise EmptyDataset("cannot invert the score test on an empty sample")
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
        return _full_result(str(exc), type(exc).__name__)
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
