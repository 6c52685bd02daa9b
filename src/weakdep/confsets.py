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

Every constructor takes the per-fold cell counts of a stack of R samples,
(R, 2, k_y, k_z, k_w, k_x), one sample being the stack of one (and R = 0
the empty stack, whose result has no rows), and evaluates them in one pass
with a leading replication axis throughout.
The counts are checked by :func:`~weakdep.laws.check_counts`.  Wald and
the union set read a sample only through its empirical masses, from
:func:`~weakdep.laws.estimate` (per cross-fit fold for Wald), after which
everything is a mass-weighted sum over the (Y, Z, W, X) cells; the score
set works on the integer counts themselves.  The score and union sets read
the counts as contiguous (R, 2, n_cells) rows, each cell coordinate they
need (Y cell mean, Z value, W value, the X = k_x - 1 flag) being one flat
vector over the cells.  Wald solves g's systems and q's adjoint systems,
all square, in one stacked call (closed-form rotations for 2x2 strata,
batched SVD otherwise; :func:`~weakdep.functionals._nuisances`, the
membership check's solve too), the score set is a quadratic sublevel set per
replication, and the union set does its interval arithmetic elementwise.
The result is a :class:`RegionArrays` of P pieces per replication, P being
1 or 2: Wald gives one piece, and the score set (an interval or two rays)
and the union set (a quotient of intervals plus an offset) at most two.
Every replication's cells are summed as row sums over the last axis
(``.sum(axis=-1)``), which numpy sums row by row whatever the number of
rows.  An axis of 2 to 7 entries (a marginal's Y or Z cells, the folds,
the pieces of a region) is summed by slice adds in numpy's own order
(:func:`~weakdep.laws._reduce_short`), which gives ``ndarray.sum``'s bits
without a reduction's fixed cost; a longer axis, such as the flat cell
run, by ``ndarray.sum``.  Cells are never summed by a matmul over the
replication axis: BLAS may round a row of that product differently
depending on how many rows the stack has.  (The one such product left,
the score set's Z = 1 count of W = 1, sums integers, which is exact in
any order.)  So a sample gives the same bits alone and in a stack, on
every support.  The score set needs
binary Z and W and no X (k_x = 1); the union set needs binary Z and W and
takes its target from k_x: the ratio when k_x = 1, the X = 1 arm when
k_x = 2.

A region is its pieces: a finite union of disjoint closed intervals
inside s, possibly none.  The full range is the one piece s, which every
degenerate sample, empty ones included, conservatively gets, with a
reason (an index into :data:`REASONS`), never an exception.
The one special function all three need, the normal quantile, is the
standard library's.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSample, PositivityViolation, ZeroConditioningMass
from .functionals import DEFAULT_TOL, FunctionalSpec, _nuisances, psi1_values
from .laws import (DiscreteLaw, SupportSpec, _reduce_short, check_counts, computed_once,
                   estimate)

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


FULL_LINE = Interval(-INF, INF)


# ---------------------------------------------------------------------------
# exact interval arithmetic, elementwise
#
# A batch holds P pieces per entry, P being 1 or 2: arrays lo and hi of
# shape (R, P), NaN marking an absent piece.  Each comparison mirrors the
# scalar form it stands for (Python's min, max and sorted keep the first of
# equal values), so the endpoints, signed zeros included, are the scalar ones.


def _first_min(a, b):
    """min(a, b) as Python takes it: a unless b is smaller."""
    return np.where(b < a, b, a)


def _first_max(a, b):
    return np.where(b > a, b, a)


def _merge_pieces(lo, hi):
    """Sort and merge the one or two pieces of every entry.

    Two pieces are put in the stable (lo, hi) order, absent one last, by one
    compare-and-swap, and joined when the second starts at or before the
    first's end, the joined piece ending at the later of the two ends.
    """
    if lo.shape[1] == 1:
        return lo, hi
    (lo0, lo1), (hi0, hi1) = lo.T, hi.T
    swap = (lo1 < lo0) | ((lo1 == lo0) & (hi1 < hi0)) | (np.isnan(lo0) & ~np.isnan(lo1))
    lo0, lo1, hi0, hi1 = np.where(swap, [lo1, lo0, hi1, hi0], [lo0, lo1, hi0, hi1])
    join = lo1 <= hi0                                   # False where absent
    return (np.array([lo0, np.where(join, np.nan, lo1)]).T,
            np.array([np.where(join, _first_max(hi0, hi1), hi0),
                      np.where(join, np.nan, hi1)]).T)


def _quotient(s, t, spread):
    """s / t elementwise, where s / ±0 is ±inf (0 when s is 0).  ±inf / ±inf
    has no value: it is the zero that the finite s next to it give where
    ``spread`` (s's interval holds more than one point), else NaN."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.divide(s, t)
    sign = np.copysign(1.0, s) * np.copysign(1.0, t)
    ratio = np.where(spread & np.isinf(s) & np.isinf(t), 0.0 * sign, ratio)
    return np.where(t != 0.0, ratio, np.where(s == 0.0, 0.0, INF * sign))


def _divide(num_lo, num_hi, den_lo, den_hi):
    """Exact image of {s / t : s in num, t in den, t != 0} of every entry,
    as unmerged pieces arrays: the negative part's image, then the positive
    part's.

    The denominator splits into its negative part [lo, -0] and its positive
    part [+0, hi]; t has constant sign on each, so each maps onto the hull of
    its four endpoint quotients (:func:`_quotient`).  An infinite s over an
    infinite t has no value; the finite s next to it give a zero, which
    stands in for it, and without such s it is left out.  A part is absent
    when it has no quotients, so the image is empty when the denominator is
    the single point 0.
    """
    # the two signed parts, on the leading axis
    a = np.array([den_lo, np.where(den_lo > 0.0, den_lo, 0.0)])
    b = np.array([np.where(den_hi < 0.0, den_hi, -0.0), den_hi])
    # each part's four endpoint quotients, in the order the scalar form takes
    # them, hulled from the empty hull, which a NaN never enters
    quotients = _quotient(np.array([num_lo, num_lo, num_hi, num_hi])[:, None],
                          np.array([a, b, a, b]), num_lo < num_hi)
    lo, hi = INF, -INF
    for q in quotients:
        lo, hi = _first_min(lo, q), _first_max(hi, q)
    present = np.array([den_lo < 0.0, den_hi > 0.0]) & (lo <= hi)
    return np.where(present, lo, np.nan).T, np.where(present, hi, np.nan).T


def _quadratic_sublevel(quad, lin, const):
    """{theta : quad theta^2 + lin theta + const <= 0} of every entry, as
    pieces arrays: empty, one interval, two rays or the whole line."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = -const / lin
        disc = lin * lin - 4.0 * quad * const
        # roots as q/quad and const/q: neither subtracts nearly equal numbers
        q = -0.5 * (lin + np.copysign(np.sqrt(disc), lin))
        r1, r2 = q / quad, const / q
    small = np.where(q != 0.0, _first_min(r1, r2), 0.0)      # sorted((r1, r2))
    large = np.where(q != 0.0, np.where(r2 < r1, r1, r2), 0.0)
    # the set's shape: 0 empty, 1 the line, 2 (-inf, root], 3 [root, inf),
    # 4 [small, large], 5 (-inf, small] and [large, inf)
    shape = np.where(
        quad == 0.0,
        np.where(lin == 0.0, np.where(const <= 0.0, 1, 0), np.where(lin > 0.0, 2, 3)),
        np.where(disc < 0.0, np.where(quad > 0.0, 0, 1), np.where(quad > 0.0, 4, 5)),
    )
    none = np.full(np.shape(quad), np.nan)
    two_rays = shape == 5
    lo = np.choose(shape, [none, -INF, -INF, root, small, -INF])
    hi = np.choose(shape, [none, INF, root, INF, large, small])
    return (np.array([lo, np.where(two_rays, large, none)]).T,
            np.array([hi, np.where(two_rays, INF, none)]).T)


# ---------------------------------------------------------------------------
# constructors


def require_binary_support(support: SupportSpec, max_k_x: int, what: str):
    """Raise ValueError unless Z and W are binary and X has at most max_k_x cells."""
    if support.k_z != 2 or support.k_x > max_k_x:
        x_need = "k_x = 1" if max_k_x == 1 else f"k_x <= {max_k_x}"
        raise ValueError(
            f"{what} needs k_z = k_w = 2 and {x_need}; got k_z = k_w = "
            f"{support.k_z}, k_x = {support.k_x}"
        )


# Why a replication degenerated, by index; 0 is a regular replication.
REASONS = ("", "empty_fold", ZeroConditioningMass.__name__,
           PositivityViolation.__name__, DegenerateSample.__name__)
_EMPTY_FOLD, _ZERO_MASS, _POSITIVITY, _DEGENERATE = 1, 2, 3, 4

@dataclass(frozen=True)
class RegionArrays:
    """Regions of a stack of replications, entry r for replication r.

    Region r is the union of its pieces [lo[r, i], hi[r, i]]; lo and hi
    have shape (R, P), P being 1 or 2, and the pieces (NaN where absent,
    after the present ones) lie in ``s``, sorted and disjoint.
    A region without pieces is empty, and the full range is the one piece
    ``(s.lo, s.hi)``.  ``reason`` indexes :data:`REASONS`, the one record
    of why an entry degenerated, and a degenerate entry (reason nonzero) has
    the full range.  Wald also gives its ``estimate`` and ``stderr`` (NaN
    where degenerate), and the union set its component intervals, name ->
    (lo, hi) arrays.
    """

    s: Interval
    lo: np.ndarray
    hi: np.ndarray
    reason: np.ndarray
    estimate: np.ndarray | None = None
    stderr: np.ndarray | None = None
    components: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        """Whether some replication of the stack degenerated."""
        return bool(self.reason.any())

    def is_full(self) -> np.ndarray:
        """Whether each region's first piece covers s."""
        return (self.lo[:, 0] <= self.s.lo) & (self.hi[:, 0] >= self.s.hi)

    def contains(self, value) -> np.ndarray:
        """Whether some piece of each region holds ``value``: a scalar for
        every row, or an (R,) vector, row r's value for region r."""
        value = np.asarray(value)[..., None]
        return _reduce_short(np.logical_or, (self.lo <= value) & (value <= self.hi), -1)

    def diameters(self) -> np.ndarray:
        """sup minus inf of every region: its last (largest) piece end minus
        its first piece start, 0 without pieces."""
        with np.errstate(invalid="ignore"):         # inf - inf on an infinite s
            spans = np.fmax(self.hi[:, 0], self.hi[:, -1]) - self.lo[:, 0]
        return np.where(np.isnan(self.lo[:, 0]), 0.0, spans)


def _region_arrays(lo, hi, s, reason, **fields) -> RegionArrays:
    """RegionArrays of raw pieces, shape (R, P): each clipped to s, then
    merged; a degenerate entry, or one whose first piece covers s, gets the
    one piece s."""
    lo = _first_max(lo, s.lo)
    hi = _first_min(hi, s.hi)
    keep = lo <= hi
    lo, hi = _merge_pieces(np.where(keep, lo, np.nan), np.where(keep, hi, np.nan))
    full = ((reason > 0) | ((lo[:, 0] <= s.lo) & (hi[:, 0] >= s.hi)))[:, None]
    absent = [np.nan] * (lo.shape[1] - 1)
    return RegionArrays(s=s, lo=np.where(full, [s.lo, *absent], lo),
                        hi=np.where(full, [s.hi, *absent], hi), reason=reason,
                        **fields)


def interval_arrays(lo, hi, s: Interval) -> RegionArrays:
    """The region [lo[r], hi[r]] of each replication r, from (R,) arrays."""
    return _region_arrays(lo[:, None], hi[:, None], s, np.zeros(len(lo), dtype=np.int64))


def _check_counts(counts, support):
    """The checked int64 counts of a stack of samples, shape (R, 2) plus the
    support's."""
    counts = check_counts(counts, support)
    if counts.ndim != 6 or counts.shape[1] != 2:
        raise ValueError(
            f"counts must have shape (R, 2) + {support.shape}, got {counts.shape}"
        )
    return counts


def _pooled_rows(counts, support):
    """The checked counts of a stack with both folds pooled, as contiguous
    (R, n_cells) rows in the cells' (Y, Z, W, X) order."""
    counts = _check_counts(counts, support)
    rows = counts.reshape(len(counts), 2, support.n_cells)
    return rows[:, 0] + rows[:, 1]


@computed_once
def _coordinates(support):
    """Each cell's Y cell mean, Z value and W value, as flat (n_cells,)
    vectors in the cells' (Y, Z, W, X) order; then the union set's values
    of W and Y, (2, 1, n_cells), and its events Z = 1 and Z = 0 on
    X = k_x - 1, (2, n_cells)."""
    y, z, w, x = np.unravel_index(np.arange(support.n_cells), support.shape)
    y, w, arm = support.y_cell_means[y], w.astype(float), x == support.k_x - 1
    return y, z, w, np.array([w, y])[:, None], np.array([(z == 1) & arm, (z == 0) & arm])


def _total(terms, n_cells):
    """Sum over the last four axes, the n_cells cells, as one contiguous run
    per entry: the order in which numpy sums one sample's cell array."""
    return terms.reshape(terms.shape[:-4] + (n_cells,)).sum(axis=-1)


def wald_ci(
    counts: np.ndarray,
    spec: FunctionalSpec,
    support: SupportSpec,
    alpha: float,
    s: Interval = FULL_LINE,
    cross_fit: bool = False,
) -> RegionArrays:
    """Plug-in estimate with a normal-quantile interval, clipped to s.

    The estimate is the sample mean of m(O, g) + q(Z,X){Y - g(W,X)} with
    nuisances solved on the empirical law (or, when cross_fit is set, on the
    empirical law of the opposite fold of the sample); the standard error is
    the sample standard deviation of those values over sqrt(n).  Both are
    mass-weighted sums over the cells.

    ``counts`` is the stack of R samples' counts, shape
    (R, 2, k_y, k_z, k_w, k_x).  Every stratum system of every replication
    and fold, g's and q's adjoint one alike (both square, k_z == k_w), is
    solved in one stacked call (closed-form rotations for 2x2 strata,
    batched SVD otherwise), and is consistent when its residual is at most
    ``DEFAULT_TOL`` times max(1, response norm).  Degenerate samples (empty
    conditioning cells, inconsistent empirical systems, vanishing
    representer densities, an empty cross-fitting fold, an empty sample)
    get the full range and a reason, never an exception.
    """
    spec.validate_against(support)
    counts = _check_counts(counts, support)
    z = normal_quantile(1.0 - alpha / 2.0)
    cells = (None,) * 4                                 # broadcast over the cells
    # fold f fits the nuisances and fold 1 - f weighs their values; without
    # cross-fitting the one pooled fold does both, with a share of exactly 1
    # (0 on an empty sample, whose fits are 0 too); counts sum exactly in
    # any order
    folds = counts if cross_fit else counts[:, :1] + counts[:, 1:]
    fold_n = _total(folds, support.n_cells)
    n = _reduce_short(np.add, fold_n, -1)               # (R,)
    fits = estimate(folds, support)
    share = fold_n[:, ::-1] / np.maximum(n, 1)[:, None]
    weights = fits[:, ::-1] * share[(...,) + cells]
    empty_fold = cross_fit & _reduce_short(np.logical_or, fold_n == 0, -1)

    (g, q), _, (_, ok, _), (empty_g, positivity, empty_q) = _nuisances(
        fits, spec, support, DEFAULT_TOL)
    g_bad, q_bad = ~_reduce_short(np.logical_and, ok, -1)
    # whether each (replication, fold) has an empty g row, a vanishing
    # representer density or an empty q row, each mask (k_x, k) per fold
    g_empty, density, q_empty = _reduce_short(np.logical_or, np.array(
        [empty_g, positivity.swapaxes(-1, -2), empty_q]).reshape(
            3, *fold_n.shape, support.k_x * support.k_z), -1)

    # first failure of each (replication, fold), in the order a serial
    # solve meets them: g's conditioning cells, g's consistency, the
    # representer, q's conditioning cells, q's consistency
    failure = np.where(g_empty, _ZERO_MASS,
              np.where(g_bad, _DEGENERATE,
              np.where(density, _POSITIVITY,
              np.where(q_empty, _ZERO_MASS,
              np.where(q_bad, _DEGENERATE, 0)))))
    reason = np.where(failure[:, 0] > 0, failure[:, 0], failure[:, -1])
    reason = np.where(empty_fold, _EMPTY_FOLD, reason)

    # each fold's cells summed as one contiguous run, then the folds
    values = psi1_values(support, spec, g.swapaxes(-1, -2), q.swapaxes(-1, -2))
    phi_hat = _reduce_short(np.add, _total(weights * values, support.n_cells), -1)
    centred = values - phi_hat[(..., None) + cells]
    ss = _reduce_short(np.add, _total(weights * centred ** 2, support.n_cells), -1)
    sd = np.sqrt(np.divide(ss * n, n - 1, out=np.zeros(ss.shape), where=n > 1))
    root_n = np.sqrt(np.maximum(n, 1))
    half_width = z * sd / root_n
    bad = reason > 0
    return _region_arrays(
        (phi_hat - half_width)[:, None], (phi_hat + half_width)[:, None], s, reason,
        estimate=np.where(bad, np.nan, phi_hat),
        stderr=np.where(bad, np.nan, sd / root_n),
    )


def score_invert_late(
    counts: np.ndarray,
    support: SupportSpec,
    alpha: float,
    s: Interval = FULL_LINE,
) -> RegionArrays:
    """Invert the score test for the binary-instrument ratio target.

    The statistic is sqrt(n) times the mean of the estimating function over
    its second-moment norm; the dependence (covariance) factor cancels
    between the two, so the statistic stays well defined at arbitrarily weak
    empirical dependence.  The acceptance region is the solution set of a
    quadratic inequality in theta (the Fieller / Anderson-Rubin form): an
    interval, two rays, the whole line or empty, clipped to s.  Its
    coefficients are moments of the cell counts.

    ``counts`` is the stack of R samples' counts, shape
    (R, 2, k_y, k_z, k_w, k_x).  A sample missing an instrument arm, an
    empty one included, gets the full range and a reason.
    """
    require_binary_support(support, 1, "score inversion")
    counts = _pooled_rows(counts, support)              # (R, n_cells) integers
    y, z, w, _, _ = _coordinates(support)
    z1 = counts * z                                     # the Z = 1 counts
    n1 = z1.sum(axis=-1)
    n0 = counts.sum(axis=-1) - n1

    # Per row, the estimating function is c(Z) (A - theta B) with A and B
    # centred by their Z=1 means.  Scaled by a positive constant, c is
    # (-n1, n0) and A, B are centred on the n1 scale: n1 Y - sum_{Z=1} Y.
    # With integer cell values these are exact integers, so data with
    # Y = W or Y = 1 - W give cA = +-cB exactly and a discriminant of
    # exactly zero, keeping the single accepted point.  The Z = 1 counts are
    # summed over W, scaled by the Y cell means and summed over Y as rows,
    # which fixes how that sum rounds when the cell means are not integers.
    per_y = z1.reshape(len(z1), support.k_y, support.n_cells // support.k_y).sum(axis=-1)
    sum_y1 = _reduce_short(np.add, per_y * support.y_cell_means, -1)
    c = np.where(z == 1, n0[:, None], -n1[:, None])
    ca = c * (n1[:, None] * y - sum_y1[:, None])
    cb = c * (n1[:, None] * w - (z1 @ w)[:, None])
    counts_ca, counts_cb = counts * ca, counts * cb
    sum_a = counts_ca.sum(axis=-1)
    sum_b = counts_cb.sum(axis=-1)

    z2 = normal_quantile(1.0 - alpha / 2.0) ** 2
    # |T(theta)| <= z  <=>  (sum cA - theta sum cB)^2 <= z^2 sum (c(A - theta B))^2
    #                  <=>  q_bb theta^2 - 2 q_ab theta + q_aa <= 0.
    q_aa = sum_a * sum_a - z2 * (counts_ca * ca).sum(axis=-1)
    q_ab = sum_a * sum_b - z2 * (counts_ca * cb).sum(axis=-1)
    q_bb = sum_b * sum_b - z2 * (counts_cb * cb).sum(axis=-1)
    lo, hi = _quadratic_sublevel(q_bb, -2.0 * q_ab, q_aa)
    return _region_arrays(lo, hi, s, np.where((n1 == 0) | (n0 == 0), _DEGENERATE, 0))


def _union_components(mass: np.ndarray, support: SupportSpec):
    """Estimates of the union-bound components with their influence values.

    ``mass`` holds the cell masses of R replications as (R, n_cells) rows.
    Returns the component names, their estimates (R, C) and influence
    values per cell (R, C, n_cells), and per replication the Z value of the
    first conditioning cell (Z, X = k_x - 1) without mass, or -1.  Without X
    ("de", "num") are the Z contrasts of the conditional means of W and Y.
    With binary X these contrasts are taken on X = 1, "num" becomes the Y
    contrast times E[W] - E[W|Z=1,X=1], and "offset" is E[Y|Z=1,X=1].
    """
    # E[V | Z = z, X = arm] for V in (W, Y) and z in (1, 0): axes
    # (replication, V, z, cell); each is a sum over one row of cells
    _, _, w, values, events = _coordinates(support)
    weighted = mass[:, None, None] * events
    p = weighted.sum(axis=-1)
    p_safe = np.where(p > 0.0, p, 1.0)
    est = (weighted * values).sum(axis=-1) / p_safe
    infl = np.where(events, values - est[..., None], 0.0) / p_safe[..., None]
    empty_z = np.where(p[:, 0, 0] <= 0.0, 1, np.where(p[:, 0, 1] <= 0.0, 0, -1))

    contrast = est[:, :, 0] - est[:, :, 1]
    contrast_infl = infl[:, :, 0] - infl[:, :, 1]
    if support.k_x == 1:
        return ("de", "num"), contrast, contrast_infl, empty_z
    ew_est = (mass * w).sum(axis=-1)
    diff_est = ew_est - est[:, 0, 0]
    diff_infl = (w - ew_est[:, None]) - infl[:, 0, 0]
    nu_est, nu_infl = contrast[:, 1], contrast_infl[:, 1]
    num_infl = diff_est[:, None] * nu_infl + nu_est[:, None] * diff_infl
    return (
        ("de", "num", "offset"),
        np.array([contrast[:, 0], nu_est * diff_est, est[:, 1, 0]]).T,
        np.array([contrast_infl[:, 0], num_infl, infl[:, 1, 0]]).swapaxes(0, 1),
        empty_z,
    )


def binary_union_estimand(law: DiscreteLaw) -> float:
    """Exact value of the target the union-bound set covers, from law moments.

    With binary X the target is the counterfactual mean contrast written as
    ratio-times-offset plus a conditional mean; without X it reduces to the
    plain ratio of conditional-mean differences.
    """
    require_binary_support(law.support, 2, "the union target")
    _, est, _, empty_z = _union_components(law.mass.reshape(1, -1), law.support)
    if empty_z[0] >= 0:
        raise ZeroConditioningMass((int(empty_z[0]), law.support.k_x - 1))
    de, num, *offset = est[0].tolist()
    return num / de + sum(offset)


def binary_union_set(
    counts: np.ndarray,
    support: SupportSpec,
    alpha: float,
    s: Interval,
) -> RegionArrays:
    """Union-bound set: component Wald intervals combined by interval arithmetic.

    The support decides the target.  Without X (k_x = 1) it is the plain
    ratio and the denominator and numerator components get alpha/2 each.
    With binary X (k_x = 2) it is the counterfactual mean of the X = 1 arm:
    the denominator contrast, the numerator-times-weight product and the
    offset conditional mean each get alpha/3.  When the denominator
    interval straddles zero strictly and the numerator is not identically
    zero the set is the whole range.

    ``counts`` is the stack of R samples' counts, shape
    (R, 2, k_y, k_z, k_w, k_x).  The result's ``components`` hold the
    component intervals.  An empty conditioning cell, as in an empty sample,
    gives the full range and a reason.
    """
    require_binary_support(support, 2, "the union set")
    counts = _pooled_rows(counts, support)              # (R, n_cells)
    n = counts.sum(axis=-1)
    mass = estimate(counts.reshape((len(n),) + support.shape), support).reshape(
        len(n), support.n_cells)
    names, est, infl, empty_z = _union_components(mass, support)
    level = alpha / len(names)
    z = normal_quantile(1.0 - level / 2.0)
    se = np.sqrt((mass[:, None] * infl * infl).sum(axis=-1)
                 / np.maximum(n - 1, 1)[:, None])
    lo, hi = est - z * se, est + z * se                  # (R, components)
    components = {name: (lo[:, i], hi[:, i]) for i, name in enumerate(names)}
    (de_lo, de_hi), (num_lo, num_hi) = components["de"], components["num"]
    zero = np.zeros(len(n))
    off_lo, off_hi = components.get("offset", (zero, zero))

    straddle = (de_lo < 0.0) & (0.0 < de_hi) & ~((num_lo == 0.0) & (0.0 == num_hi))
    lo, hi = _divide(num_lo, num_hi, de_lo, de_hi)
    no_pieces = np.isnan(lo[:, 0]) & np.isnan(lo[:, 1]) & ~straddle
    lo = np.where(straddle[:, None], [-INF, np.nan], lo + off_lo[:, None])
    hi = np.where(straddle[:, None], [INF, np.nan], hi + off_hi[:, None])
    reason = np.where(empty_z >= 0, _ZERO_MASS, np.where(no_pieces, _DEGENERATE, 0))
    return _region_arrays(lo, hi, s, reason, components=components)
